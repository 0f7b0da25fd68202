"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 perfbench/probe.py <solve|discover> <problem> <n> <workdir>
       python3 perfbench/probe.py serve

Times what a user pays before the first iteration: importing the package,
generating and saving the instances, warming the kernels and, for
discovery, constructing the evaluator. Prints {"setup_s": seconds}.
Interpreter start-up and numpy's import are outside the measurement; the
instance parameters match ``solve.py`` and ``discover.py``.

``serve`` reads one JSON list of those four arguments per line on standard
input, runs each probe in a fresh interpreter, removes its directory and
answers with one JSON line ({"setup_s": ...} or {"error": ...}). It ends at
the end of its input. ``run.py`` takes its probes through one server, so
the probe interpreters are not its own children.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def probe(kind: str, problem: str, n: str, workdir: str) -> int:
    # numpy's own import is outside the measurement: the package cannot change
    # it, and it is the noisiest part of start-up on a shared host
    import numpy  # noqa: F401
    from discover import WORKERS, make_instances

    t0 = time.perf_counter()
    sys.path.insert(0, str(HERE.parent / "src"))
    n, workdir = int(n), Path(workdir)
    from routesmith import instances, lns
    from routesmith.model import Problem

    if kind == "solve":
        inst = instances.generate(instances.GenParams(problem=Problem.parse(problem), n=n))
        instances.save(inst, workdir / "instance.txt")
        lns.warm_kernels()
    else:
        from routesmith import discovery, gateway  # noqa: F401  (imported by a discover run)
        from routesmith.evaluator import Evaluator

        make_instances(instances, n, workdir / "instances")
        lns.warm_kernels()
        Evaluator(workdir / "cache", workers=WORKERS, smoke_test=True)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def serve() -> int:
    for line in sys.stdin:
        args = [str(a) for a in json.loads(line)]
        workdir = Path(args[-1])
        workdir.mkdir(parents=True)
        try:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), *args],
                capture_output=True, text=True, timeout=120, check=False,
            )
            if done.returncode == 0:
                reply = json.loads(done.stdout.strip().splitlines()[-1])
            else:
                reply = {"error": done.stderr[-500:]}
        except subprocess.TimeoutExpired:
            reply = {"error": "probe timed out"}
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve() if sys.argv[1:] == ["serve"] else probe(*sys.argv[1:5]))
