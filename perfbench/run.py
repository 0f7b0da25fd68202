"""routesmith benchmark: LNS throughput per variant at n=500 and discovery
wall time, with a traced per-module split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cvrp-n500 --seed 1 --seconds 25 --trace 0

Workloads: cvrp-n500, vrptw-n500, pcvrp-n500 (one generated instance, solved
again and again at a fixed iteration budget) and discover-n50 (a small
discovery run with a mock LLM, repeated). ``--trace 0`` times untraced
units and prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced units and prints the per-layer split plus the tracing overhead.
Every unit's output is checked; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}. The package is
imported from ``src/`` of this checkout and is never modified.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

from tracing import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SOLVE_WORKLOADS = ("cvrp-n500", "vrptw-n500", "pcvrp-n500")
WORKLOADS = SOLVE_WORKLOADS + ("discover-n50",)

END_TO_END = {
    "iters_per_s": "1/s",
    "final_objective": "obj",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "lns.iter_us.p50": "us",
    "lns.iter_us.p99": "us",
    "lns.iter_us.mean": "us",
    "lns.self_us": "us",
    "lns.greedy_reinsert_us": "us",
    "lns.reinsert_batch": "count",
    "lns.reinsert_commit_ratio": "ratio",
    "lns.sanitize_removal_us": "us",
    "lns.sanitize_order_us": "us",
    "lns.sanitize_drop_ratio": "ratio",
    "lns.accept_us": "us",
    "lns.accept_ratio": "ratio",
    "lns.improve_ratio": "ratio",
    "_kernels.slot_evals": "count",
    "_kernels.ns_per_slot": "ns",
    "_kernels.greedy_insert_us": "us",
    "_kernels.remove_ids_us": "us",
    "model.clone_us": "us",
    "model.remove_customers_us": "us",
    "model.validate_us": "us",
    "model.validate_calls": "count",
    "operators.remove_us": "us",
    "operators.order_us": "us",
    "operators.removed_per_iter": "count",
    "instances.generate_s": "s",
    "instances.save_s": "s",
    "instances.load_s": "s",
    "gateway.calls": "count",
    "gateway.call_s.p50": "s",
    "gateway.wait_s": "s",
    "gateway.llm_share": "ratio",
    "gateway.retries": "count",
    "prompts.render_us": "us",
    "candidates.check_us": "us",
    "evaluator.evaluations": "count",
    "evaluator.cache_hit_ratio": "ratio",
    "evaluator.evaluate_s.p50": "s",
    "evaluator.evaluate_s.p99": "s",
    "evaluator.children": "count",
    "evaluator.child_s.p50": "s",
    "evaluator.child_s.p99": "s",
    "evaluator.revalidate_us": "us",
    "evaluator.child_peak_rss_mb": "MB",
    "evalchild.startup_s.p50": "s",
    "discovery.init_population_s": "s",
    "discovery.make_offspring_s": "s",
    "discovery.mutate_elites_s": "s",
    "discovery.checkpoint_s": "s",
    "discovery.checkpoint_bytes": "bytes",
    "discovery.generation_s": "s",
    "trace.overhead_pct": "%",
}

SETUP_PROBES = 15
IO_REPEATS = 5
MIN_UNITS = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny instances and budgets (self-test only; figures are meaningless)")
    return parser.parse_args(argv)


def import_routesmith():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "routesmith" / "__init__.py").is_file():
        raise SystemExit(f"error: no routesmith package under {SRC}")
    sys.path.insert(0, str(SRC))
    import routesmith
    from routesmith import (
        _kernels, candidates, discovery, evaluator, gateway, instances, lns, model, operators,
    )

    if Path(routesmith.__file__).resolve().parent != SRC / "routesmith":
        raise SystemExit(f"error: routesmith imported from {routesmith.__file__}, not {SRC}")
    return types.SimpleNamespace(
        kernels=_kernels, candidates=candidates, discovery=discovery, evaluator=evaluator,
        gateway=gateway, instances=instances, lns=lns, model=model, operators=operators,
    )


def environment(rs) -> dict:
    """Kernel backend, cores, versions and the code under test."""
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            commit = done.stdout.strip() or None
        except OSError:  # no git binary
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "kernel_backend": "numba" if rs.kernels.HAVE_NUMBA else "interpreted",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


class SetupProbe:
    """Set-up time in fresh interpreters (``probe.py``), spread over the run.

    The interpreters are started by one ``probe.py serve`` process that lives
    until ``close``: while it lives, they are not counted in this process's
    RUSAGE_CHILDREN, so probes can run between discovery units without
    touching the evaluation children's peak RSS.
    """

    def __init__(self, kind: str, problem: str, n: int, workdir: Path, env: dict):
        self.args = [kind, problem, n]
        self.workdir = workdir
        self.samples: list[float] = []
        self.server = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def take(self) -> None:
        probe_dir = self.workdir / f"probe-{len(self.samples)}"
        self.server.stdin.write(json.dumps([*self.args, str(probe_dir)]) + "\n")
        self.server.stdin.flush()
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError("setup probe server stopped")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"setup probe failed: {reply['error']}")
        self.samples.append(reply["setup_s"])

    def keep_up(self, fraction: float) -> None:
        """Take samples until they are ``fraction`` of SETUP_PROBES."""
        while len(self.samples) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * fraction)):
            self.take()

    def median(self) -> float:
        self.keep_up(1.0)
        return median(self.samples)

    def close(self) -> None:
        if self.server.poll() is None:
            self.server.stdin.close()
            try:
                self.server.wait(timeout=150)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()


def measure(workload, seconds: float, trace: bool, between=None) -> None:
    """Run units until the next one would overrun ``seconds``.

    Traced runs alternate untraced and traced units, so the overhead is
    read from neighbouring units. ``between(fraction)`` runs after each
    unit with the share of ``seconds`` used so far, so its samples spread
    over the run; its time counts toward ``seconds``. A failed unit ends
    the run.
    """
    start = time.perf_counter()
    spent: list[float] = []
    while not workload.failed:
        elapsed = time.perf_counter() - start
        if len(spent) >= MIN_UNITS and elapsed + median(spent) > seconds:
            break
        t0 = time.perf_counter()
        if workload.unit(traced=trace and len(spent) % 2 == 1) is None:
            break
        spent.append(time.perf_counter() - t0)
        if between is not None:
            between((time.perf_counter() - start) / seconds)


def instance_io(rs, params, workdir: Path) -> dict[str, float]:
    """Median generate / save / load times of one workload instance."""
    io = rs.instances
    gen, save, load = [], [], []
    path = workdir / "io-instance.txt"
    for _ in range(IO_REPEATS):
        t0 = time.perf_counter()
        inst = io.generate(params)
        t1 = time.perf_counter()
        io.save(inst, path)
        t2 = time.perf_counter()
        loaded = io.load(path)
        t3 = time.perf_counter()
        if not (loaded.dist == inst.dist).all():
            raise RuntimeError("instance save/load round trip changed the distances")
        gen.append(t1 - t0)
        save.append(t2 - t1)
        load.append(t3 - t2)
    return {
        "instances.generate_s": median(gen),
        "instances.save_s": median(save),
        "instances.load_s": median(load),
    }


def rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(args, workdir: Path) -> types.SimpleNamespace:
    """Set up, measure and check one workload; returns what main prints."""
    # children (setup probes, evaluation children) import the same source
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(workdir / "tmp")
    os.environ.update(PYTHONPATH=env["PYTHONPATH"], TMPDIR=env["TMPDIR"])
    (workdir / "tmp").mkdir(parents=True)
    tempfile.tempdir = None

    rs = import_routesmith()
    stamp = environment(rs)
    rs.lns.warm_kernels()
    solve = args.workload in SOLVE_WORKLOADS
    if solve:
        from solve import SolveWorkload

        workload = SolveWorkload(rs, args.workload, args.seed, args.tiny)
        params = workload.params
        probe_args = ("solve", params.problem.value, params.n)
    else:
        from discover import CAPACITY, TRAIN_SEED, DiscoverWorkload

        workload = DiscoverWorkload(rs, args.seed, args.tiny, workdir)
        params = rs.instances.GenParams(n=workload.n, seed=TRAIN_SEED, capacity=CAPACITY)
        probe_args = ("discover", "cvrp", workload.n)

    with SetupProbe(*probe_args, workdir, env) as setup:
        measure(workload, args.seconds, bool(args.trace), between=setup.keep_up)
        # read while the probe server lives: only evaluation children count
        child_rss = rss_mb(resource.RUSAGE_CHILDREN)
        clean = workload.walls and not workload.failed
        setup_s = setup.median() if clean else None
    out = types.SimpleNamespace(
        stamp=stamp, table=[], metrics={}, problems=list(workload.problems), workload=workload
    )
    table = out.table
    if not clean:
        out.problems.append("no unit completed cleanly")
        return out

    e2e = workload.end_to_end()
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = rss_mb(resource.RUSAGE_SELF)
    table.extend((name, e2e[name], unit) for name, unit in END_TO_END.items())
    if solve:
        table.append(("wall_s", e2e["wall_s"], "s"))
        table.append(("unassigned_share", e2e["unassigned_share"], "ratio"))
    else:
        # discovery figures under the names discovery users know them by
        table.append(("discover_s", e2e["wall_s"], "s"))
        table.append(("best_fitness", e2e["final_objective"], "obj"))
        table.append(("generation_s", median(workload.generation_s), "s"))
        table.append(("child_peak_rss_mb", child_rss, "MB"))
        # simulated LLM time per discovery (calls x the assumed latency), and
        # its share of discover_s, so figures can be rescaled to another latency
        table.append(("llm_s", e2e["llm_s"], "s"))
        table.append(("llm_share", e2e["llm_s"] / e2e["wall_s"], "ratio"))
    table.append(("failed_share", workload.failed / workload.attempted, "ratio"))
    table.append(("units", len(workload.walls), "count"))
    # in-run spread of the untraced units, for reading the bounds
    table.append(("unit_wall_s.min", min(workload.walls), "s"))
    table.append(("unit_wall_s.max", max(workload.walls), "s"))

    if args.trace:
        layers = {name: 0.0 for name in PER_LAYER}
        for sample in workload.layers:
            unknown = set(sample) - set(PER_LAYER)
            if unknown:
                raise RuntimeError(f"per-layer metrics missing from PER_LAYER: {sorted(unknown)}")
        for name in set().union(*workload.layers):
            layers[name] = sum(s.get(name, 0.0) for s in workload.layers) / len(workload.layers)
        if workload.traced_walls:
            layers["trace.overhead_pct"] = (median(workload.traced_walls) / median(workload.walls) - 1.0) * 100.0
        layers.update(instance_io(rs, params, workdir))
        if not solve:
            layers["evaluator.child_peak_rss_mb"] = child_rss
            layers["discovery.generation_s"] = median(workload.generation_s)
            layers["evalchild.startup_s.p50"] = workload.startup_probe(env)
        out.metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        table.append(("traced_units", len(workload.traced_walls), "count"))
        table.extend((name, layers[name], unit) for name, unit in PER_LAYER.items())
    else:
        out.metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    work_root = ROOT / ".perfbench-work"
    workdir = work_root / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        out = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    print(f"routesmith perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(out.stamp))
    for name, value, unit in out.table:
        print(f"  {name:<34} {value!r} {unit}")
    for problem in out.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = not out.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, out.workload.attempted),
        "failed": out.workload.failed if correct else max(1, out.workload.failed),
        "metrics": out.metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
