"""Evaluation child process: run one instance with candidate operators.

Invocation contract: ``python -m routesmith.evalchild <manifest.json>``.
The manifest names the instance file, seed, limits, and the candidate
source path. An optional ``memory_limit`` (bytes) caps the child's own
address space before any candidate code loads. Protocol records are emitted as JSON lines on stdout:

    {"type": "ready"}                         after import and kernel warm-up
    {"type": "result", "id": ..., "objective": ..., "feasible": ...,
     "iterations": ..., "tours": [[...], ...], "unassigned": [...]}
    {"type": "error", "stage": ..., "message": ...}

Exit code 0 on protocol completion, 3 on a candidate runtime failure.
"""

from __future__ import annotations

import json
import sys


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m routesmith.evalchild <manifest.json>", file=sys.stderr)
        return 2
    manifest = json.loads(open(argv[0]).read())
    if manifest.get("memory_limit") is not None:
        import resource

        limit = int(manifest["memory_limit"])
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    from . import instances as inst_io
    from . import lns
    from .candidates import CandidateRuntime

    # children run under RLIMIT_AS and never compile; the parent built the kernels
    lns.warm_kernels(build=False)
    instance = inst_io.load(manifest["instance"])
    source = open(manifest["source_path"]).read()
    try:
        pair = CandidateRuntime(source).make_pair()
    except Exception as exc:
        _emit({"type": "error", "stage": "load", "message": f"{type(exc).__name__}: {exc}"})
        return 4

    _emit({"type": "ready"})

    config = lns.LnsConfig(
        time_limit=float(manifest["time_limit"]),
        max_iterations=manifest.get("iteration_limit"),
        seed=int(manifest["seed"]),
    )
    try:
        best, stats = lns.run(instance, pair, config)
    except Exception as exc:
        _emit({"type": "error", "stage": "run", "message": f"{type(exc).__name__}: {exc}"})
        return 3
    if stats.status != "completed":
        _emit({"type": "error", "stage": "run", "message": stats.error or stats.status})
        return 3

    record = {
        "type": "result",
        "id": manifest["id"],
        "objective": best.total_objective,
        "feasible": True,
        "iterations": stats.iterations,
        "tours": [t.customers for t in best.tours],
        "unassigned": sorted(best.unassigned),
    }
    _emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
