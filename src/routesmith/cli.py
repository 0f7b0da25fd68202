"""Command-line entry points: solve, gen, bench, discover.

Exit codes: 0 success, 2 configuration error, 3 runtime failure. Output
directories are never overwritten; by default runs land in
``runs/<cmd>-<timestamp>-<confighash>/`` and every command echoes its
resolved configuration into the output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from . import instances as inst_io
from . import _kernels, lns, operators
from .errors import ConfigError, InputError, RoutesmithError
from .model import Problem
from .util import sha256_hex

ENV_ENDPOINT = "ROUTESMITH_LLM_ENDPOINT"
ENV_API_KEY = "ROUTESMITH_LLM_API_KEY"


def _die(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _resolve_out_dir(out: str | None, command: str, config_blob: dict) -> Path:
    digest = sha256_hex(json.dumps(config_blob, sort_keys=True, default=str))[:8]
    if out:
        path = Path(out)
        if path.exists() and any(path.iterdir()):
            raise ConfigError(f"output directory {path} already exists and is not empty")
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = Path("runs") / f"{command}-{stamp}-{digest}"
        suffix = 0
        while path.exists():
            suffix += 1
            path = Path("runs") / f"{command}-{stamp}-{digest}-{suffix}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo_config(out_dir: Path, blob: dict) -> None:
    (out_dir / "config.json").write_text(json.dumps(blob, indent=2, default=str) + "\n")


def _write_solution(out_dir: Path, instance, best, stats) -> None:
    (out_dir / "solution.json").write_text(
        json.dumps(
            {
                "problem": instance.problem.value,
                "objective": best.total_objective,
                "travel_cost": best.total_cost,
                "tours": [t.customers for t in best.tours],
                "unassigned": sorted(best.unassigned),
            },
            indent=1,
        )
        + "\n"
    )
    (out_dir / "stats.json").write_text(
        json.dumps(
            {
                "iterations": stats.iterations,
                "best_objective": stats.best_objective,
                "accepted_count": stats.accepted_count,
                "improved_count": stats.improved_count,
                "elapsed_seconds": stats.elapsed_seconds,
                "status": stats.status,
                "error": stats.error,
                "kernel_backend": _kernels.BACKEND,
                "kernel_backend_reason": _kernels.BACKEND_REASON,
            },
            indent=1,
        )
        + "\n"
    )


def _write_trace(path: Path, trace) -> None:
    with open(path, "w") as fh:
        for elapsed, value in trace:
            fh.write(json.dumps({"elapsed_s": elapsed, "best_objective": value}) + "\n")


# -- solve -------------------------------------------------------------------


def cmd_solve(args) -> int:
    instance = inst_io.load(args.instance)
    pair = operators.builtin_pair(args.remove, args.order)
    config = lns.LnsConfig(
        time_limit=args.time_limit,
        max_iterations=args.iterations,
        seed=args.seed,
        record_trace=args.trace,
    )
    blob = {
        "command": "solve",
        "instance": str(args.instance),
        "remove": args.remove,
        "order": args.order,
        "time_limit": args.time_limit,
        "iterations": args.iterations,
        "seed": args.seed,
    }
    out_dir = _resolve_out_dir(args.out, "solve", blob)
    _echo_config(out_dir, blob)
    best, stats = lns.run(instance, pair, config)
    _write_solution(out_dir, instance, best, stats)
    if args.trace:
        _write_trace(out_dir / "trace.jsonl", stats.best_objective_trace)
    print(f"objective {best.total_objective:.6f}")
    print(f"run directory: {out_dir}")
    if stats.status != "completed":
        return _die(3, f"run ended with status {stats.status}: {stats.error}")
    return 0


# -- gen ---------------------------------------------------------------------


def cmd_gen(args) -> int:
    params = inst_io.GenParams(
        problem=Problem.parse(args.problem),
        n=args.n,
        seed=args.seed,
        capacity=args.capacity,
        demand_range=(args.demand_min, args.demand_max),
    )
    blob = {
        "command": "gen",
        "problem": args.problem,
        "n": args.n,
        "count": args.count,
        "validation": args.validation,
        "seed": args.seed,
        "capacity": args.capacity,
        "demand_range": [args.demand_min, args.demand_max],
    }
    out_dir = _resolve_out_dir(args.out, "gen", blob)
    _echo_config(out_dir, blob)
    sizes = {"train": args.count}
    if args.validation:
        sizes["validation"] = args.validation
    manifests = inst_io.make_splits(params, out_dir, sizes)
    for name, manifest in manifests.items():
        print(f"{name}: {len(manifest.paths)} instances, manifest {out_dir / (name + '-manifest.json')}")
    return 0


# -- bench -------------------------------------------------------------------


def _collect_instances(source: str) -> list[str]:
    path = Path(source)
    if path.is_dir():
        files = sorted(str(p) for p in path.glob("*.txt"))
        if not files:
            raise ConfigError(f"no instance files (*.txt) in {path}")
        return files
    if path.suffix == ".json":
        return list(inst_io.verify_manifest(path).paths)
    if path.exists():
        return [str(path)]
    raise ConfigError(f"instance source not found: {source}")


def _bench_one(task):
    instance_path, remove_label, order_label, time_limit, iterations, seed, trace = task
    instance = inst_io.load(instance_path)
    pair = operators.builtin_pair(remove_label, order_label)
    init_obj = lns.initial_solution(instance).total_objective
    config = lns.LnsConfig(
        time_limit=time_limit, max_iterations=iterations, seed=seed, record_trace=trace
    )
    best, stats = lns.run(instance, pair, config)
    return {
        "instance": instance_path,
        "pair": f"{remove_label}/{order_label}",
        "seed": seed,
        "objective": stats.best_objective,
        "initial_objective": init_obj,
        "iterations": stats.iterations,
        "elapsed_seconds": stats.elapsed_seconds,
        "status": stats.status,
        "trace": stats.best_objective_trace if trace else None,
    }


def cmd_bench(args) -> int:
    pairs = []
    for pair_arg in args.pair:
        if ":" not in pair_arg:
            raise ConfigError(f"--pair must look like REMOVE:ORDER, got {pair_arg!r}")
        remove_label, order_label = pair_arg.split(":", 1)
        operators.builtin_pair(remove_label, order_label)  # fail fast on bad labels
        pairs.append((remove_label, order_label))
    if not pairs:
        raise ConfigError("at least one --pair is required")
    instance_paths = _collect_instances(args.instances)
    blob = {
        "command": "bench",
        "instances": instance_paths,
        "pairs": [f"{r}:{o}" for r, o in pairs],
        "time_limit": args.time_limit,
        "iterations": args.iterations,
        "seed": args.seed,
        "reps": args.reps,
    }
    out_dir = _resolve_out_dir(args.out, "bench", blob)
    _echo_config(out_dir, blob)

    from .util import derive_seed

    tasks = []
    for remove_label, order_label in pairs:
        for idx, path in enumerate(instance_paths):
            for rep in range(args.reps):
                seed = derive_seed(args.seed, f"{remove_label}/{order_label}", idx, rep)
                tasks.append(
                    (path, remove_label, order_label, args.time_limit, args.iterations, seed, args.trace)
                )

    # builds the compiled kernels, if needed, before any worker or clock starts
    lns.warm_kernels()
    if args.jobs > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # numpy has started a BLAS thread in this process, so workers must not fork from it
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=args.jobs, mp_context=spawn) as pool:
            rows = list(pool.map(_bench_one, tasks))
    else:
        rows = [_bench_one(task) for task in tasks]

    traces_dir = out_dir / "traces"
    for i, row in enumerate(rows):
        trace = row.pop("trace")
        if trace is not None:
            traces_dir.mkdir(exist_ok=True)
            _write_trace(traces_dir / f"trace-{i:04d}.jsonl", trace)

    summary = {}
    for remove_label, order_label in pairs:
        label = f"{remove_label}/{order_label}"
        objectives = [r["objective"] for r in rows if r["pair"] == label]
        iters = [r["iterations"] for r in rows if r["pair"] == label]
        secs = [r["elapsed_seconds"] for r in rows if r["pair"] == label]
        summary[label] = {
            "mean_objective": sum(objectives) / len(objectives),
            "runs": len(objectives),
            "iterations_per_second": sum(iters) / max(sum(secs), 1e-9),
        }
    gaps = {}
    labels = list(summary)
    for a in labels:
        for b in labels:
            if a != b:
                ma, mb = summary[a]["mean_objective"], summary[b]["mean_objective"]
                gaps[f"{a} vs {b}"] = (ma - mb) / mb * 100.0
    results = {
        "rows": rows,
        "summary": summary,
        "gap_percent": gaps,
        "kernel_backend": _kernels.BACKEND,
        "kernel_backend_reason": _kernels.BACKEND_REASON,
    }
    (out_dir / "results.json").write_text(json.dumps(results, indent=1) + "\n")

    for label, agg in summary.items():
        print(
            f"{label}: mean objective {agg['mean_objective']:.4f} over {agg['runs']} runs, "
            f"{agg['iterations_per_second']:.0f} iterations/s"
        )
    for key, gap in gaps.items():
        print(f"gap {key}: {gap:+.3f}%")
    print(f"run directory: {out_dir}")
    return 0


# -- discover ----------------------------------------------------------------

_TRAIN_KEYS = {"manifest", "count", "n", "seed", "capacity", "demand_range", "resolved_paths"}
_LLM_KEYS = {
    "provider", "model", "endpoint", "seed", "min_interval",
    "input_cost_per_mtok", "output_cost_per_mtok",
}
_EVAL_KEYS = {"workers", "smoke_test"}
_TOP_KEYS = {"problem", "discovery", "train", "validation", "llm", "evaluator"}


def _check_keys(section: dict, allowed: set, name: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")


def _materialize_split(section: dict, problem: Problem, out_dir: Path, name: str) -> list[str]:
    _check_keys(section, _TRAIN_KEYS, name)
    if "resolved_paths" in section:
        # an echoed config re-fed to the CLI reuses its materialized files
        return [str(p) for p in section["resolved_paths"]]
    if "manifest" in section:
        return list(inst_io.verify_manifest(section["manifest"]).paths)
    params = inst_io.GenParams(
        problem=problem,
        n=int(section.get("n", 50)),
        seed=int(section.get("seed", 0)),
        capacity=int(section.get("capacity", 50)),
        demand_range=tuple(section.get("demand_range", (1, 9))),
    )
    manifests = inst_io.make_splits(params, out_dir / "instances", {name: int(section.get("count", 4))})
    return list(manifests[name].paths)


def _build_gateway(llm_cfg: dict, provider_override: str | None):
    from .gateway import Gateway, HttpProvider, MockProvider

    _check_keys(llm_cfg, _LLM_KEYS, "llm")
    provider_kind = provider_override or llm_cfg.get("provider", "mock")
    if provider_kind == "mock":
        provider = MockProvider(seed=int(llm_cfg.get("seed", 0)))
    elif provider_kind == "http":
        endpoint = llm_cfg.get("endpoint") or os.environ.get(ENV_ENDPOINT)
        api_key = os.environ.get(ENV_API_KEY)
        if not endpoint:
            raise ConfigError(f"http provider needs an endpoint ({ENV_ENDPOINT} or llm.endpoint)")
        if not api_key:
            raise ConfigError(f"http provider needs a credential in {ENV_API_KEY}")
        provider = HttpProvider(endpoint=endpoint, api_key=api_key)
    else:
        raise ConfigError(f"unknown provider {provider_kind!r}")
    return Gateway(
        provider,
        model=llm_cfg.get("model", "default"),
        min_interval=float(llm_cfg.get("min_interval", 0.0)),
        input_cost_per_mtok=float(llm_cfg.get("input_cost_per_mtok", 0.0)),
        output_cost_per_mtok=float(llm_cfg.get("output_cost_per_mtok", 0.0)),
    )


def cmd_discover(args) -> int:
    from .discovery import DiscoveryConfig, DiscoveryRun, select_best_by_validation
    from .evaluator import Evaluator

    resume = args.resume is not None
    if resume:
        run_dir = Path(args.resume)
        config_path = run_dir / "config.json"
        if not config_path.exists():
            raise ConfigError(f"{run_dir} has no config.json to resume from")
        raw = json.loads(config_path.read_text())
    else:
        if not args.config:
            raise ConfigError("--config is required unless resuming")
        raw = json.loads(Path(args.config).read_text())

    _check_keys(raw, _TOP_KEYS, "run config")
    problem = Problem.parse(raw.get("problem", "cvrp"))
    discovery_cfg = dict(raw.get("discovery", {}))
    _check_keys(discovery_cfg, {f.name for f in dataclasses.fields(DiscoveryConfig)}, "discovery")
    discovery_cfg["problem"] = problem.value
    config = DiscoveryConfig(**discovery_cfg)
    config.check()

    if resume:
        train_paths = raw.get("train", {}).get("resolved_paths")
        if not train_paths:
            raise ConfigError(f"{run_dir}/config.json has no resolved train paths")
        validation_paths = raw.get("validation", {}).get("resolved_paths", [])
        out_dir = run_dir
    else:
        blob = dict(raw)
        blob["command"] = "discover"
        out_dir = _resolve_out_dir(args.out, "discover", blob)
        train_paths = _materialize_split(dict(raw.get("train", {})), problem, out_dir, "train")
        validation_paths = (
            _materialize_split(dict(raw["validation"]), problem, out_dir, "validation")
            if "validation" in raw
            else []
        )
        echo = dict(raw)
        echo.setdefault("train", {})
        echo["train"] = dict(echo["train"])
        echo["train"]["resolved_paths"] = train_paths
        if "validation" in echo:
            echo["validation"] = dict(echo["validation"])
            echo["validation"]["resolved_paths"] = validation_paths
        _echo_config(out_dir, echo)

    gateway = _build_gateway(dict(raw.get("llm", {})), args.provider)
    eval_cfg = dict(raw.get("evaluator", {}))
    _check_keys(eval_cfg, _EVAL_KEYS, "evaluator")
    with Evaluator(
        cache_dir=out_dir / "cache",
        workers=int(eval_cfg.get("workers", 2)),
        smoke_test=bool(eval_cfg.get("smoke_test", True)),
    ) as evaluator:
        run = DiscoveryRun(config, gateway, evaluator, train_paths, out_dir)
        best_training = run.run(resume=resume)
        (out_dir / "best-training.py").write_text(best_training.source)

        report = {
            "best_training": best_training.to_record(),
            "iterations": run.completed_iterations,
            "history": run.history,
            "cost_ledger": gateway.ledger.to_dict(),
        }
        if validation_paths:
            chosen = select_best_by_validation(
                run.finalists(),
                validation_paths,
                evaluator,
                master_seed=config.master_seed,
                per_instance_time=config.per_instance_time,
                per_instance_iterations=config.per_instance_iterations,
            )
            (out_dir / "best-validated.py").write_text(chosen.source)
            report["best_validated"] = chosen.to_record()
            report["cost_ledger"] = gateway.ledger.to_dict()
    (out_dir / "report.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"best training fitness: {best_training.fitness:.6f} (individual {best_training.id})")
    if validation_paths:
        print(f"validation-selected individual: {report['best_validated']['id']}")
    print(f"run directory: {out_dir}")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="routesmith", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance with built-in operators")
    p.add_argument("--instance", required=True)
    p.add_argument("--remove", default="seed_random", help=f"one of {operators.remove_labels()}")
    p.add_argument("--order", default="random", help=f"one of {operators.order_labels()}")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate instance files and manifests")
    p.add_argument("--problem", default="cvrp", choices=["cvrp", "vrptw", "pcvrp"])
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--validation", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--capacity", type=int, default=50)
    p.add_argument("--demand-min", type=int, default=1)
    p.add_argument("--demand-max", type=int, default=9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="benchmark operator pairs over an instance set")
    p.add_argument("--instances", required=True, help="manifest json, directory, or file")
    p.add_argument("--pair", action="append", default=[], help="REMOVE:ORDER (repeatable)")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("discover", help="run or resume an operator-discovery search")
    p.add_argument("--config", default=None)
    p.add_argument("--resume", default=None, help="run directory to continue")
    p.add_argument("--provider", default=None, choices=["mock", "http"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_discover)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InputError) as exc:
        return _die(2, str(exc))
    except RoutesmithError as exc:
        return _die(3, str(exc))


if __name__ == "__main__":
    sys.exit(main())
