"""The discovery workload: a scaled-down README ``discover`` run.

CVRP, the README's four n=50 training and two validation instances, two
evaluator workers with the smoke test on, a short genetic search and then
``select_best_by_validation``. The workload seed is the master seed and the
mock LLM's seed, so it changes which operators are written and kept. Per-instance budgets are iteration-bound (the
time limit is never reached), so ``best_fitness`` repeats exactly.

The LLM is ``MockProvider`` behind a wrapper that makes every reply distinct
(real replies never repeat, and repeats would be served from the evaluator's
report cache instead of spawning children) and adds a fixed simulated
endpoint latency per call. It changes no reply's line count, so the
code-length penalty is untouched.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import time

from gate import solution_problems
from tracing import Tracer, median, perf_ns, quantile

SEARCH = dict(
    n_init=3,
    n_elite=1,
    n_offspring=2,
    iterations=2,
    per_instance_time=30.0,
    per_instance_iterations=200,
    finalist_pool=1,
)
TINY_SEARCH = dict(SEARCH, n_init=2, iterations=1, per_instance_iterations=20)
TRAIN, VALIDATION = 4, 2
TRAIN_SEED, VALIDATION_SEED = 10, 910
N, CAPACITY, TINY_N = 50, 40, 12
WORKERS = 2
# An assumption, not a measurement: hosted code-writing endpoints usually
# take seconds per reply. A short fixed latency keeps the evaluation
# children the larger share of discover_s, so child-side changes stay
# visible; the run reports that share (llm_share) for rescaling.
LLM_LATENCY_S = 0.1
STARTUP_PROBES = 5


def make_instances(io, n: int, out_dir) -> tuple[list[str], list[str]]:
    """The README's training and validation splits (seeds 10 and 910)."""
    splits = {}
    for name, count, seed in (("train", TRAIN, TRAIN_SEED), ("validation", VALIDATION, VALIDATION_SEED)):
        base = io.GenParams(n=n, seed=seed, capacity=CAPACITY)
        splits[name] = list(io.make_splits(base, out_dir, {name: count})[name].paths)
    return splits["train"], splits["validation"]


class DistinctReplies:
    """MockProvider with a per-call tag on each reply and a fixed latency.

    The tag is a trailing comment on the first ``def`` line, so the reply
    keeps its line count and stays valid code.
    """

    def __init__(self, mock, latency: float):
        self.mock = mock
        self.latency = latency
        self.calls = 0
        self.busy_ns = 0

    def complete(self, request):
        t0 = perf_ns()
        exchange = self.mock.complete(request)
        self.calls += 1
        lines = exchange.response.split("\n")
        for i, line in enumerate(lines):
            if line.startswith("def "):
                lines[i] = f"{line}  # reply {self.calls}"
                break
        exchange.response = "\n".join(lines)
        time.sleep(self.latency)
        self.busy_ns += perf_ns() - t0
        return exchange


class DiscoverWorkload:
    """Inputs, one timed discovery, the correctness gate and the traced split."""

    def __init__(self, rs, seed: int, tiny: bool, workdir):
        self.rs = rs
        self.seed = seed
        self.workdir = workdir
        self.n = TINY_N if tiny else N
        search = TINY_SEARCH if tiny else SEARCH
        self.config = rs.discovery.DiscoveryConfig(problem="cvrp", master_seed=seed, **search)
        self.train, self.validation = make_instances(rs.instances, self.n, workdir / "instances")
        self.units = 0
        self.reference = None
        self.iterations = 0
        self.llm_s: list[float] = []
        self.provider_ns = 0
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.layers: list[dict] = []
        self.generation_s: list[float] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def unit(self, traced: bool) -> float | None:
        """One timed discovery, checked; None when the run raised."""
        tracer = self.tracer() if traced else None
        try:
            with tracer or contextlib.nullcontext():
                wall, run, best, finalists, chosen, unit_dir = self.run_once(tracer)
        except Exception as exc:  # e.g. every candidate disqualified
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"discovery raised {type(exc).__name__}: {exc}")
            return None
        self.attempted += 1
        failed_before = self.failed
        problems = self.check(run, best, finalists, chosen)
        if problems:
            if self.failed == failed_before:  # a gate problem beyond failed evaluations
                self.failed += 1
            self.problems.extend(problems)
        if traced:
            self.traced_walls.append(wall)
            self.layers.append(self.layer_metrics(tracer, unit_dir, wall))
            self.problems.extend(self.trace_problems(tracer))
        else:
            self.walls.append(wall)
            self.generation_s.extend(self.checkpoint_times(unit_dir))
            self.llm_s.append(self.provider_ns / 1e9)
        shutil.rmtree(unit_dir, ignore_errors=True)
        return wall

    def end_to_end(self) -> dict[str, float]:
        return {
            "iters_per_s": self.iterations * len(self.walls) / sum(self.walls),
            "wall_s": median(self.walls),
            "final_objective": self.objective,
            "llm_s": median(self.llm_s),
        }

    def run_once(self, tracer: Tracer | None = None):
        """One discovery; returns (wall seconds, outcome) or raises."""
        rs = self.rs
        self.units += 1
        unit_dir = self.workdir / f"unit-{self.units}"
        evaluator = rs.evaluator.Evaluator(unit_dir / "cache", workers=WORKERS, smoke_test=True)
        provider = DistinctReplies(rs.gateway.MockProvider(seed=self.seed), LLM_LATENCY_S)
        gateway = rs.gateway.Gateway(provider)
        cfg = self.config
        t0 = time.perf_counter()
        run = rs.discovery.DiscoveryRun(cfg, gateway, evaluator, self.train, unit_dir / "run")
        best = run.run()
        finalists = run.finalists()
        chosen = rs.discovery.select_best_by_validation(
            finalists,
            self.validation,
            evaluator,
            master_seed=cfg.master_seed,
            per_instance_time=cfg.per_instance_time,
            per_instance_iterations=cfg.per_instance_iterations,
        )
        wall = time.perf_counter() - t0
        self.provider_ns = provider.busy_ns
        return wall, run, best, finalists, chosen, unit_dir

    def check(self, run, best, finalists, chosen) -> list[str]:
        """Counts evaluations, checks every status and determinism."""
        problems = []
        evaluated = [ind for ind in run.individuals.values() if ind.evaluated]
        bad = [ind for ind in evaluated if ind.eval_status != "ok"]
        validated = [ind for ind in finalists if ind.validation_mean is not None]
        self.attempted += len(evaluated) + len(finalists)
        self.failed += len(bad) + len(finalists) - len(validated)
        for ind in bad:
            problems.append(f"individual {ind.id} evaluated {ind.eval_status}")
        if len(validated) != len(finalists):
            problems.append(f"{len(finalists) - len(validated)} finalist(s) failed validation")
        budget = self.config.per_instance_iterations
        ok = len(evaluated) - len(bad)
        self.iterations = budget * (ok * len(self.train) + len(validated) * len(self.validation))
        signature = (best.fitness, best.id, chosen.id, chosen.validation_mean, len(evaluated))
        if self.reference is None:
            self.reference = signature
            problems.extend(self.recheck(best))
        elif signature != self.reference:
            problems.append("discovery is not bit-identical to the first discovery of this run")
        return problems

    def recheck(self, best) -> list[str]:
        """Re-run the best candidate in this process and compare its fitness.

        The evaluator takes objectives from its children; this re-derives
        them with the same seeds and budget and checks each best solution.
        """
        rs = self.rs
        cfg = self.config
        pair = rs.candidates.CandidateRuntime(best.source).make_pair()
        objectives = []
        problems = []
        for i, path in enumerate(self.train):
            inst = rs.instances.load(path)
            config = rs.lns.LnsConfig(
                time_limit=cfg.per_instance_time,
                max_iterations=cfg.per_instance_iterations,
                seed=rs.instances.eval_seed_for(cfg.master_seed, i),
            )
            sol, stats = rs.lns.run(inst, pair, config)
            if stats.status != "completed":
                problems.append(f"best candidate fails on training instance {i} in-process")
            problems.extend(solution_problems(rs.model, inst, sol))
            objectives.append(sol.total_objective)
        if objectives != list(best.eval_detail):
            problems.append(f"evaluator objectives {best.eval_detail} != in-process {objectives}")
        fitness = sum(objectives) / len(objectives) + cfg.lam * best.line_count
        if abs(fitness - best.fitness) > 1e-9 * max(1.0, abs(fitness)):
            problems.append(f"best_fitness {best.fitness!r} != recomputed {fitness!r}")
        return problems

    @property
    def objective(self) -> float:
        return self.reference[0]

    @staticmethod
    def checkpoint_times(unit_dir) -> list[float]:
        """Seconds between consecutive generation checkpoints (file mtimes)."""
        paths = sorted((unit_dir / "run" / "checkpoints").glob("state-*.json"))
        stamps = [p.stat().st_mtime_ns for p in paths]
        return [(b - a) / 1e9 for a, b in zip(stamps, stamps[1:])]

    # -- tracing -------------------------------------------------------------

    def tracer(self) -> Tracer:
        rs = self.rs
        tr = Tracer()

        def count_retries(_, args, kwargs, result, error):
            if error is None:
                tr.counts["gateway.retries"] += int(result.retry_count)

        def count_failed_generation(_, args, kwargs, result, error):
            if error is not None:
                tr.counts["gateway.retries"] += 1

        def children_before(args, kwargs):
            return tr.calls("evaluator.child")

        def count_cache_hit(before, args, kwargs, result, error):
            if error is None and result.status != "compile_error" and tr.calls("evaluator.child") == before:
                tr.counts["evaluator.cache_hits"] += 1

        tr.wrap(rs.gateway.Gateway, "complete", "gateway.call", after=count_retries)
        tr.wrap(rs.discovery.DiscoveryRun, "_generate", "discovery.generate", after=count_failed_generation)
        tr.wrap(rs.discovery, "render", "prompts.render")
        tr.wrap(rs.evaluator, "check_source", "candidates.check")
        tr.wrap(rs.evaluator.Evaluator, "evaluate_source", "evaluator.evaluate",
                before=children_before, after=count_cache_hit)
        tr.wrap(rs.evaluator, "_run_child", "evaluator.child")
        tr.wrap(rs.evaluator.Evaluator, "_revalidate", "evaluator.revalidate")
        for step in ("init_population", "make_offspring", "mutate_elites", "_checkpoint"):
            tr.wrap(rs.discovery.DiscoveryRun, step, f"discovery.{step.lstrip('_')}")
        return tr

    @staticmethod
    def trace_problems(tr: Tracer) -> list[str]:
        """Wrappers that saw no call: their metrics would silently read 0."""
        problems = [f"trace: {name} not traced" for name in tr.missing]
        problems.extend(f"trace: {name} never called" for name in tr.spans if not tr.calls(name))
        return problems

    def layer_metrics(self, tr: Tracer, unit_dir, wall: float) -> dict[str, float]:
        calls = tr.calls("gateway.call")
        evaluations = tr.calls("evaluator.evaluate")
        checkpoints = unit_dir / "run" / "checkpoints"
        out = {
            "gateway.calls": calls,
            "gateway.call_s.p50": quantile(tr.durations_s("gateway.call"), 0.5),
            "gateway.wait_s": (tr.total_ns("gateway.call") - self.provider_ns) / 1e9,
            "gateway.llm_share": self.provider_ns / 1e9 / wall,
            "gateway.retries": tr.counts["gateway.retries"],
            "prompts.render_us": tr.mean_us("prompts.render"),
            "candidates.check_us": tr.mean_us("candidates.check"),
            "evaluator.evaluations": evaluations,
            "evaluator.cache_hit_ratio": tr.counts["evaluator.cache_hits"] / evaluations if evaluations else 0.0,
            "evaluator.evaluate_s.p50": quantile(tr.durations_s("evaluator.evaluate"), 0.5),
            "evaluator.evaluate_s.p99": quantile(tr.durations_s("evaluator.evaluate"), 0.99),
            "evaluator.children": tr.calls("evaluator.child"),
            "evaluator.child_s.p50": quantile(tr.durations_s("evaluator.child"), 0.5),
            "evaluator.child_s.p99": quantile(tr.durations_s("evaluator.child"), 0.99),
            "evaluator.revalidate_us": tr.mean_us("evaluator.revalidate"),
            "discovery.checkpoint_bytes": sum(p.stat().st_size for p in checkpoints.glob("*.json")),
        }
        for step in ("init_population", "make_offspring", "mutate_elites", "checkpoint"):
            out[f"discovery.{step}_s"] = tr.total_ns(f"discovery.{step}") / 1e9
        return out

    def startup_probe(self, env) -> float:
        """Median wall time of an evaluation child that runs 0 iterations."""
        source = self.workdir / "probe-source.py"
        source.write_text(self.rs.candidates.SEED_SOURCE)
        manifest = self.workdir / "probe-manifest.json"
        manifest.write_text(json.dumps({
            "id": "probe",
            "instance": self.train[0],
            "seed": 1,
            "source_path": str(source),
            "time_limit": 30.0,
            "iteration_limit": 0,
        }))
        walls = []
        for _ in range(STARTUP_PROBES):
            t0 = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-u", "-m", "routesmith.evalchild", str(manifest)],
                capture_output=True, env=env, timeout=120, check=False,
            )
            walls.append(time.perf_counter() - t0)
            if done.returncode != 0 or b'"type": "result"' not in done.stdout:
                raise RuntimeError(f"evalchild probe failed: {done.stderr.decode()[-500:]}")
        return median(walls)
