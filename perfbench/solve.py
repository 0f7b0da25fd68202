"""Solve workloads: the default n=500 instance of each variant, solved
repeatedly at a fixed iteration budget with the workload seed as the LNS
seed, so every solve in a run does identical work.

A solve is one ``lns.run`` call, timed from outside. Every solve's best
solution is checked from outside the loop (``model.validate``, a rebuild
through ``Solution.from_tours``) and must equal the first solve's bit for
bit, traced or not.
"""

from __future__ import annotations

import contextlib
import time
import types

import numpy as np

from gate import solution_problems
from tracing import Tracer, median, quantile

# workload -> (problem, removal operator, ordering operator, iteration budget)
VARIANTS = {
    "cvrp-n500": ("cvrp", "seed_random", "random", 1000),
    "vrptw-n500": ("vrptw", "string", "depot_distance_desc", 500),
    "pcvrp-n500": ("pcvrp", "string", "demand_desc", 400),
}
N = 500
TINY_N = 40
TINY_BUDGET = 40

# calls made directly by the body of lns.run, one level below the loop;
# their per-iteration times plus lns.self_us add up to lns.iter_us.mean
LOOP_CALLS = (
    ("model.clone", "model.clone_us"),
    ("operators.remove", "operators.remove_us"),
    ("lns.sanitize_removal", "lns.sanitize_removal_us"),
    ("lns.remove_customers", "model.remove_customers_us"),
    ("operators.order", "operators.order_us"),
    ("lns.sanitize_order", "lns.sanitize_order_us"),
    ("lns.greedy_reinsert", "lns.greedy_reinsert_us"),
    ("lns.accept", "lns.accept_us"),
    ("lns.validate", "model.validate_us"),
)

# spans lns.run calls on every iteration, and on every non-empty removal
PER_ITERATION = ("model.clone", "operators.remove", "lns.sanitize_removal", "lns.accept")
PER_REMOVAL = (
    "lns.remove_customers",
    "_kernels.remove_ids",
    "operators.order",
    "lns.sanitize_order",
    "lns.greedy_reinsert",
    "_kernels.greedy_insert",
)


class SolveWorkload:
    """Inputs, one timed solve, the correctness gate and the traced split."""

    def __init__(self, rs, name: str, seed: int, tiny: bool):
        problem, remove_label, order_label, budget = VARIANTS[name]
        self.rs = rs
        self.seed = seed
        self.budget = TINY_BUDGET if tiny else budget
        # default GenParams: the instance is fixed, the workload seed drives the search
        self.params = rs.instances.GenParams(
            problem=rs.model.Problem.parse(problem), n=TINY_N if tiny else N
        )
        self.instance = rs.instances.generate(self.params)
        pair = rs.operators.builtin_pair(remove_label, order_label)
        # a plain object, so the traced run can wrap the operator calls
        self.ops = types.SimpleNamespace(remove=pair.remove, order=pair.order)
        self.reference = None
        self.unassigned_share = None
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.layers: list[dict] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def unit(self, traced: bool) -> float:
        """One timed solve, checked; traced solves also yield the split."""
        tracer = self.tracer() if traced else None
        config = self.rs.lns.LnsConfig(max_iterations=self.budget, seed=self.seed)
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            best, stats = self.rs.lns.run(self.instance, self.ops, config)
            wall = time.perf_counter() - t0
        self.attempted += 1
        problems = self.check(best, stats)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if traced:
            self.traced_walls.append(wall)
            self.layers.append(self.layer_metrics(tracer, stats))
            self.problems.extend(self.trace_problems(tracer, stats))
        else:
            self.walls.append(wall)
        return wall

    def end_to_end(self) -> dict[str, float]:
        return {
            "iters_per_s": self.budget * len(self.walls) / sum(self.walls),
            "wall_s": median(self.walls),
            "final_objective": self.objective,
            "unassigned_share": self.unassigned_share,
        }

    def check(self, best, stats) -> list[str]:
        """Outside re-check of one solve; returns the problems found."""
        problems = []
        if stats.status != "completed":
            problems.append(f"status {stats.status}: {stats.error}")
        if stats.iterations != self.budget:
            problems.append(f"ran {stats.iterations} of {self.budget} iterations")
        problems.extend(solution_problems(self.rs.model, self.instance, best))
        if best.total_objective != stats.best_objective:
            problems.append("best objective disagrees with run stats")
        signature = (
            best.total_objective,
            tuple(tuple(t.customers) for t in best.tours),
            stats.accepted_count,
            stats.improved_count,
        )
        if self.reference is None:
            self.reference = signature
            self.unassigned_share = len(best.unassigned) / self.instance.num_customers
        elif signature != self.reference:
            problems.append("solve is not bit-identical to the first solve of this run")
        return problems

    @property
    def objective(self) -> float:
        return self.reference[0]

    # -- tracing -------------------------------------------------------------

    def tracer(self) -> Tracer:
        rs = self.rs
        tr = Tracer()
        snaps = tr.records["repair_batches"]

        def count_removed(_, args, kwargs, result, error):
            if error is None:
                tr.counts["operators.removed"] += len(result)

        def count_sanitized(_, args, kwargs, result, error):
            if error is None:
                tr.counts["sanitize.offered"] += len(args[0])
                tr.counts["sanitize.kept"] += len(result)
                tr.counts["sanitize.nonempty"] += bool(result)

        def snapshot(args, kwargs):
            # greedy_insert(nodes, lens, tdem, tcost, estart, lstart, tour_of,
            #               unassigned, n_tours, order, dist, demand, capacity, ...)
            return args[1].copy(), args[2].copy(), int(args[8]), args[0].shape

        def keep_snapshot(state, args, kwargs, result, error):
            if error is None and state is not None:
                snaps.append((*state, np.asarray(args[9]).copy(), np.asarray(args[18]).copy()))

        tr.wrap(rs.model.Solution, "clone", "model.clone")
        tr.wrap(self.ops, "remove", "operators.remove", after=count_removed)
        tr.wrap(self.ops, "order", "operators.order")
        tr.wrap(rs.lns, "sanitize_removal", "lns.sanitize_removal", after=count_sanitized)
        tr.wrap(rs.lns, "sanitize_order", "lns.sanitize_order")
        tr.wrap(rs.lns, "remove_customers", "lns.remove_customers")
        tr.wrap(rs.lns, "greedy_reinsert", "lns.greedy_reinsert")
        tr.wrap(rs.lns, "accept", "lns.accept")
        tr.wrap(rs.lns, "validate", "lns.validate")
        tr.wrap(rs.kernels, "greedy_insert", "_kernels.greedy_insert",
                before=snapshot, after=keep_snapshot)
        tr.wrap(rs.kernels, "remove_ids", "_kernels.remove_ids")
        return tr

    def slot_evals(self, snaps) -> tuple[int, int, int]:
        """Replay the recorded repair batches to count insertion positions.

        Computed, not measured: for each customer in order, every tour that
        passes the capacity and width tests contributes its length + 1
        positions, plus one for the open-new-tour option; the recorded
        commits then grow the tours exactly as the kernel did. Returns
        (positions scanned, customers offered, customers committed).
        """
        inst = self.instance
        demand = inst.demand
        cap = inst.capacity
        slots = offered = committed = 0
        for lens, tdem, nt, shape, order, commits in snaps:
            rows, width = shape
            lens = lens.astype(np.int64)
            tdem = tdem.astype(np.int64)
            for i, c in enumerate(order):
                dc = demand[c]
                live = slice(0, nt)
                ok = (tdem[live] + dc <= cap) & (lens[live] < width)
                slots += int((lens[live][ok] + 1).sum()) + (1 if nt < rows else 0)
                offered += 1
                t = int(commits[i, 0])
                if t < 0:
                    continue
                committed += 1
                if t == nt:
                    lens[t] = 1
                    tdem[t] = dc
                    nt += 1
                else:
                    lens[t] += 1
                    tdem[t] += dc
        return slots, offered, committed

    @staticmethod
    def trace_problems(tr: Tracer, stats) -> list[str]:
        """Wrappers that stopped seeing the calls they time.

        A call site that no longer looks a name up on its module (a renamed,
        rebound or inlined function) would otherwise read as 0 µs. Each span
        must see at least the calls ``lns.run`` is bound to make: one per
        iteration, one per non-empty removal (detach, order, repair and
        their kernels), and the final validation.
        """
        removals = tr.counts["sanitize.nonempty"]
        need = dict.fromkeys(PER_ITERATION, stats.iterations)
        need.update(dict.fromkeys(PER_REMOVAL, removals))
        need["lns.validate"] = 1
        problems = [f"trace: {name} not traced" for name in tr.missing]
        for span, calls in need.items():
            if tr.calls(span) < calls:
                problems.append(f"trace: {span} seen {tr.calls(span)} times, expected at least {calls}")
        return problems

    def layer_metrics(self, tr: Tracer, stats) -> dict[str, float]:
        """Per-iteration split of one traced solve."""
        starts = [t for t, _ in tr.spans.get("operators.remove", ())]
        out: dict[str, float] = {}
        if len(starts) < 2:
            return out
        lo, hi = starts[0], starts[-1]
        window_iters = len(starts) - 1
        iter_ns = [b - a for a, b in zip(starts, starts[1:])]
        iter_mean = (hi - lo) / window_iters / 1e3
        out["lns.iter_us.p50"] = quantile(iter_ns, 0.5) / 1e3
        out["lns.iter_us.p99"] = quantile(iter_ns, 0.99) / 1e3
        out["lns.iter_us.mean"] = iter_mean
        accounted = 0.0
        for span, metric in LOOP_CALLS:
            per_iter = tr.total_ns(span, lo, hi) / window_iters / 1e3
            out[metric] = per_iter
            accounted += per_iter
        out["lns.self_us"] = iter_mean - accounted
        out["_kernels.greedy_insert_us"] = tr.total_ns("_kernels.greedy_insert", lo, hi) / window_iters / 1e3
        out["_kernels.remove_ids_us"] = tr.total_ns("_kernels.remove_ids", lo, hi) / window_iters / 1e3

        iters = max(1, stats.iterations)
        slots, offered, committed = self.slot_evals(tr.records["repair_batches"])
        kernel_ns = tr.total_ns("_kernels.greedy_insert")
        reinserts = tr.calls("lns.greedy_reinsert")
        out["_kernels.slot_evals"] = slots / iters
        out["_kernels.ns_per_slot"] = kernel_ns / slots if slots else 0.0
        out["lns.reinsert_batch"] = offered / reinserts if reinserts else 0.0
        out["lns.reinsert_commit_ratio"] = committed / offered if offered else 0.0
        kept = tr.counts["sanitize.kept"]
        offered_ids = tr.counts["sanitize.offered"]
        out["lns.sanitize_drop_ratio"] = (offered_ids - kept) / offered_ids if offered_ids else 0.0
        out["lns.accept_ratio"] = stats.accepted_count / iters
        out["lns.improve_ratio"] = stats.improved_count / iters
        out["operators.removed_per_iter"] = tr.counts["operators.removed"] / iters
        out["model.validate_calls"] = tr.calls("lns.validate")
        return out
