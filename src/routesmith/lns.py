"""The destroy-order-repair-accept loop with safeguards around operators.

Each iteration clones the current solution, asks the removal operator for
customer ids (sanitized: deduplicated, invalid/unassigned ids dropped,
capped at ceil(n/2)), detaches them, asks the ordering operator to sequence
the unassigned set (sanitized to an exact permutation), reinserts greedily,
and applies a simulated-annealing acceptance rule. Operator crashes abort
the run with the best solution found so far.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ConfigError, InstanceError, OperatorProtocolError
from .model import Instance, Problem, Solution, remove_customers, validate
from .util import OBJECTIVE_EPS, make_rng


@dataclass
class LnsConfig:
    """Search budget and annealing schedule.

    At least one of ``time_limit`` (seconds) / ``max_iterations`` must be
    set; when both are set the run stops at whichever is hit first and the
    annealing fraction follows the more advanced budget. Temperatures
    default to 0.05 / 1e-4 times the initial objective when left None.
    ``validate_mode``: "off", "sampled" (every 1024th accepted candidate),
    or "full" (every accepted candidate).
    """

    time_limit: float | None = None
    max_iterations: int | None = None
    seed: int = 0
    sa_initial_temp: float | None = None
    sa_final_temp: float | None = None
    record_trace: bool = False
    validate_mode: str = "sampled"

    def check(self) -> None:
        if self.time_limit is None and self.max_iterations is None:
            raise ConfigError("set time_limit and/or max_iterations")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ConfigError("time_limit must be positive")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ConfigError("max_iterations must be nonnegative")
        if (self.sa_initial_temp is None) != (self.sa_final_temp is None):
            raise ConfigError("set both annealing temperatures or neither")
        if self.sa_initial_temp is not None:
            if not (self.sa_initial_temp >= self.sa_final_temp > 0):
                raise ConfigError("need sa_initial_temp >= sa_final_temp > 0")
        if self.validate_mode not in ("off", "sampled", "full"):
            raise ConfigError(f"unknown validate_mode: {self.validate_mode}")


@dataclass
class RunStats:
    iterations: int = 0
    best_objective: float = math.inf
    best_objective_trace: list[tuple[float, float]] = field(default_factory=list)
    accepted_count: int = 0
    improved_count: int = 0
    elapsed_seconds: float = 0.0
    status: str = "completed"
    error: str | None = None


def initial_solution(instance: Instance) -> Solution:
    """One singleton tour per customer, for every variant.

    Feasible by construction: demands respect capacity and a direct drive
    reaches each VRPTW customer within its window (waiting if early);
    otherwise the instance itself is unservable and an error is raised.
    """
    if instance.problem is Problem.VRPTW:
        d0 = instance.dist[0, 1:]
        start = np.maximum(d0, instance.tw_start[1:])
        late = start > instance.tw_end[1:]
        if late.any():
            bad = int(np.flatnonzero(late)[0]) + 1
            raise InstanceError(
                f"customer {bad} unreachable within its window even directly"
            )
    return Solution.from_tours(
        instance, [[c] for c in range(1, instance.num_customers + 1)]
    )


def sanitize_removal(ids, solution: Solution) -> list[int]:
    """Dedupe, drop invalid/unassigned ids, cap at ceil(n/2). Idempotent."""
    n = solution.instance.num_customers
    cap = (n + 1) // 2
    try:
        iterator = iter(ids)
    except TypeError:
        raise OperatorProtocolError(
            f"removal operator returned non-iterable {type(ids).__name__}"
        ) from None
    out: list[int] = []
    seen: set[int] = set()
    for raw in iterator:
        try:
            c = int(raw)
        except (TypeError, ValueError):
            continue
        if c < 1 or c > n or c in seen or solution._tour_of[c] < 0:
            continue
        seen.add(c)
        out.append(c)
        if len(out) == cap:
            break
    return out


def sanitize_order(order, removed) -> list[int]:
    """Repair to an exact permutation of ``removed``: duplicates and
    extraneous ids dropped, missing ids appended ascending. Idempotent."""
    target = set(int(c) for c in removed)
    try:
        iterator = iter(order)
    except TypeError:
        raise OperatorProtocolError(
            f"ordering operator returned non-iterable {type(order).__name__}"
        ) from None
    out: list[int] = []
    seen: set[int] = set()
    for raw in iterator:
        try:
            c = int(raw)
        except (TypeError, ValueError):
            continue
        if c in target and c not in seen:
            seen.add(c)
            out.append(c)
    if len(seen) != len(target):
        out.extend(sorted(target - seen))
    return out


def greedy_reinsert(partial: Solution, order, commits_out: list | None = None) -> Solution:
    """Reinsert customers one by one at their locally optimal position.

    ``order`` must be a permutation of the partial solution's unassigned
    set. Every position of every tour plus the open-new-tour option is
    evaluated; the minimum finite delta wins, ties broken by (lower tour
    index, lower position). PCVRP customers are committed only when their
    prize-adjusted delta is strictly negative.

    When ``commits_out`` is given it receives one (customer, tour, position)
    tuple per order entry as decided at commit time, with (-1, -1) for
    customers left unassigned.
    """
    inst = partial.instance
    order_arr = np.asarray(list(order), dtype=np.int64)
    if order_arr.size != partial.num_unassigned or (
        order_arr.size and not np.array_equal(np.sort(order_arr), np.flatnonzero(partial._unassigned))
    ):
        raise OperatorProtocolError("order is not a permutation of the unassigned set")
    if order_arr.size == 0:
        return partial
    commits = np.empty((order_arr.size, 2), dtype=np.int64)
    nt, cost_delta, prize_delta = _kernels.greedy_insert(
        partial._nodes,
        partial._lens,
        partial._tdem,
        partial._tcost,
        partial._estart,
        partial._lstart,
        partial._tour_of,
        partial._unassigned,
        partial.n_tours,
        order_arr,
        inst.dist,
        inst.demand,
        inst.capacity,
        inst.service,
        inst.tw_start,
        inst.tw_end,
        inst.prize,
        inst.problem.code,
        commits,
    )
    partial.n_tours = int(nt)
    partial._total_cost += float(cost_delta)
    partial._prize_penalty -= float(prize_delta)
    if commits_out is not None:
        commits_out.extend(
            (int(c), int(t), int(p)) for c, (t, p) in zip(order_arr, commits)
        )
    return partial


def sa_temperature(t_initial: float, t_final: float, fraction: float) -> float:
    """Geometric decay from t_initial to t_final over the budget fraction."""
    f = min(max(fraction, 0.0), 1.0)
    return t_initial * (t_final / t_initial) ** f


def accept(current: Solution, candidate: Solution, fraction: float, rng,
           t_initial: float, t_final: float) -> Solution:
    """Keep the candidate if not worse (1e-9 tie tolerance); otherwise
    accept with probability exp(-delta/T) under the cooling schedule."""
    delta = candidate.total_objective - current.total_objective
    if delta <= OBJECTIVE_EPS:
        return candidate
    temp = sa_temperature(t_initial, t_final, fraction)
    if rng.random() < math.exp(-delta / temp):
        return candidate
    return current


_VALIDATE_SAMPLE = 1024
_warmed = False


def warm_kernels(build: bool = True) -> None:
    """Select the kernel backend once per process.

    ``_kernels.load_compiled`` loads the compiled kernels from the cache
    (compiling them first when ``build`` is set and they are missing) and
    checks them bit for bit against the Python kernels on a 3-customer
    instance per variant; otherwise the interpreted kernels run. Call it
    before any clock starts: a cold build takes a fraction of a second, a
    warm load a few milliseconds. Evaluation children pass ``build=False``
    so that they only ever load. Only the first call per process does work.
    """
    global _warmed
    if _warmed:
        return
    coords = [(0.5, 0.5), (0.25, 0.5), (0.75, 0.5), (0.5, 0.25)]
    cases = []
    for problem in (Problem.CVRP, Problem.VRPTW, Problem.PCVRP):
        inst = Instance(
            problem,
            coords,
            [0, 1, 1, 1],
            capacity=3,
            service=[0.0, 0.1, 0.1, 0.1],
            tw_start=[0.0] * 4,
            tw_end=[9.0] * 4,
            prize=[0.0, 0.05, 0.05, 0.05],
        )
        sol = initial_solution(inst)
        cases.append((
            (sol._nodes, sol._lens, sol._tdem, sol._tcost, sol._estart, sol._lstart,
             sol._tour_of, sol._unassigned, sol.n_tours),
            [1, 2],
            (inst.dist, inst.demand, inst.capacity, inst.service, inst.tw_start, inst.tw_end,
             inst.prize, problem.code),
        ))
    _kernels.load_compiled(build, cases)
    _warmed = True


def run(instance: Instance, ops, config: LnsConfig) -> tuple[Solution, RunStats]:
    """Run the full loop and return (best solution, stats).

    ``ops`` provides ``remove(instance, solution, rng) -> ids`` and
    ``order(instance, removed_ids, solution, rng) -> sequence``. Operator
    exceptions and protocol violations end the run with status
    "operator_failure", carrying the best solution found so far.
    """
    config.check()
    warm_kernels()
    rng = make_rng(config.seed)
    stats = RunStats()
    started = time.perf_counter()

    current = initial_solution(instance)
    best = current.clone()
    stats.best_objective = best.total_objective
    if config.record_trace:
        stats.best_objective_trace.append((0.0, stats.best_objective))

    init_obj = max(current.total_objective, 1e-12)
    t_initial = config.sa_initial_temp if config.sa_initial_temp is not None else 0.05 * init_obj
    t_final = config.sa_final_temp if config.sa_final_temp is not None else 1e-4 * init_obj

    validate_mode = config.validate_mode
    it = 0
    while True:
        elapsed = time.perf_counter() - started
        if config.time_limit is not None and elapsed >= config.time_limit:
            break
        if config.max_iterations is not None and it >= config.max_iterations:
            break

        fraction = 0.0
        if config.max_iterations is not None and config.max_iterations > 0:
            fraction = max(fraction, it / config.max_iterations)
        if config.time_limit is not None and config.time_limit > 0:
            fraction = max(fraction, elapsed / config.time_limit)

        candidate = current.clone()
        try:
            raw_ids = ops.remove(instance, candidate, rng)
            ids = sanitize_removal(raw_ids, candidate)
            if ids:
                remove_customers(candidate, ids)
            removed = np.flatnonzero(candidate._unassigned).tolist()
            if removed:
                raw_order = ops.order(instance, list(removed), candidate, rng)
                order = sanitize_order(raw_order, removed)
                greedy_reinsert(candidate, order)
        except Exception as exc:  # operator crash or protocol violation
            stats.status = "operator_failure"
            stats.error = f"{type(exc).__name__}: {exc}"
            break

        chosen = accept(current, candidate, fraction, rng, t_initial, t_final)
        it += 1
        stats.iterations = it
        if chosen is candidate:
            stats.accepted_count += 1
            if validate_mode == "full" or (
                validate_mode == "sampled" and stats.accepted_count % _VALIDATE_SAMPLE == 0
            ):
                report = validate(chosen)
                if not report.feasible:
                    stats.status = "operator_failure"
                    stats.error = f"accepted solution infeasible: {report.violations[0]}"
                    break
            current = chosen
            if current.total_objective < stats.best_objective - OBJECTIVE_EPS:
                best = current.clone()
                stats.best_objective = best.total_objective
                stats.improved_count += 1
                if config.record_trace:
                    stats.best_objective_trace.append(
                        (time.perf_counter() - started, stats.best_objective)
                    )

    stats.elapsed_seconds = time.perf_counter() - started
    if config.record_trace:
        stats.best_objective_trace.append((stats.elapsed_seconds, stats.best_objective))
    final_report = validate(best)
    if not final_report.feasible and stats.status == "completed":
        stats.status = "operator_failure"
        stats.error = f"best solution infeasible: {final_report.violations[0]}"
    return best, stats
