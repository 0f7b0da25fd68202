"""The destroy-order-repair-accept loop with safeguards around operators.

Each iteration clones the current solution into a reused spare, asks the
removal operator for customer ids (sanitized: deduplicated, invalid/unassigned
ids dropped, capped at ceil(n/2)), detaches them, asks the ordering operator
to sequence the unassigned set (sanitized to an exact permutation),
reinserts greedily, and applies a simulated-annealing acceptance rule.
Operator crashes abort the run with the best solution found so far.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ConfigError, InstanceError, OperatorProtocolError
from .model import Instance, Problem, Solution, remove_customers, validate
from .util import OBJECTIVE_EPS, int64_array, make_rng, plain_ints


@dataclass
class LnsConfig:
    """Search budget and annealing schedule.

    At least one of ``time_limit`` (seconds) / ``max_iterations`` must be
    set; when both are set the run stops at whichever is hit first and the
    annealing fraction follows the more advanced budget. Temperatures
    default to 0.05 / 1e-4 times the initial objective when left None.
    ``validate_mode``: "sampled" (every 1024th accepted candidate) or
    "full" (every accepted candidate).
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
        if self.validate_mode not in ("sampled", "full"):
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

    The rows are written as arrays, with the float expressions of
    ``Solution.from_tours([[1], [2], ...])``, whose arena bytes, tour count
    and objective terms they equal.
    """
    n = instance.num_customers
    dist = instance.dist
    arrive = 0.0 + dist[0, 1:]
    vrptw = instance.problem is Problem.VRPTW
    if vrptw:
        # _kernels.retime of a singleton: arrive if arrive > tws else tws
        tws = instance.tw_start[1:]
        start = np.where(arrive > tws, arrive, tws)
        late = start > instance.tw_end[1:]
        if late.any():
            bad = int(np.flatnonzero(late)[0]) + 1
            raise InstanceError(
                f"customer {bad} unreachable within its window even directly"
            )
    sol = Solution(instance)
    customers = np.arange(1, n + 1)
    sol._nodes[:, 0] = customers
    sol._lens[:] = 1
    sol._tdem[:] = instance.demand[1:]
    # _kernels.row_cost of a singleton: (0.0 + d(0, c)) + d(c, 0)
    sol._tcost[:] = arrive + dist[1:, 0]
    if vrptw:
        sol._estart[:, 0] = start
        sol._lstart[:, 0] = instance.tw_end[1:]
    sol._tour_of[1:] = customers - 1
    sol.n_tours = n
    sol._total_cost = float(sol._tcost[:n].sum())  # the prize penalty stays +0.0
    return sol


def sanitize_removal(ids, solution: Solution) -> list[int]:
    """Dedupe, drop invalid/unassigned ids, cap at ceil(n/2). Idempotent."""
    n = solution.instance.num_customers
    cap = (n + 1) // 2
    # indexing a memoryview gives a Python int, not a numpy scalar
    tour_of = memoryview(solution._tour_of)
    if plain_ints(ids):
        # the loop below on a list of ints: first occurrences of in-range,
        # assigned ids, capped
        return [c for c in dict.fromkeys(ids) if 0 < c <= n and tour_of[c] >= 0][:cap]
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
        if c < 1 or c > n or c in seen or tour_of[c] < 0:
            continue
        seen.add(c)
        out.append(c)
        if len(out) == cap:
            break
    return out


def sanitize_order(order, removed) -> np.ndarray:
    """Repair to an exact permutation of ``removed``: duplicates and
    extraneous ids dropped, missing ids appended ascending. Returns an
    int64 array. Idempotent.

    When ``removed`` is an ascending, duplicate-free int64 array (as
    ``run`` passes it), a list whose ``int()`` values, or an int64 array
    whose values, are already a permutation of it are copied into the
    result without a loop (a list in one conversion, ``int64_array``).
    """
    if isinstance(removed, np.ndarray):
        if type(order) is np.ndarray:
            arr = order.copy() if order.dtype == np.int64 else None
        else:
            arr = int64_array(order)
        if arr is not None and arr.shape == removed.shape:
            ranked = arr.copy()
            ranked.sort()
            # equal bytes: ``removed`` holds these int64 values, ascending
            if (ranked.tobytes() == removed.tobytes()
                    and not np.count_nonzero(ranked[1:] <= ranked[:-1])):
                return arr
    target = set(removed) if plain_ints(removed) else set(int(c) for c in removed)
    if plain_ints(order):
        # the loop below on a list of ints: first occurrences of targets
        out = list(filter(target.__contains__, dict.fromkeys(order)))
    else:
        try:
            iterator = iter(order)
        except TypeError:
            raise OperatorProtocolError(
                f"ordering operator returned non-iterable {type(order).__name__}"
            ) from None
        out = []
        seen: set[int] = set()
        for raw in iterator:
            try:
                c = int(raw)
            except (TypeError, ValueError):
                continue
            if c in target and c not in seen:
                seen.add(c)
                out.append(c)
    if len(out) != len(target):
        out.extend(sorted(target.difference(out)))
    return np.array(out, dtype=np.int64)


def greedy_reinsert(partial: Solution, order, commits_out: list | None = None) -> Solution:
    """Reinsert customers one by one at their locally optimal position.

    ``order`` must be a permutation of the partial solution's unassigned
    set; a 1-D int64 array is used as it is, anything else is converted
    once. The kernel checks the order and refuses any other one without
    writing, which raises OperatorProtocolError here. Of every position of
    every tour plus the open-new-tour option, the minimum finite delta
    wins, ties broken by (lower tour index, lower position); the compiled
    kernel skips only positions that a bound shows cannot win. PCVRP
    customers are committed only when their prize-adjusted delta is
    strictly negative.

    When ``commits_out`` is given it receives one (customer, tour, position)
    tuple per order entry as decided at commit time, with (-1, -1) for
    customers left unassigned.
    """
    inst = partial.instance
    if isinstance(order, np.ndarray) and order.dtype == np.int64 and order.ndim == 1:
        order_arr = np.ascontiguousarray(order)
    else:
        order_arr = np.asarray(list(order), dtype=np.int64)
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
        inst.coords,
        solution=partial,
    )
    if nt < 0:  # the kernel refused the order and wrote nothing
        raise OperatorProtocolError("order is not a permutation of the unassigned set")
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
    checks them bit for bit against the Python kernels and removal
    operators on ``warm_cases``, and its draws against numpy; otherwise the
    interpreted kernels run. Call it
    before any clock starts: a cold build takes a fraction of a second, a
    warm load a few milliseconds. Evaluation children pass ``build=False``
    so that they only ever load. Only the first call per process does work.
    """
    global _warmed
    if _warmed:
        return
    _kernels.load_compiled(build, warm_cases())
    _warmed = True


def warm_cases() -> list[tuple[Solution, list[int]]]:
    """The load-time check's cases: per variant, a 3-customer solution of
    tours [1] and [3, 2], and the ids [1, 2] to detach. Detaching 1 empties
    row 0 and moves row 1 into it; the string walks draw lengths and
    offsets in the two-customer tour."""
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
        cases.append((Solution.from_tours(inst, [[1], [3, 2]]), [1, 2]))
    return cases


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

    current = best = initial_solution(instance)
    # the run reuses three solutions. Nothing writes the current solution
    # while it is current, so the best one is pinned, not copied: an
    # improving candidate becomes current and best at once. Each candidate
    # is cloned into the spare, which is whichever of the three is neither
    # current nor best.
    pool = (current, Solution(instance), Solution(instance))
    spare = pool[1]
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

        candidate = current.clone(into=spare)
        try:
            raw_ids = ops.remove(instance, candidate, rng)
            ids = sanitize_removal(raw_ids, candidate)
            if ids:
                remove_customers(candidate, ids)
            removed = candidate._unassigned.nonzero()[0]
            if removed.size:
                raw_order = ops.order(instance, removed.tolist(), candidate, rng)
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
                best = current
                stats.best_objective = best.total_objective
                stats.improved_count += 1
                if config.record_trace:
                    stats.best_objective_trace.append(
                        (time.perf_counter() - started, stats.best_objective)
                    )
            spare = next(s for s in pool if s is not current and s is not best)

    stats.elapsed_seconds = time.perf_counter() - started
    if config.record_trace:
        stats.best_objective_trace.append((stats.elapsed_seconds, stats.best_objective))
    final_report = validate(best)
    if not final_report.feasible and stats.status == "completed":
        stats.status = "operator_failure"
        stats.error = f"best solution infeasible: {final_report.violations[0]}"
    return best, stats
