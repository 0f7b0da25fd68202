"""Problem instances, routing solutions, objectives, and feasibility checks.

The three supported variants share one representation:

* CVRP: capacity per tour, every customer served exactly once.
* VRPTW: CVRP plus service times and time windows with waiting.
* PCVRP: capacity only; leaving a customer unserved forfeits its prize,
  which enters the (minimized) objective as a penalty term.

``Solution`` keeps its state in flat numpy arrays (padded tour rows plus
per-tour demand/cost caches and, for VRPTW, earliest/latest service-start
rows) so the kernels in ``_kernels`` can run directly on it.
Convenience views (``tours``, ``unassigned``) are materialized on access.

State arena. A solution owns one byte buffer, ``_arena``, and its arrays
(``_nodes``, ``_lens``, ``_tdem``, ``_tcost``, ``_estart``, ``_lstart``,
``_tour_of``, ``_unassigned``) are views into it at fixed offsets. The
layout is computed once per instance (``Instance._layout``): first the
per-tour and per-customer vectors (and, outside VRPTW, the unused 1 x 1
timing arrays), which fill one contiguous prefix, then the tour-row arrays
``_nodes`` and, on VRPTW, ``_estart``/``_lstart``, each ``(n, width)``.
Every array starts on an 8-byte boundary. The views do not own their data,
so numpy cannot resize them, and the solution keeps the compiled kernels'
argument block of their addresses (``_block``, built by ``_kernels`` at the
first compiled call). They are the solution's state: rebinding one of
these attributes is outside the contract, and a clone copies the arena,
not the attributes; a fresh clone starts without a block, and a clone into
another solution keeps that solution's block.

Live rows. Nothing reads a tour row at or past ``n_tours``, nor a slot at
or past ``_lens[t]`` of a live row: not the kernels (both backends), not
``validate``/``objective``, not the views. ``_kernels.remove_ids`` leaves
stale bytes there, and ``Solution.clone(into=...)`` copies only the first
``n_tours`` rows of the tour-row arrays, plus the whole vector prefix.
A fresh ``clone()`` copies the whole arena.

The depot. ``_tour_of[0]`` is -1 and ``_unassigned[0]`` is False in every
solution: each writer (``from_tours``, the kernels, ``insert_customer``)
writes only ids it has checked to lie in 1..n.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InputError, InstanceError, StructuralError
from .util import CACHE_TOL, plain_ints

INFEASIBLE = math.inf
TIME_EPS = 1e-9


class Problem(enum.Enum):
    CVRP = "cvrp"
    VRPTW = "vrptw"
    PCVRP = "pcvrp"

    @property
    def code(self) -> int:
        return _PROBLEM_CODES[self]

    @classmethod
    def parse(cls, text: str) -> "Problem":
        try:
            return cls(text.lower())
        except ValueError:
            raise InputError(f"unknown problem kind: {text!r}") from None


_PROBLEM_CODES = {Problem.CVRP: 0, Problem.VRPTW: 1, Problem.PCVRP: 2}


class Instance:
    """Immutable problem data. Node 0 is the depot; customers are 1..n.

    Distances are full-precision Euclidean values of ``coords`` computed
    once into a dense matrix; adjacency[i] lists all other nodes sorted
    ascending by distance from i (stable on ties). The matrix is exactly
    symmetric: d(i, j) and d(j, i) square the same coordinate differences
    up to sign. Being Euclidean, it satisfies the triangle inequality up to
    rounding. The compiled insertion scan relies on all three
    (``_kernels.c``): it reads d(c, prev) for d(prev, c), it bounds a PCVRP
    tour's insertion deltas from ``coords`` (the customer's gap to the
    tour's bounding box), and it stops a VRPTW tour's scan at the first
    arrival past the window, since with nonnegative service times arrivals
    only grow along a tour.
    """

    __slots__ = (
        "problem",
        "num_customers",
        "coords",
        "dist",
        "demand",
        "capacity",
        "service",
        "tw_start",
        "tw_end",
        "prize",
        "adjacency",
        "tour_width",
        "_layout",
    )

    def __init__(
        self,
        problem: Problem,
        coords,
        demand,
        capacity: int,
        service=None,
        tw_start=None,
        tw_end=None,
        prize=None,
    ):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2 or coords.shape[0] < 2:
            raise InstanceError("coords must be an (n+1, 2) array with n >= 1")
        m = coords.shape[0]
        demand = np.asarray(demand, dtype=np.int64)
        if demand.shape != (m,):
            raise InstanceError("demand must have one entry per node")
        if demand[0] != 0:
            raise InstanceError("depot demand must be 0")
        if capacity <= 0:
            raise InstanceError("capacity must be positive")
        if np.any(demand < 0) or np.any(demand > capacity):
            raise InstanceError("demands must lie in [0, capacity]")

        self.problem = problem
        self.num_customers = m - 1
        self.coords = coords
        self.demand = demand
        self.capacity = int(capacity)

        # sqrt(dx * dx + dy * dy) in place: at n=500 these temporaries
        # set a solver process's peak memory
        dx = coords[:, 0:1] - coords[:, 0:1].T
        dy = coords[:, 1:2] - coords[:, 1:2].T
        dx *= dx
        dy *= dy
        dx += dy
        del dy
        self.dist = np.sqrt(dx, out=dx)

        zeros = np.zeros(m, dtype=np.float64)
        if problem is Problem.VRPTW:
            self.service = np.asarray(service, dtype=np.float64)
            self.tw_start = np.asarray(tw_start, dtype=np.float64)
            self.tw_end = np.asarray(tw_end, dtype=np.float64)
            for name, arr in (("service", self.service), ("tw_start", self.tw_start), ("tw_end", self.tw_end)):
                if arr.shape != (m,):
                    raise InstanceError(f"{name} must have one entry per node")
            if np.any(self.tw_start[1:] > self.tw_end[1:]):
                raise InstanceError("tw_start must not exceed tw_end")
            if np.any(self.service < 0):
                raise InstanceError("service times must be nonnegative")
        else:
            self.service = zeros
            self.tw_start = zeros
            self.tw_end = np.full(m, np.inf)
        if problem is Problem.PCVRP:
            self.prize = np.asarray(prize, dtype=np.float64)
            if self.prize.shape != (m,):
                raise InstanceError("prize must have one entry per node")
            if np.any(self.prize < 0):
                raise InstanceError("prizes must be nonnegative")
        else:
            self.prize = zeros

        order = np.argsort(self.dist, axis=1, kind="stable")
        adj = np.empty((m, m - 1), dtype=np.int32)
        for i in range(m):
            row = order[i]
            adj[i] = row[row != i][: m - 1]
        self.adjacency = adj

        cust_demand = demand[1:]
        if cust_demand.size and cust_demand.min() >= 1:
            width = min(m - 1, self.capacity // int(cust_demand.min()))
        else:
            width = m - 1
        self.tour_width = max(1, width)

        # read-only views: numpy cannot resize a view, so a solution's
        # argument block may keep the addresses of these arrays (and a
        # caller's array passed in is frozen too)
        for name in ("coords", "dist", "demand", "service", "tw_start", "tw_end", "prize",
                     "adjacency"):
            arr = getattr(self, name)
            arr.flags.writeable = False
            setattr(self, name, arr.view())
        self._layout = _ArenaLayout(problem, m - 1, self.tour_width)

    def __repr__(self):
        return f"Instance({self.problem.value}, n={self.num_customers}, capacity={self.capacity})"


class _ArenaLayout:
    """Where a ``Solution``'s arrays live in its arena (see the module doc).

    ``fields`` lists (attribute, dtype, shape, byte offset). Bytes
    ``[0, whole)`` hold the vectors, copied whole by a clone; ``rows`` lists
    (byte offset, bytes per row) of each ``(n, width)`` tour-row array, of
    which a clone into a spare solution copies the first ``n_tours`` rows.
    """

    __slots__ = ("fields", "whole", "rows", "nbytes")

    def __init__(self, problem: Problem, n: int, width: int):
        m = n + 1
        timing = [("_estart", np.float64), ("_lstart", np.float64)]
        vectors = [("_tdem", np.int64, (n,)), ("_tcost", np.float64, (n,))]
        rows = [("_nodes", np.int32, (n, width))]
        if problem is Problem.VRPTW:
            rows += [(name, dtype, (n, width)) for name, dtype in timing]
        else:
            vectors += [(name, dtype, (1, 1)) for name, dtype in timing]
        vectors += [("_lens", np.int32, (n,)), ("_tour_of", np.int32, (m,)),
                    ("_unassigned", np.bool_, (m,))]
        self.fields = []
        offset = 0
        for name, dtype, shape in vectors + rows:
            offset = -(-offset // 8) * 8  # every array on an 8-byte boundary
            self.fields.append((name, dtype, shape, offset))
            offset += math.prod(shape) * np.dtype(dtype).itemsize
        self.nbytes = offset
        placed = {name: offset for name, _, _, offset in self.fields}
        self.whole = placed["_nodes"]  # the vectors end where the tour rows begin
        self.rows = [(placed[name], shape[1] * np.dtype(dtype).itemsize)
                     for name, dtype, shape in rows]


@dataclass
class Tour:
    """Snapshot view of one tour: depot legs are implicit at both ends."""

    customers: list[int]
    demand: int
    cost: float


@dataclass
class Violation:
    kind: str
    tour: int | None
    detail: str


@dataclass
class FeasibilityReport:
    feasible: bool
    violations: list[Violation] = field(default_factory=list)

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


class Solution:
    """Mutable routing state over a fixed instance (single-owner).

    Customers are either assigned to exactly one tour or tracked in the
    unassigned set; per-tour demand/cost and the total objective are cached
    and updated incrementally by every mutation.
    """

    __slots__ = (
        "instance",
        "_arena",
        "_nodes",
        "_lens",
        "_tdem",
        "_tcost",
        "_estart",
        "_lstart",
        "_tour_of",
        "_unassigned",
        "n_tours",
        "_total_cost",
        "_prize_penalty",
        "_block",
    )

    def __init__(self, instance: Instance):
        self.instance = instance
        self._bind(np.zeros(instance._layout.nbytes, dtype=np.uint8))
        self._tour_of.fill(-1)
        self.n_tours = 0
        self._total_cost = 0.0
        self._prize_penalty = 0.0

    def _bind(self, arena: np.ndarray) -> None:
        """Own ``arena`` and take the state arrays as views into it; the
        compiled kernels' argument block is built at their first call."""
        self._arena = arena
        self._block = None
        for name, dtype, shape, offset in self.instance._layout.fields:
            setattr(self, name, np.ndarray(shape, dtype, buffer=arena, offset=offset))

    @classmethod
    def empty(cls, instance: Instance) -> "Solution":
        """All customers unassigned (a maximally partial solution)."""
        sol = cls(instance)
        sol._unassigned[1:] = True
        sol._prize_penalty = float(instance.prize[1:].sum())
        return sol

    @classmethod
    def from_tours(cls, instance: Instance, tours, unassigned=None) -> "Solution":
        """Build a solution from explicit tour lists.

        Ids out of range raise; structural problems (duplicates, overlap
        with ``unassigned``) are representable and left for ``validate`` to
        report. When ``unassigned`` is None it defaults to the complement
        of the tour members.
        """
        sol = cls(instance)
        n = instance.num_customers
        width = instance.tour_width
        seen = np.zeros(n + 1, dtype=np.bool_)
        t = 0
        for tour in tours:
            tour = [int(c) for c in tour]
            if not tour:
                continue
            if len(tour) > width:
                raise InputError(f"tour longer than width bound {width}")
            for c in tour:
                if c < 1 or c > n:
                    raise InputError(f"customer id out of range: {c}")
                seen[c] = True
                sol._tour_of[c] = t
            L = len(tour)
            sol._nodes[t, :L] = tour
            sol._lens[t] = L
            sol._tdem[t] = int(instance.demand[tour].sum())
            sol._tcost[t] = _kernels.row_cost(sol._nodes, L, t, instance.dist)
            if instance.problem is Problem.VRPTW:
                _kernels.retime(sol._nodes, sol._lens, sol._estart, sol._lstart, t, instance.dist,
                                instance.service, instance.tw_start, instance.tw_end)
            t += 1
        sol.n_tours = t
        if unassigned is None:
            mask = ~seen
            mask[0] = False
        else:
            mask = np.zeros(n + 1, dtype=np.bool_)
            for c in unassigned:
                c = int(c)
                if c < 1 or c > n:
                    raise InputError(f"unassigned id out of range: {c}")
                mask[c] = True
        sol._unassigned[:] = mask
        sol._total_cost = float(sol._tcost[:t].sum())
        sol._prize_penalty = float(instance.prize[mask].sum())
        return sol

    def clone(self, into: "Solution | None" = None) -> "Solution":
        """A copy of this solution.

        A fresh copy duplicates the whole arena. With ``into`` (a solution
        of the same instance) the copy goes into that solution's arena, which
        is returned: only the live state is copied, the vectors whole and the
        first ``n_tours`` tour rows (see the module doc), so whatever ``into``
        held past them stays as stale bytes nothing reads.
        """
        if into is None:
            dup = Solution.__new__(Solution)
            dup.instance = self.instance
            dup._bind(self._arena.copy())
        else:
            if into.instance is not self.instance:
                raise InputError("clone into a solution of another instance")
            dup = into
            layout = self.instance._layout
            src, dst = self._arena, into._arena
            dst[: layout.whole] = src[: layout.whole]
            for offset, row_bytes in layout.rows:
                end = offset + self.n_tours * row_bytes
                dst[offset:end] = src[offset:end]
        dup.n_tours = self.n_tours
        dup._total_cost = self._total_cost
        dup._prize_penalty = self._prize_penalty
        return dup

    # -- views -----------------------------------------------------------

    @property
    def tours(self) -> list[Tour]:
        """Fresh snapshots of the tours: customers as a list of int, demand
        an int and cost a float (one ``tolist()`` per array, not a numpy
        scalar per value)."""
        nt = self.n_tours
        nodes = self._nodes
        return [
            Tour(nodes[t, :length].tolist(), demand, cost)
            for t, length, demand, cost in zip(
                range(nt), self._lens[:nt].tolist(), self._tdem[:nt].tolist(),
                self._tcost[:nt].tolist())
        ]

    @property
    def customer_to_tour(self) -> np.ndarray:
        """Read-only map: customer id -> tour index, -1 when unassigned."""
        view = self._tour_of.view()
        view.flags.writeable = False
        return view

    @property
    def unassigned(self) -> set[int]:
        return set(np.flatnonzero(self._unassigned).tolist())

    @property
    def num_unassigned(self) -> int:
        return int(self._unassigned.sum())

    @property
    def total_cost(self) -> float:
        """Cached travel cost (depot legs included)."""
        return self._total_cost

    @property
    def total_objective(self) -> float:
        """Cached objective: travel cost plus forfeited prizes (PCVRP)."""
        return self._total_cost + self._prize_penalty

    def tour_customers(self, t: int) -> list[int]:
        if t < 0 or t >= self.n_tours:
            raise InputError(f"tour index out of range: {t}")
        return self._nodes[t, : self._lens[t]].tolist()

    def assigned_ids(self) -> np.ndarray:
        """Ids currently assigned to some tour, ascending, as an int64 array
        (numpy's index type on 64-bit platforms). The depot's ``_tour_of``
        entry is always -1, so the scan may start at index 0."""
        return (self._tour_of >= 0).nonzero()[0]

    def position_of(self, customer: int) -> tuple[int, int]:
        """(tour index, position) of an assigned customer."""
        t = int(self._tour_of[customer])
        if t < 0:
            raise InputError(f"customer {customer} is not assigned")
        row = self._nodes[t, : self._lens[t]]
        p = int(np.nonzero(row == customer)[0][0])
        return t, p

    def __repr__(self):
        return (
            f"Solution(tours={self.n_tours}, objective={self.total_objective:.6f}, "
            f"unassigned={self.num_unassigned})"
        )


# -- operations ------------------------------------------------------------


def objective(solution: Solution) -> float:
    """Recompute the objective from scratch (structural-consistency check).

    Raises StructuralError when the customer-to-tour map disagrees with the
    tours themselves or a customer is both assigned and unassigned.
    """
    inst = solution.instance
    n = inst.num_customers
    seen = np.zeros(n + 1, dtype=np.int32)
    total = 0.0
    for t in range(solution.n_tours):
        L = int(solution._lens[t])
        row = solution._nodes[t, :L]
        for c in row:
            seen[c] += 1
            if solution._tour_of[c] != t:
                raise StructuralError(f"customer {int(c)} maps to tour {int(solution._tour_of[c])}, found in {t}")
        total += _kernels.row_cost(solution._nodes, L, t, inst.dist)
    for c in range(1, n + 1):
        if seen[c] > 1:
            raise StructuralError(f"customer {c} appears {int(seen[c])} times")
        if seen[c] == 1 and solution._unassigned[c]:
            raise StructuralError(f"customer {c} is assigned and marked unassigned")
        if seen[c] == 0 and not solution._unassigned[c]:
            raise StructuralError(f"customer {c} is neither assigned nor unassigned")
    return total + float(inst.prize[solution._unassigned].sum())


def validate(solution: Solution) -> FeasibilityReport:
    """Exact feasibility check per variant; violations are data, not errors.

    CVRP: per-tour capacity, every customer exactly once. VRPTW: CVRP rules
    plus a forward time simulation with waiting. PCVRP: capacity only,
    unassigned customers permitted. Cache drift beyond 1e-6 is reported.
    """
    inst = solution.instance
    n = inst.num_customers
    violations: list[Violation] = []
    seen = np.zeros(n + 1, dtype=np.int32)
    recomputed_total = 0.0

    for t in range(solution.n_tours):
        L = int(solution._lens[t])
        row = solution._nodes[t, :L]
        for c in row:
            seen[c] += 1
            if solution._tour_of[c] != t:
                violations.append(Violation("mapping", t, f"customer {int(c)} maps to {int(solution._tour_of[c])}"))
        dem = int(inst.demand[row].sum())
        if dem > inst.capacity:
            violations.append(Violation("capacity", t, f"demand {dem} > capacity {inst.capacity}"))
        if dem != int(solution._tdem[t]):
            violations.append(Violation("cache_drift", t, f"cached demand {int(solution._tdem[t])} != {dem}"))
        cost = _kernels.row_cost(solution._nodes, L, t, inst.dist)
        recomputed_total += cost
        if abs(cost - float(solution._tcost[t])) > CACHE_TOL:
            violations.append(Violation("cache_drift", t, f"cached cost {solution._tcost[t]!r} != {cost!r}"))
        if inst.problem is Problem.VRPTW:
            depart = 0.0
            prev = 0
            for c in row:
                arrive = depart + inst.dist[prev, c]
                start = max(arrive, inst.tw_start[c])
                if start > inst.tw_end[c] + TIME_EPS:
                    violations.append(
                        Violation("time_window", t, f"customer {int(c)} starts {start:.9f} > {inst.tw_end[c]:.9f}")
                    )
                depart = start + inst.service[c]
                prev = c

    for c in range(1, n + 1):
        if seen[c] > 1:
            violations.append(Violation("duplicate", None, f"customer {c} appears {int(seen[c])} times"))
        elif seen[c] == 1 and solution._unassigned[c]:
            violations.append(Violation("duplicate", None, f"customer {c} assigned and unassigned"))
        elif seen[c] == 0:
            if not solution._unassigned[c]:
                violations.append(Violation("mapping", None, f"customer {c} lost (not unassigned)"))
            elif inst.problem is not Problem.PCVRP:
                violations.append(Violation("missing", None, f"customer {c} not served"))

    recomputed = recomputed_total + float(inst.prize[solution._unassigned].sum())
    if abs(recomputed - solution.total_objective) > CACHE_TOL:
        violations.append(
            Violation("cache_drift", None, f"cached objective {solution.total_objective!r} != {recomputed!r}")
        )
    return FeasibilityReport(feasible=not violations, violations=violations)


def _coerce_ids(ids, n: int) -> list[int]:
    if plain_ints(ids):
        # the loop below on a list of ints: first occurrences, the first
        # id out of range raises
        out = list(dict.fromkeys(ids))
        if out and (min(out) < 1 or max(out) > n):
            c = next(c for c in out if c < 1 or c > n)
            raise InputError(f"customer id out of range: {c}")
        return out
    out = []
    seen = set()
    for raw in ids:
        c = int(raw)
        if c < 1 or c > n:
            raise InputError(f"customer id out of range: {c}")
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def remove_customers(solution: Solution, ids) -> Solution:
    """Detach the given customers in place; they join the unassigned set.

    Duplicates are deduplicated and already-unassigned ids are no-ops.
    Tours left empty are deleted (the last tour row is swapped into the
    hole, so tour indices are stable except for that swap).
    """
    inst = solution.instance
    arr = np.array(_coerce_ids(ids, inst.num_customers), dtype=np.int64)
    if not arr.size:
        return solution
    pcvrp = inst.problem is Problem.PCVRP
    if pcvrp:
        # the prizes of the ids detached here; the kernel itself skips an
        # unassigned id, so elsewhere no filter is needed
        detached = arr[solution._tour_of[arr] >= 0]
    nt, cost_delta = _kernels.remove_ids(
        solution._nodes,
        solution._lens,
        solution._tdem,
        solution._tcost,
        solution._estart,
        solution._lstart,
        solution._tour_of,
        solution._unassigned,
        solution.n_tours,
        arr,
        inst.dist,
        inst.demand,
        inst.service,
        inst.tw_start,
        inst.tw_end,
        inst.problem is Problem.VRPTW,
        solution=solution,
    )
    solution.n_tours = int(nt)
    solution._total_cost += float(cost_delta)
    if pcvrp:
        # elsewhere every prize is 0 and the penalty stays +0.0
        solution._prize_penalty += float(inst.prize[detached].sum())
    return solution


def insertion_delta(solution: Solution, customer: int, tour_index: int, position: int) -> float:
    """Objective increase of splicing ``customer`` at the given slot.

    ``tour_index == solution.n_tours`` denotes opening a new tour (position
    must be 0). Returns ``INFEASIBLE`` (math.inf) when capacity or any
    downstream time window would be violated, when the tour is at the width
    bound, or, for a new tour, when every tour row is in use. For PCVRP the
    customer's prize is subtracted (serving recoups the forfeited prize).

    The delta is priced by ``_kernels.cheapest_slot``, the slot rule that
    greedy reinsertion scans (a new tour as an empty one), so it agrees
    with ``_kernels.greedy_insert`` bit for bit.
    """
    inst = solution.instance
    n = inst.num_customers
    if customer < 1 or customer > n:
        raise InputError(f"customer id out of range: {customer}")
    if not solution._unassigned[customer]:
        raise InputError(f"customer {customer} is not unassigned")
    nt = solution.n_tours
    if tour_index < 0 or tour_index > nt:
        raise InputError(f"tour index out of range: {tour_index}")
    if tour_index == nt:
        if position != 0:
            raise InputError("new-tour insertion requires position 0")
        if nt >= solution._nodes.shape[0]:
            return INFEASIBLE
        length = load = 0
    else:
        length = int(solution._lens[tour_index])
        load = solution._tdem[tour_index]
        if position < 0 or position > length:
            raise InputError(f"position out of range: {position}")
    delta, _ = _kernels.cheapest_slot(
        solution._nodes, solution._estart, solution._lstart, tour_index, length, load,
        position, position, customer, inst.demand[customer], inst.prize[customer], inst.dist,
        inst.capacity, inst.service, inst.tw_start, inst.tw_end, inst.problem is Problem.VRPTW,
    )
    return float(delta)


def insert_customer(solution: Solution, customer: int, tour_index: int, position: int) -> float:
    """Commit an insertion and return its delta; raises if infeasible."""
    delta = insertion_delta(solution, customer, tour_index, position)
    if math.isinf(delta):
        raise InputError(
            f"infeasible insertion of {customer} at tour {tour_index}, position {position}"
        )
    inst = solution.instance
    prz = float(inst.prize[customer])
    raw = delta + prz
    solution.n_tours = int(_kernels.commit(
        solution._nodes, solution._lens, solution._tdem, solution._tcost, solution._estart,
        solution._lstart, solution._tour_of, solution._unassigned, solution.n_tours,
        customer, tour_index, position, raw, inst.dist, inst.demand, inst.service,
        inst.tw_start, inst.tw_end, inst.problem is Problem.VRPTW,
    ))
    solution._total_cost += raw
    solution._prize_penalty -= prz
    return delta
