"""Parity of the two greedy-reinsertion paths.

``_kernels.greedy_insert_numpy`` must make exactly the decisions of the
scalar reference ``_kernels.greedy_insert_scalar``: same mutated arrays,
same commits, same returned counts and sums, bit for bit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routesmith import _kernels, lns
from routesmith.cli import main as cli_main
from routesmith.instances import GenParams, generate, save
from routesmith.model import Instance, Problem, Solution, insertion_delta
from routesmith.operators import builtin_pair

VARIANTS = (Problem.CVRP, Problem.VRPTW, Problem.PCVRP)


def make_case(problem, n, seed, lattice, tight, max_demand, spare):
    """A partial solution and a reinsertion order, drawn from ``seed``.

    On a lattice, coordinates, service times, windows and prizes are
    multiples of 1/4: distances repeat and points coincide, so insertion
    costs tie, arrivals land exactly on window ends and PCVRP deltas are
    exactly 0. Tight windows reject most VRPTW slots; small prizes make
    PCVRP skip customers. Unit demands make the width bound equal the
    capacity (``max_demand + spare``), so full tours sit at the width bound.
    """
    rng = np.random.default_rng(seed)
    capacity = max_demand + spare
    m = n + 1

    def draw(size, top):
        if lattice:
            return rng.integers(0, 4 * top + 1, size=size) / 4.0
        return rng.random(size) * top

    coords = draw((m, 2), 0.75)
    demand = np.concatenate(([0], rng.integers(1, max_demand + 1, size=n)))
    service = np.concatenate(([0.0], draw(n, 0.25 if lattice else 0.05)))
    d0 = np.hypot(coords[1:, 0] - coords[0, 0], coords[1:, 1] - coords[0, 1])
    tw_start = np.concatenate(([0.0], draw(n, 1.5)))
    slack = draw(n, 0.05 if tight else 2.0)
    tw_end = np.concatenate(([10.0], np.maximum(d0, tw_start[1:]) + slack))
    prize = np.concatenate(([0.0], draw(n, 0.5)))
    inst = Instance(problem, coords, demand, capacity, service=service,
                    tw_start=tw_start, tw_end=tw_end, prize=prize)

    # consecutive chunks of a random permutation, within capacity and width
    served = rng.permutation(np.arange(1, m))[: rng.integers(0, n + 1)]
    tours, tour, load = [], [], 0
    for c in served.tolist():
        if tour and (load + demand[c] > capacity or len(tour) == inst.tour_width
                     or rng.random() < 0.2):
            tours.append(tour)
            tour, load = [], 0
        tour.append(c)
        load += int(demand[c])
    if tour:
        tours.append(tour)
    sol = Solution.from_tours(inst, tours)
    order = rng.permutation(np.flatnonzero(sol._unassigned)).astype(np.int64)
    return sol, order


def call(kernel, sol, order):
    """Run ``kernel`` on a copy of ``sol``; return every output it writes."""
    s = sol.clone()
    inst = s.instance
    commits = np.full((order.size, 2), 99, dtype=np.int64)
    result = kernel(
        s._nodes, s._lens, s._tdem, s._tcost, s._estart, s._lstart, s._tour_of,
        s._unassigned, s.n_tours, order, inst.dist, inst.demand, inst.capacity,
        inst.service, inst.tw_start, inst.tw_end, inst.prize, inst.problem.code, commits,
    )
    arrays = (s._nodes, s._lens, s._tdem, s._tcost, s._estart, s._lstart,
              s._tour_of, s._unassigned, commits)
    return [a.tobytes() for a in arrays], [np.float64(r).tobytes() for r in result]


case_args = st.tuples(
    st.sampled_from(VARIANTS),
    st.integers(1, 14),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.sampled_from((1, 1, 3)),
    st.integers(0, 7),
)


@settings(max_examples=300, deadline=None)
@given(case_args, st.integers(1, 64) | st.just(_kernels._BUILD_CHUNK))
def test_numpy_path_matches_scalar_kernel(args, chunk):
    """Small build chunks split the cache build across customer chunks."""
    sol, order = make_case(*args)
    with mock.patch.object(_kernels, "_BUILD_CHUNK", chunk):
        numpy_out = call(_kernels.greedy_insert_numpy, sol, order)
    assert numpy_out == call(_kernels.greedy_insert_scalar, sol, order)


def _features(sol, order):
    """Which hard cases the first customer of ``order`` exercises."""
    found = set()
    inst = sol.instance
    c = int(order[0])
    width = sol._nodes.shape[1]
    deltas = []
    for t in range(sol.n_tours):
        L = int(sol._lens[t])
        fits = sol._tdem[t] + inst.demand[c] <= inst.capacity
        if L >= width:
            found.add("tour at the width bound")
        for p in range(L + 1):
            d = insertion_delta(sol, c, t, p)
            deltas.append(d)
            if math.isinf(d) and fits and L < width:
                found.add("time window rejects a slot")
    finite = [d for d in deltas if not math.isinf(d)]
    if finite and finite.count(min(finite)) > 1:
        found.add("tied cheapest slots")
    arrays, _ = call(_kernels.greedy_insert_scalar, sol, order)
    commits = np.frombuffer(arrays[-1], dtype=np.int64).reshape(-1, 2)
    if (commits[:, 0] >= sol.n_tours).any():
        found.add("new tour opened")
    if inst.problem is Problem.PCVRP and (commits[:, 0] < 0).any():
        found.add("PCVRP customer skipped")
    return found


def test_generated_cases_cover_the_hard_cases():
    """The case generator reaches every case the parity test is meant for."""
    rng = np.random.default_rng(5)
    found = set()
    for i in range(300):
        problem = VARIANTS[i % 3]
        lattice, tight = bool(i % 2), bool((i // 2) % 2)
        max_demand = 1 if i % 4 < 3 else 3
        sol, order = make_case(problem, int(rng.integers(2, 15)), i, lattice, tight,
                               max_demand, int(rng.integers(0, 8)))
        if order.size:
            found |= _features(sol, order)
    assert found == {
        "tour at the width bound",
        "time window rejects a slot",
        "tied cheapest slots",
        "new tour opened",
        "PCVRP customer skipped",
    }


def _solve_signature(inst, pair, kernel, monkeypatch):
    monkeypatch.setattr(_kernels, "greedy_insert", kernel)
    best, stats = lns.run(inst, builtin_pair(*pair), lns.LnsConfig(max_iterations=30, seed=3))
    assert stats.status == "completed"
    return (
        best.total_objective.hex(),
        [t.customers for t in best.tours],
        stats.accepted_count,
        stats.improved_count,
    )


@pytest.mark.parametrize(
    "problem, pair",
    [
        (Problem.CVRP, ("seed_random", "random")),
        (Problem.VRPTW, ("string", "depot_distance_desc")),
        (Problem.PCVRP, ("string", "demand_desc")),
    ],
)
def test_seeded_runs_agree_on_every_path(problem, pair, monkeypatch):
    inst = generate(GenParams(problem=problem, n=500))
    selected_path = _kernels.greedy_insert
    numpy_calls = []
    numpy_path = _kernels.greedy_insert_numpy

    def counted(*args):
        numpy_calls.append(1)
        return numpy_path(*args)

    reference = _solve_signature(inst, pair, _kernels.greedy_insert_scalar, monkeypatch)
    forced = _solve_signature(inst, pair, numpy_path, monkeypatch)
    monkeypatch.setattr(_kernels, "greedy_insert_numpy", counted)
    selected = _solve_signature(inst, pair, selected_path, monkeypatch)
    assert forced == reference
    assert selected == reference
    if not _kernels.HAVE_NUMBA:
        assert numpy_calls, "n=500 batches should take the numpy path"


def test_cli_solve_output_is_identical_on_both_paths(tmp_path, monkeypatch):
    path = save(generate(GenParams(problem=Problem.VRPTW, n=200, seed=4)), tmp_path / "v.txt")
    outputs = []
    for kernel in (_kernels.greedy_insert_scalar, _kernels.greedy_insert_numpy):
        monkeypatch.setattr(_kernels, "greedy_insert", kernel)
        out = tmp_path / kernel.__name__
        rc = cli_main(["solve", "--instance", str(path), "--iterations", "40",
                       "--seed", "9", "--out", str(out)])
        assert rc == 0
        outputs.append((out / "solution.json").read_bytes())
    assert outputs[0] == outputs[1]
