"""Parity of the greedy-reinsertion backends and the insertion primitives.

The compiled kernels of ``_kernels.c``, and whichever kernel
``_kernels.greedy_insert`` selects, must make exactly the decisions of the
scalar references ``_kernels.greedy_insert_scalar`` and
``_kernels.remove_ids_scalar``: same mutated arrays, same commits, same
returned counts and sums, bit for bit. The compiled reinsertion scan is
pruned and the scalar one is not, so parity also holds on cases built on
the edges of its bounds. The compiled draws must equal numpy's, and the
load-time check of the compiled removal operators must reach the edges of
their walks and picks. The public primitives
``model.insertion_delta`` and ``model.insert_customer`` must choose and
commit a customer exactly as one step of the scalar kernel.
"""

import gc
import math
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routesmith import _kernels, lns
from routesmith.cli import main as cli_main
from routesmith.errors import InputError, InstanceError
from routesmith.instances import GenParams, generate, save
from routesmith.model import (Instance, Problem, Solution, insert_customer, insertion_delta,
                              remove_customers)
from routesmith import operators
from routesmith.operators import StringRemovalParams, builtin_pair

VARIANTS = (Problem.CVRP, Problem.VRPTW, Problem.PCVRP)


def make_case(problem, n, seed, lattice, tight, max_demand, spare, scale=1.0, rich=False):
    """A partial solution and a reinsertion order, drawn from ``seed``.

    On a lattice, coordinates, service times, windows and prizes are
    multiples of 1/4: distances repeat and points coincide, so insertion
    costs tie, arrivals land exactly on window ends and PCVRP deltas are
    exactly 0. Tight windows reject most VRPTW slots; small prizes make
    PCVRP skip customers. Unit demands make the width bound equal the
    capacity (``max_demand + spare``), so full tours sit at the width bound.
    ``scale`` multiplies every coordinate, time and prize. ``rich`` prizes,
    four times larger, make most PCVRP customers worth serving, so the
    best delta of a customer's scan often falls below 0.
    """
    rng = np.random.default_rng(seed)
    capacity = max_demand + spare
    m = n + 1

    def draw(size, top):
        if lattice:
            return rng.integers(0, 4 * top + 1, size=size) / 4.0 * scale
        return rng.random(size) * top * scale

    coords = draw((m, 2), 0.75)
    demand = np.concatenate(([0], rng.integers(1, max_demand + 1, size=n)))
    service = np.concatenate(([0.0], draw(n, 0.25 if lattice else 0.05)))
    d0 = np.hypot(coords[1:, 0] - coords[0, 0], coords[1:, 1] - coords[0, 1])
    tw_start = np.concatenate(([0.0], draw(n, 1.5)))
    slack = draw(n, 0.05 if tight else 2.0)
    tw_end = np.concatenate(([10.0 * scale], np.maximum(d0, tw_start[1:]) + slack))
    prize = np.concatenate(([0.0], draw(n, 2.0 if rich else 0.5)))
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


def needs_c():
    if _kernels.BACKEND != "c":
        pytest.skip(f"no compiled kernels: {_kernels.BACKEND_REASON}")


def test_compiled_kernels_run_wherever_there_is_a_compiler():
    """The tests of the C kernels skip without them, so a build or a
    self-check that fails must not pass unnoticed."""
    if shutil.which(_kernels.COMPILER) is None:
        pytest.skip(f"no C compiler {_kernels.COMPILER!r}")
    assert _kernels.BACKEND == "c", _kernels.BACKEND_REASON


def test_kernel_source_builds_without_warnings(tmp_path):
    """``_kernels.c`` compiles clean under strict warnings with the build's
    own flags, implicit narrowing and sign conversions included."""
    cc = shutil.which(_kernels.COMPILER)
    if cc is None:
        pytest.skip(f"no C compiler {_kernels.COMPILER!r}")
    done = subprocess.run(
        [cc, *_kernels.CFLAGS, "-Wall", "-Wextra", "-Wconversion", "-Werror",
         "-o", str(tmp_path / "kernels.so"), str(_kernels._SOURCE)],
        capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr


def keep_backend(monkeypatch):
    """Restore the selected backend when the test ends; until then,
    ``lns.warm_kernels`` selects again."""
    for name in ("BACKEND", "BACKEND_REASON", "_compiled"):
        monkeypatch.setattr(_kernels, name, getattr(_kernels, name))
    monkeypatch.setattr(lns, "_warmed", False)


def call(kernel, sol, order):
    """Run ``kernel`` on a copy of ``sol``; return every output it writes."""
    s = sol.clone()
    inst = s.instance
    commits = np.full((order.size, 2), 99, dtype=np.int64)
    result = kernel(
        s._nodes, s._lens, s._tdem, s._tcost, s._estart, s._lstart, s._tour_of,
        s._unassigned, s.n_tours, order, inst.dist, inst.demand, inst.capacity,
        inst.service, inst.tw_start, inst.tw_end, inst.prize, inst.problem.code, commits,
        inst.coords,
    )
    arrays = (s._nodes, s._lens, s._tdem, s._tcost, s._estart, s._lstart,
              s._tour_of, s._unassigned, commits)
    return [a.tobytes() for a in arrays], [np.float64(r).tobytes() for r in result]


def call_remove(kernel, sol, ids):
    """Run a ``remove_ids`` kernel on a copy of ``sol``; return every output."""
    s = sol.clone()
    inst = s.instance
    result = kernel(
        s._nodes, s._lens, s._tdem, s._tcost, s._estart, s._lstart, s._tour_of,
        s._unassigned, s.n_tours, ids, inst.dist, inst.demand, inst.service, inst.tw_start,
        inst.tw_end, inst.problem is Problem.VRPTW,
    )
    arrays = (s._nodes, s._lens, s._tdem, s._tcost, s._estart, s._lstart,
              s._tour_of, s._unassigned)
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
@given(case_args, st.integers(0, 2**32 - 1), st.booleans())
def test_compiled_kernels_match_scalar_kernels(args, seed, rich):
    """Detach draws ids from every customer, so already unassigned ones
    are skipped, and emptied tours are swap-deleted."""
    needs_c()
    sol, order = make_case(*args, rich=rich)
    assert call(_kernels.greedy_insert, sol, order) == call(
        _kernels.greedy_insert_scalar, sol, order)
    rng = np.random.default_rng(seed)
    n = sol.instance.num_customers
    ids = rng.permutation(np.arange(1, n + 1))[: rng.integers(0, n + 1)]
    assert call_remove(_kernels.remove_ids, sol, ids) == call_remove(
        _kernels.remove_ids_scalar, sol, ids)


def slot_values(sol, c, t, p):
    """(delta before the prize, VRPTW arrival) of customer c at slot p of
    tour t (t == n_tours: a new tour), with the float expressions of the
    scan."""
    inst = sol.instance
    dist = inst.dist
    prev = nxt = 0
    depart = 0.0
    if t < sol.n_tours:
        L = int(sol._lens[t])
        prev = int(sol._nodes[t, p - 1]) if p > 0 else 0
        nxt = int(sol._nodes[t, p]) if p < L else 0
        if p > 0 and inst.problem is Problem.VRPTW:
            depart = sol._estart[t, p - 1] + inst.service[prev]
    return dist[prev, c] + dist[c, nxt] - dist[prev, nxt], depart + dist[prev, c]


def tightened(sol, order, seed):
    """``sol`` on a copy of its instance where each customer of ``order``
    sits exactly on a decision edge at one slot: a PCVRP prize equal to the
    slot's delta (the delta is then exactly 0), or a VRPTW window ending
    exactly at the slot's arrival; some are moved one ulp either way."""
    inst = sol.instance
    rng = np.random.default_rng(seed)
    prize, tws, twe = inst.prize.copy(), inst.tw_start.copy(), inst.tw_end.copy()
    for c in order.tolist():
        t = int(rng.integers(sol.n_tours + 1))
        p = int(rng.integers(int(sol._lens[t]) + 1)) if t < sol.n_tours else 0
        delta, arrival = slot_values(sol, c, t, p)
        nudge = rng.choice((-np.inf, np.inf, 0.0, 0.0))
        if inst.problem is Problem.PCVRP and delta >= 0.0:
            prize[c] = max(np.nextafter(delta, nudge), 0.0) if nudge else delta
        elif inst.problem is Problem.VRPTW:
            twe[c] = np.nextafter(arrival, nudge) if nudge else arrival
            tws[c] = min(tws[c], twe[c])
    tight = Instance(inst.problem, inst.coords, inst.demand, inst.capacity, service=inst.service,
                     tw_start=tws, tw_end=twe, prize=prize)
    tours = [sol.tour_customers(t) for t in range(sol.n_tours)]
    return Solution.from_tours(tight, tours, unassigned=order.tolist())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((Problem.VRPTW, Problem.PCVRP)), st.integers(1, 14),
       st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.sampled_from((1, 1, 3)),
       st.integers(0, 7), st.sampled_from((1.0, 1e4, 1e-4)))
def test_pruned_scan_matches_on_the_decision_edges(problem, n, seed, lattice, tight,
                                                   max_demand, spare, scale):
    """The compiled scan skips PCVRP tours by a bound and stops VRPTW tours
    at a late arrival; it makes the scalar kernel's decisions where deltas
    are exactly 0 (prize equal to a slot's delta) or a hair either side,
    where windows end exactly at an arrival or a hair either side, and with
    coordinates scaled by 1e4 or 1e-4."""
    needs_c()
    sol, order = make_case(problem, n, seed, lattice, tight, max_demand, spare, scale)
    sol = tightened(sol, order, seed)
    assert call(_kernels.greedy_insert, sol, order) == call(
        _kernels.greedy_insert_scalar, sol, order)


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e-4])
@pytest.mark.parametrize("side", [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)])
def test_pcvrp_bound_is_tight_where_it_should_be(scale, side):
    """Where the tour's bound is exact, a tour that wins by one ulp is not
    skipped. Tour 0 holds one customer on top of the depot (its longest edge
    is 0), and customer 2 lies off the depot along an axis, so the bound of
    tour 0 is the delta of each of its slots, which a new tour costs too:
    with a prize one ulp above that delta customer 2 joins tour 0; at the
    delta and one ulp below it stays out. Off a diagonal the bound is loose."""
    needs_c()
    depot = np.array([0.3, 0.7]) * scale
    coords = [depot, depot, depot + 0.15 * scale * np.array(side)]
    dist = Instance(Problem.PCVRP, coords, [0, 1, 1], 5, prize=[0.0] * 3).dist
    delta = dist[0, 2] + dist[2, 1] - dist[0, 1]
    for prize, expected in ((np.nextafter(delta, np.inf), 0), (delta, -1),
                            (np.nextafter(delta, 0.0), -1)):
        inst = Instance(Problem.PCVRP, coords, [0, 1, 1], 5, prize=[0.0, 1.0, prize])
        sol = Solution.from_tours(inst, [[1]], unassigned=[2])
        order = np.array([2], dtype=np.int64)
        out = call(_kernels.greedy_insert, sol, order)
        assert out == call(_kernels.greedy_insert_scalar, sol, order)
        assert np.frombuffer(out[0][-1], dtype=np.int64)[0] == expected


def test_decision_edges_are_reached():
    """The cases above commit a PCVRP customer whose delta is exactly 0
    only after others, skip ones at exactly 0, and fit a VRPTW customer
    whose window ends exactly at its arrival."""
    found = set()
    for seed in range(200):
        for problem in (Problem.VRPTW, Problem.PCVRP):
            sol, order = make_case(problem, 6, seed, False, False, 1, 3)
            if not order.size:
                continue
            sol = tightened(sol, order, seed)
            c = int(order[0])
            inst = sol.instance
            arrays, _ = call(_kernels.greedy_insert_scalar, sol, order)
            t, p = np.frombuffer(arrays[-1], dtype=np.int64)[:2].tolist()
            for u in range(sol.n_tours + 1):
                for q in range(int(sol._lens[u]) + 1 if u < sol.n_tours else 1):
                    delta, arrival = slot_values(sol, c, u, q)
                    if problem is Problem.PCVRP and delta - inst.prize[c] == 0.0:
                        found.add("PCVRP delta exactly 0")
                    if (problem is Problem.VRPTW and arrival == inst.tw_end[c]
                            and (u, q) == (t, p)):
                        found.add("VRPTW commit arriving at the window end")
    assert found == {"PCVRP delta exactly 0", "VRPTW commit arriving at the window end"}


def traced_walk(inst, sol, rng, params, found):
    """``string_remove``'s walk, adding to ``found`` the edges it meets."""
    assigned = sol.assigned_ids()
    target = int(rng.integers(max(1, params.avg_removed // 2), params.avg_removed * 2))
    seed = int(assigned[int(rng.integers(assigned.size))])
    removed, hit = [], set()
    for c in [seed] + inst.adjacency[seed].tolist():
        t = int(sol._tour_of[c])
        if t < 0 or t in hit:
            continue
        tour = sol.tour_customers(t)
        span = min(params.max_string_len, len(tour))
        length = int(rng.integers(1, span + 1))
        if span > 1:
            found.add("length drawn")
        if length > 1:
            found.add("offset drawn")
        pos = tour.index(c)
        lo = max(0, min(pos - int(rng.integers(length)), len(tour) - length))
        removed += tour[lo : lo + length]
        hit.add(t)
        if len(hit) >= params.max_strings or len(removed) >= target:
            found.add("ends on the string count" if len(removed) < target
                      else "ends on the target")
            return removed
    found.add("walks every node")
    return removed


def traced_pick(sol, rng, found):
    """``seed_random_remove`` as Floyd's algorithm and a shuffle, adding
    to ``found`` an index drawn twice."""
    assigned = sol.assigned_ids().tolist()
    pop = len(assigned)
    k = min(int(rng.integers(10, 21)), pop)
    picked = []
    for j in range(pop - k, pop):
        v = int(rng.integers(j + 1)) if j else 0
        if v in picked:
            found.add("an index drawn twice")
            v = j
        picked.append(v)
    for i in range(k - 1, 0, -1):
        j = int(rng.integers(i + 1))
        picked[i], picked[j] = picked[j], picked[i]
    return [assigned[v] for v in picked]


def test_removal_checks_reach_their_edges():
    """The load-time check's removals (``_kernels._removals``) draw string
    lengths and offsets from more than one value, end walks at the walk's
    end, on the removal target and on the string count, and meet an index
    that Floyd's algorithm draws twice. The traced copies here make the
    same draws as the Python operators."""
    found = set()
    walks = _kernels._WALK_CHECKS
    for i, (sol, _) in enumerate(lns.warm_cases()):
        inst = sol.instance
        rng = np.random.Generator(np.random.PCG64(_kernels._REMOVAL_SEED))
        ref = np.random.Generator(np.random.PCG64(_kernels._REMOVAL_SEED))
        params = StringRemovalParams(*walks[i % len(walks)])
        assert traced_walk(inst, sol, rng, params, found) == operators._string_walk(
            inst, sol, ref, params)
        assert traced_pick(sol, rng, found) == operators._uniform_pick(inst, sol, ref)
        assert rng.bit_generator.state == ref.bit_generator.state
    assert found == {"length drawn", "offset drawn", "walks every node", "ends on the target",
                     "ends on the string count", "an index drawn twice"}


def test_instances_refuse_negative_service():
    """The VRPTW scan stops at a late arrival because arrivals only grow
    along a tour, which needs service times of at least 0."""
    with pytest.raises(InstanceError, match="service"):
        Instance(Problem.VRPTW, [(0, 0), (1, 0)], [0, 1], 1, service=[0.0, -0.1],
                 tw_start=[0.0, 0.0], tw_end=[9.0, 9.0])


# spans of integers(lo, lo + span): one value, small ones, ones where numpy
# rejects about half of its 32-bit draws, the widest compiled span, and
# wider ones, which numpy draws itself
SPANS = st.one_of(st.sampled_from((1, 2, 3, 10, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**40)),
                  st.integers(1, 2**32 - 1))
DRAW = st.one_of(
    st.tuples(st.just("integers"), st.integers(-(2**63), 2**63 - 1), SPANS),
    st.tuples(st.sampled_from(("random", "shuffle", "choice", "uint32")), st.just(0), st.just(1)),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(DRAW, max_size=40))
def test_compiled_draws_match_numpy(seed, draws):
    """``_kernels.integers`` equals ``int(rng.integers(lo, hi))`` and leaves
    the generator where numpy leaves it, between numpy's own draws (which
    share its buffered 32-bit half)."""
    needs_c()
    assert _kernels._compiled.integers is not None
    mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for kind, lo, span in draws:
        if kind == "integers":
            hi = min(lo + span, 2**63)
            assert _kernels.integers(mine, lo, hi) == int(ref.integers(lo, hi))
        elif kind == "random":
            assert mine.random() == ref.random()
        elif kind == "shuffle":
            a, b = list(range(9)), list(range(9))
            mine.shuffle(a)
            ref.shuffle(b)
            assert a == b
        elif kind == "choice":
            assert mine.choice(50, size=7, replace=False).tolist() == ref.choice(
                50, size=7, replace=False).tolist()
        else:
            assert mine.integers(2**32, dtype=np.uint32) == ref.integers(2**32, dtype=np.uint32)
    assert mine.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("lo, hi", [(5, 5), (5, 4), (2.0, 9), (0, 7.5), (True, 4),
                                    (np.int64(1), 9), (1, np.int64(9)), (-(2**63) - 1, 0),
                                    (0, 2**63 + 1), ("1", 3), (0, 2**40)])
def test_other_draws_go_to_numpy(lo, hi):
    """Anything but int bounds of a compiled span draws, or raises, as numpy."""
    mine, ref = np.random.default_rng(3), np.random.default_rng(3)

    def outcome(draw):
        try:
            return draw()
        except Exception as exc:
            return type(exc)

    assert outcome(lambda: _kernels.integers(mine, lo, hi)) == outcome(
        lambda: int(ref.integers(lo, hi)))
    assert mine.bit_generator.state == ref.bit_generator.state


STATE = ("_nodes", "_lens", "_tdem", "_tcost", "_estart", "_lstart", "_tour_of", "_unassigned")


def insert_direct(s, order, solution=None, **swap):
    """``greedy_insert`` on ``s``'s own arrays, the named ones swapped."""
    inst = s.instance
    commits = np.empty((order.shape[0], 2), dtype=np.int64)
    return _kernels.greedy_insert(
        *[swap.get(name, getattr(s, name)) for name in STATE], s.n_tours, order, inst.dist,
        inst.demand, inst.capacity, inst.service, inst.tw_start, inst.tw_end, inst.prize,
        inst.problem.code, commits, inst.coords, solution=solution)


def remove_direct(s, ids, solution=None, **swap):
    """``remove_ids`` on ``s``'s own arrays, the named ones swapped."""
    inst = s.instance
    return _kernels.remove_ids(
        *[swap.get(name, getattr(s, name)) for name in STATE], s.n_tours, ids, inst.dist,
        inst.demand, inst.service, inst.tw_start, inst.tw_end, inst.problem is Problem.VRPTW,
        solution=solution)


def test_compiled_kernels_refuse_arrays_they_cannot_read():
    """Bad arrays go to the kernels directly: without a solution, and
    through a solution that already keeps the argument block of its own
    arrays, which a bad array must not reuse."""
    needs_c()
    sol, order = make_case(Problem.VRPTW, 12, 1, False, False, 1, 3)
    assert order.size and sol.n_tours
    ids = sol.assigned_ids()
    for convert in (lambda a: a.astype(np.int32), lambda a: np.repeat(a, 2)[::2]):
        with pytest.raises(InputError, match="order"):
            insert_direct(sol.clone(), convert(order))
        with pytest.raises(InputError, match="ids"):
            remove_direct(sol.clone(), convert(ids))
    for name, bad in (("_tdem", lambda a: a.astype(np.int32)),
                      ("_tcost", lambda a: np.repeat(a, 2)[::2]),
                      ("_nodes", np.ravel),
                      ("_lstart", lambda a: a[:, :1].copy()),
                      ("_tour_of", lambda a: a[:-1].copy())):
        for owned in (False, True):
            s = sol.clone()
            mine = s if owned else None
            if owned:
                remove_direct(s, ids[:0], solution=s)
                insert_direct(s, order[:0], solution=s)
                assert s._block is not None
            swap = {name: bad(getattr(s, name))}
            with pytest.raises(InputError, match=name[1:]):
                insert_direct(s, order, solution=mine, **swap)
            with pytest.raises(InputError, match=name[1:]):
                remove_direct(s, ids, solution=mine, **swap)
    # through a solution that keeps its block: a rebound array, and a view
    # made read-only
    s = sol.clone()
    insert_direct(s, order[:0], solution=s)
    s._tdem = s._tdem.astype(np.int32)
    with pytest.raises(InputError, match="tdem"):
        insert_direct(s, order, solution=s)
    with pytest.raises(InputError, match="tdem"):
        remove_direct(s, ids, solution=s)
    s = sol.clone()
    remove_direct(s, ids[:0], solution=s)
    s._tour_of.flags.writeable = False
    with pytest.raises(InputError, match="tour_of: the array is read-only"):
        insert_direct(s, order, solution=s)
    with pytest.raises(InputError, match="tour_of: the array is read-only"):
        remove_direct(s, ids, solution=s)
    s = sol.clone()
    with pytest.raises(InputError, match="tour_of: the array is read-only"):
        remove_direct(s, ids, _tour_of=s.customer_to_tour)


def test_recorded_block_follows_the_instance_of_each_call():
    """One solution's argument block, called with the arrays of two
    instances of one size in turn: every detach and reinsertion writes
    what the scalar kernels write."""
    needs_c()
    sol, _ = make_case(Problem.PCVRP, 12, 4, False, False, 1, 3)
    other, _ = make_case(Problem.PCVRP, 12, 5, False, False, 1, 3)
    mine, ref = sol.clone(), sol.clone()
    rng = np.random.default_rng(0)
    for inst in (sol.instance, other.instance, sol.instance, other.instance):
        ids = rng.permutation(mine.assigned_ids())
        order = rng.permutation(np.arange(1, 13))  # every customer is detached first
        outs = []
        for s, remove, insert in ((mine, _kernels.remove_ids, _kernels.greedy_insert),
                                  (ref, _kernels.remove_ids_scalar,
                                   _kernels.greedy_insert_scalar)):
            arrays = [getattr(s, name) for name in STATE]
            nt, cost = remove(*arrays, s.n_tours, ids, inst.dist, inst.demand, inst.service,
                              inst.tw_start, inst.tw_end, False, solution=s)
            commits = np.empty((order.size, 2), dtype=np.int64)
            s.n_tours, *sums = insert(*arrays, nt, order, inst.dist, inst.demand,
                                      inst.capacity, inst.service, inst.tw_start, inst.tw_end,
                                      inst.prize, inst.problem.code, commits, inst.coords,
                                      solution=s)
            outs.append(([a.tobytes() for a in arrays + [commits]], cost, sums, s.n_tours))
        assert outs[0] == outs[1]


def test_kernel_blocks_die_with_their_solutions():
    """A solution's argument block holds its arena and its instance's
    arrays without a reference cycle: they go with the solution and the
    instance, with the cycle collector off."""
    needs_c()
    sol, order = make_case(Problem.PCVRP, 12, 3, False, False, 1, 3)
    inst = sol.instance
    insert_direct(sol, order, solution=sol)
    remove_direct(sol, sol.assigned_ids(), solution=sol)
    operators.string_remove(inst, sol, np.random.default_rng(1))
    assert sol._block is not None
    arena, dist = weakref.ref(sol._arena), weakref.ref(inst.dist)
    collecting = gc.isenabled()
    gc.disable()
    try:
        del sol, inst
        assert arena() is None and dist() is None
    finally:
        if collecting:
            gc.enable()


def test_clones_keep_their_own_blocks():
    """A fresh clone starts without a block, so a detach from it leaves
    the source's arena as it was; a clone into a spare keeps the spare's
    block, which addresses the spare's own arena."""
    needs_c()
    inst = generate(GenParams(problem=Problem.VRPTW, n=12, seed=6))
    sol = lns.initial_solution(inst)
    operators.string_remove(inst, sol, np.random.default_rng(2))
    kept = sol._block
    assert kept is not None
    before = sol._arena.tobytes()
    dup = sol.clone()
    assert dup._block is None
    remove_customers(dup, sol.assigned_ids()[:5])
    assert dup._block is not None and dup._block is not kept
    assert sol._arena.tobytes() == before
    assert sol._block is kept
    block = dup._block
    assert sol.clone(into=dup) is dup and dup._block is block
    remove_customers(dup, sol.assigned_ids()[:5])
    assert dup._block is block and sol._arena.tobytes() == before


def test_missing_compiler_falls_back_to_interpreted(monkeypatch, tmp_path):
    needs_c()
    sol, order = make_case(Problem.PCVRP, 14, 2, True, False, 1, 3)
    ids = sol.assigned_ids()
    expected = call(_kernels.greedy_insert, sol, order), call_remove(_kernels.remove_ids, sol, ids)
    keep_backend(monkeypatch)
    monkeypatch.setattr(_kernels, "COMPILER", str(tmp_path / "no-such-cc"))
    lns.warm_kernels()
    assert _kernels.BACKEND == "interpreted"
    assert "no-such-cc" in _kernels.BACKEND_REASON
    assert (call(_kernels.greedy_insert, sol, order),
            call_remove(_kernels.remove_ids, sol, ids)) == expected


def test_corrupt_cached_library_is_rebuilt_not_loaded(monkeypatch, tmp_path):
    needs_c()
    keep_backend(monkeypatch)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    lns.warm_kernels()
    assert _kernels.BACKEND == "c" and _kernels.BACKEND_REASON.startswith("built")
    [library] = (tmp_path / "routesmith").glob("*.so")
    good = library.read_bytes()
    # loading a truncated library can crash the process; it must be refused
    for bad in (good[: len(good) // 2], good[:-1], b"\0" + good[1:]):
        library.unlink()  # a new file: this process may still map the old one
        library.write_bytes(bad)
        monkeypatch.setattr(lns, "_warmed", False)
        lns.warm_kernels(build=False)
        assert _kernels.BACKEND == "interpreted"
        assert "does not compile" in _kernels.BACKEND_REASON
        monkeypatch.setattr(lns, "_warmed", False)
        lns.warm_kernels()
        assert _kernels.BACKEND == "c" and _kernels.BACKEND_REASON.startswith("built")
        assert Path(_kernels.BACKEND_REASON.split(" ", 1)[1]).read_bytes() != bad
        monkeypatch.setattr(lns, "_warmed", False)
        lns.warm_kernels(build=False)
        assert _kernels.BACKEND == "c" and _kernels.BACKEND_REASON.startswith("loaded")


def test_concurrent_builds_each_load_a_whole_library(tmp_path):
    """Processes that build into one empty cache at once (pytest workers,
    a bench pool) each publish a whole file and load the C kernels."""
    needs_c()
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join([str(Path(_kernels.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    script = "from routesmith import _kernels, lns; lns.warm_kernels(); print(_kernels.BACKEND)"
    procs = [subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
                              text=True) for _ in range(3)]
    outs = [p.communicate(timeout=120)[0].strip() for p in procs]
    assert outs == ["c"] * 3
    names = [p.name for p in (tmp_path / "routesmith").iterdir()]
    assert names and all(name.endswith(".so") for name in names), names


@pytest.mark.parametrize("problem", VARIANTS)
def test_splices_and_new_tours_follow_the_scalar_kernel(problem):
    """Five customers next to tour 0 splice into it up to its capacity;
    five far-off ones, two to a tour, fill tour 1, open two new tours and
    splice into them. The selected kernel commits them as the scalar one."""
    angles = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    near = np.c_[0.6 + 0.02 * np.cos(angles), 0.5 + 0.02 * np.sin(angles)]
    far = [(0.05, 0.05), (0.06, 0.05), (0.95, 0.95), (0.94, 0.95), (0.05, 0.95), (0.95, 0.05)]
    coords = np.vstack([(0.5, 0.5), near, far])
    m = len(coords)
    inst = Instance(problem, coords, [0] + [1] * 6 + [3] * 6, 6,
                    service=[0.0] + [0.01] * (m - 1), tw_start=[0.0] * m,
                    tw_end=[100.0] * m, prize=[0.0] + [10.0] * (m - 1))
    sol = Solution.from_tours(inst, [[1], [7]])
    order = np.array([2, 3, 4, 5, 6, 8, 9, 10, 11, 12], dtype=np.int64)
    out = call(_kernels.greedy_insert, sol, order)
    assert out == call(_kernels.greedy_insert_scalar, sol, order)
    tours = np.frombuffer(out[0][-1], dtype=np.int64).reshape(-1, 2)[:, 0]
    assert tours.tolist() == [0] * 5 + [1, 2, 2, 3, 3]


def first_step(sol, c):
    """What the scalar kernel writes when it commits unassigned customer c
    alone. A kernel takes only a permutation of the unassigned set, and its
    decision for c reads the tours and c's own entries, so the other
    unassigned customers are hidden from it: their flags are cleared in its
    input and set again in what it wrote, which never touches them."""
    hidden = sol.clone()
    others = np.flatnonzero(hidden._unassigned)
    others = others[others != c]
    hidden._unassigned[others] = False
    arrays, result = call(_kernels.greedy_insert_scalar, hidden, np.array([c], dtype=np.int64))
    unassigned = np.frombuffer(arrays[7], dtype=np.bool_).copy()
    assert not unassigned[others].any()
    unassigned[others] = True
    arrays[7] = unassigned.tobytes()
    return arrays, result


@settings(max_examples=300, deadline=None)
@given(case_args)
def test_model_primitives_match_one_kernel_step(args):
    """The lexicographic argmin of ``insertion_delta`` over every slot and
    the new tour is the scalar kernel's commit, with the same delta bits,
    and ``insert_customer`` there leaves the kernel's arrays."""
    sol, order = make_case(*args)
    if not order.size:
        return
    c = int(order[0])
    inst = sol.instance
    slots = [(t, p) for t in range(sol.n_tours) for p in range(int(sol._lens[t]) + 1)]
    slots.append((sol.n_tours, 0))
    best, best_slot = math.inf, (-1, -1)
    for t, p in slots:
        d = insertion_delta(sol, c, t, p)
        if d < best:
            best, best_slot = d, (t, p)
    if inst.problem is Problem.PCVRP and best >= 0.0:
        best_slot = (-1, -1)
    arrays, result = first_step(sol, c)
    commits = np.frombuffer(arrays[-1], dtype=np.int64)
    assert tuple(commits.tolist()) == best_slot
    if best_slot == (-1, -1):
        return
    raw = np.float64(best) + inst.prize[c]
    assert result[1] == raw.tobytes()
    s = sol.clone()
    assert insert_customer(s, c, *best_slot) == best
    assert s.n_tours == int(np.frombuffer(result[0]).item())
    assert s.total_cost == sol.total_cost + raw
    mine = [a.tobytes() for a in (s._nodes, s._lens, s._tdem, s._tcost, s._estart,
                                  s._lstart, s._tour_of, s._unassigned)]
    assert mine == arrays[:-1]


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
    scalar_calls = []
    scalar_path = _kernels.greedy_insert_scalar

    def counted(*args):
        scalar_calls.append(1)
        return scalar_path(*args)

    reference = _solve_signature(inst, pair, scalar_path, monkeypatch)
    if _kernels.BACKEND == "c":
        assert _solve_signature(inst, pair, selected_path, monkeypatch) == reference
    # the interpreted backend's selection, detach included
    monkeypatch.setattr(_kernels, "_compiled", None)
    monkeypatch.setattr(_kernels, "greedy_insert_scalar", counted)
    assert _solve_signature(inst, pair, selected_path, monkeypatch) == reference
    assert scalar_calls, "the interpreted backend should run the scalar kernel"


def test_cli_solve_output_is_identical_on_both_paths(tmp_path, monkeypatch):
    """Each variant with the pair that perfbench runs it with."""
    pairs = {Problem.CVRP: ("seed_random", "random"),
             Problem.VRPTW: ("string", "depot_distance_desc"),
             Problem.PCVRP: ("string", "demand_desc")}
    for problem, (remove, order) in pairs.items():
        path = save(generate(GenParams(problem=problem, n=200, seed=4)),
                    tmp_path / f"{problem.value}.txt")
        outputs = []
        kernels = [_kernels.greedy_insert_scalar]
        if _kernels.BACKEND == "c":
            kernels.append(_kernels.greedy_insert)
        for kernel in kernels:
            monkeypatch.setattr(_kernels, "greedy_insert", kernel)
            out = tmp_path / f"{problem.value}-{kernel.__name__}"
            rc = cli_main(["solve", "--instance", str(path), "--iterations", "40",
                           "--seed", "9", "--remove", remove, "--order", order,
                           "--out", str(out)])
            assert rc == 0
            outputs.append((out / "solution.json").read_bytes())
        monkeypatch.undo()
        assert outputs[1:] == outputs[:-1], problem
