"""Parity of the array fast paths with the loops they replace.

The sanitizers and ``remove_customers``' id check take a fast path on
lists of plain ints, and ``sanitize_order`` keeps an int64 order that is
already a permutation of an ascending ``removed`` array. ``sort_by_key``
sorts with ``np.lexsort``, ``string_remove`` walks only the served
neighbours of its seed, a short block first and then the rest at once,
``remove_customers`` leaves unassigned ids to the detach kernel, which
skips them, and the reinsertion kernels check the order without a sort
(on both backends). ``sort_by_key`` and ``sanitize_order`` convert a list
once (``int64_array``), with the values ``int()`` gives.
``seed_random_remove`` draws indices into ``assigned_ids()``, which scans
from the depot, and ``initial_solution`` writes its singleton rows as
arrays. Both removal operators also run as one compiled call each
(``_kernels.removal``), checked here on both backends. Each must return exactly what the reference kept here returns (the
same values, all of type ``int``, or an int64 array of them from
``sanitize_order``; for ``initial_solution``, ``Solution.from_tours``'
arena bytes), leave the same state, raise where it raises, and draw the
same random numbers.
"""

import itertools
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routesmith import _kernels, operators
from routesmith.errors import InputError, OperatorProtocolError
from routesmith.instances import GenParams, generate
from routesmith.lns import greedy_reinsert, initial_solution, sanitize_order, sanitize_removal
from routesmith.model import Instance, Problem, Solution, _coerce_ids, remove_customers
from routesmith.operators import (
    StringRemovalParams,
    seed_random_remove,
    sort_by_key,
    string_remove,
)
from routesmith.util import int64_array, make_rng


def reference_removal(ids, solution):
    n = solution.instance.num_customers
    cap = (n + 1) // 2
    out, seen = [], set()
    for raw in ids:
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


def reference_coerce(ids, n):
    out, seen = [], set()
    for raw in ids:
        c = int(raw)
        if c < 1 or c > n:
            raise InputError(f"customer id out of range: {c}")
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def reference_order(order, removed):
    target = set(int(c) for c in removed)
    out, seen = [], set()
    for raw in order:
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


def reference_sort(instance, ids, key):
    out = [int(c) for c in ids]
    if key == "demand_desc":
        return sorted(out, key=lambda c: (-instance.demand[c], c))
    return sorted(out, key=lambda c: (-instance.dist[0, c], c))


def backends():
    """The interpreted backend (None), then the compiled one where it loaded."""
    return [None] + ([_kernels._compiled] if _kernels._compiled is not None else [])


@contextmanager
def backend(compiled):
    """``compiled`` (one of ``backends()``) selected until the block ends."""
    selected = _kernels._compiled
    _kernels._compiled = compiled
    try:
        yield
    finally:
        _kernels._compiled = selected


def reference_string_remove(instance, solution, rng, params, walked=None):
    """The walk as a loop; ``walked`` (a list) receives every node it reads."""
    assigned = solution.assigned_ids()
    if assigned.size == 0:
        return []
    target = int(rng.integers(max(1, params.avg_removed // 2), params.avg_removed * 2))
    seed = int(assigned[int(rng.integers(assigned.size))])
    removed, hit_tours = [], set()
    for c in [seed] + [int(x) for x in instance.adjacency[seed]]:
        if len(hit_tours) >= params.max_strings or len(removed) >= target:
            break
        if walked is not None:
            walked.append(c)
        if c == 0:
            continue
        t = int(solution._tour_of[c])
        if t < 0 or t in hit_tours:
            continue
        tour = solution.tour_customers(t)
        length = int(rng.integers(1, min(params.max_string_len, len(tour)) + 1))
        pos = tour.index(c)
        lo = max(0, min(pos - int(rng.integers(length)), len(tour) - length))
        removed.extend(tour[lo : lo + length])
        hit_tours.add(t)
    return removed


def same(a, b):
    """Equal lists of exact ints (True == 1 and 2.0 == 2 would hide a miss)."""
    return a == b and all(type(c) is int for c in a + b)


def same_ids(arr, b):
    """``arr`` is a 1-D int64 array holding the exact ints of list ``b``."""
    return (isinstance(arr, np.ndarray) and arr.dtype == np.int64 and arr.ndim == 1
            and same(arr.tolist(), b))


def reference_remove(solution, ids):
    """``remove_customers`` as a per-id loop: deduplicate, range-check,
    keep the assigned ids, detach them and add their prizes."""
    inst = solution.instance
    todo = [c for c in reference_coerce(ids, inst.num_customers) if solution._tour_of[c] >= 0]
    if not todo:
        return solution
    arr = np.asarray(todo, dtype=np.int64)
    nt, cost_delta = _kernels.remove_ids(
        solution._nodes, solution._lens, solution._tdem, solution._tcost, solution._estart,
        solution._lstart, solution._tour_of, solution._unassigned, solution.n_tours, arr,
        inst.dist, inst.demand, inst.service, inst.tw_start, inst.tw_end,
        inst.problem is Problem.VRPTW)
    solution.n_tours = int(nt)
    solution._total_cost += float(cost_delta)
    solution._prize_penalty += float(inst.prize[arr].sum())
    return solution


N = 24
ids_in_range = st.integers(-3, N + 3)
# everything int() turns into an id, or refuses
mixed_item = st.one_of(
    ids_in_range,
    st.booleans(),
    st.floats(-3, N + 3, allow_nan=False),
    ids_in_range.map(np.int64),
    ids_in_range.map(str),
    st.sampled_from(["x", None, 2**70, -(2**70)]),
)
id_lists = st.one_of(st.lists(ids_in_range, max_size=40), st.lists(mixed_item, max_size=40),
                     st.permutations(list(range(-3, N + 4))))


def partial_solution(seed, removed_share, problem=Problem.CVRP, n=N):
    """An n=24 solution of a few tours with a share of customers detached."""
    inst = generate(GenParams(problem=problem, n=n, seed=seed % 5, capacity=30))
    sol = initial_solution(inst)
    rng = make_rng(seed)
    everyone = list(range(1, n + 1))
    remove_customers(sol, everyone)
    greedy_reinsert(sol, everyone)
    k = int(removed_share * n)
    remove_customers(sol, [int(c) for c in rng.choice(everyone, size=k, replace=False)])
    return sol


@settings(max_examples=200, deadline=None)
@given(id_lists, st.integers(0, 50), st.sampled_from((0.0, 0.3, 0.9)))
def test_sanitize_removal_matches_its_loop(ids, seed, share):
    sol = partial_solution(seed, share)
    out = sanitize_removal(ids, sol)
    assert same(out, reference_removal(ids, sol))
    assert sanitize_removal(out, sol) == out


def outcome(fn, *args):
    """What ``fn`` returns, or the type and text of what it raises."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    assert all(type(c) is int for c in out)
    return out


@settings(max_examples=200, deadline=None)
@given(st.one_of(id_lists, st.lists(st.integers(1, N), max_size=40)))
def test_coerce_ids_matches_its_loop(ids):
    assert outcome(_coerce_ids, ids, N) == outcome(reference_coerce, ids, N)


@settings(max_examples=300, deadline=None)
@given(id_lists, st.one_of(st.lists(st.integers(1, N), max_size=15),
                           st.lists(mixed_item.filter(lambda c: not isinstance(c, str)
                                                      and c is not None and abs(c) < 2**63),
                                    max_size=15)))
def test_sanitize_order_matches_its_loop(order, removed):
    out = sanitize_order(order, removed)
    assert same_ids(out, reference_order(order, removed))
    assert sanitize_order(out, removed).tolist() == out.tolist()


# how an ordering operator might hand back an exact permutation
RESHAPES = (
    lambda o: o,
    lambda o: np.array(o, dtype=np.int64),
    lambda o: [np.int64(c) for c in o],
    lambda o: [float(c) for c in o],
    lambda o: [c == 1 if c in (0, 1) else c for c in o],
    lambda o: o + [2**70],
    lambda o: o[:1] + [[c] for c in o[1:]],
    lambda o: [o],
    lambda o: np.array(o, dtype=np.int32),
    lambda o: np.array(o + o, dtype=np.int64)[::2],
)


@st.composite
def orders_of_removed_arrays(draw):
    """An int64 ``removed`` (ascending and distinct, as ``lns.run`` passes
    it, or unsorted with duplicates) and an order: anything, or a
    permutation of ``removed`` in one of the shapes above."""
    removed = draw(st.one_of(st.sets(st.integers(1, N), max_size=15).map(sorted),
                             st.lists(st.integers(-3, N + 3), max_size=15)))
    order = draw(st.one_of(
        id_lists,
        st.lists(st.one_of(mixed_item, st.lists(ids_in_range, max_size=2)), max_size=20),
        st.tuples(st.permutations(removed), st.sampled_from(RESHAPES)).map(
            lambda pair: pair[1](list(pair[0]))),
    ))
    return order, np.array(removed, dtype=np.int64)


@settings(max_examples=400, deadline=None)
@given(orders_of_removed_arrays())
def test_sanitize_order_matches_its_loop_on_removed_arrays(case):
    order, removed = case
    out = sanitize_order(order, removed)
    assert same_ids(out, reference_order(order, removed))
    assert sanitize_order(out, removed).tolist() == out.tolist()


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(1, 16))), st.integers(0, 14))
def test_sanitize_order_keeps_an_exact_permutation(order, cut):
    """The shortcut for an order that is already exact, and its near misses."""
    removed = sorted(order)
    for candidate in (order, order[:cut], order + order[:cut], order[:cut] + [99]):
        expected = reference_order(candidate, removed)
        assert same_ids(sanitize_order(candidate, removed), expected)
        assert same_ids(sanitize_order(candidate, np.array(removed)), expected)
        assert same_ids(sanitize_order(np.array(candidate), np.array(removed)), expected)


def state_bytes(sol):
    """Everything a detach may write, exactly (the sign of 0.0 included)."""
    return (sol._arena.tobytes(), sol.n_tours, sol._total_cost.hex(),
            sol._prize_penalty.hex(), str(sol._prize_penalty))


@settings(max_examples=200, deadline=None)
@given(st.one_of(id_lists, st.lists(st.integers(1, N), max_size=40)), st.integers(0, 50),
       st.sampled_from((0.0, 0.3, 0.9)), st.sampled_from(list(Problem)))
def test_remove_customers_matches_its_loop(ids, seed, share, problem):
    """Duplicates, unassigned and out-of-range ids: the same state bytes,
    or the same error."""
    sol = partial_solution(seed, share, problem)
    mine, ref = sol.clone(), sol.clone()
    try:
        remove_customers(mine, ids)
        got = state_bytes(mine)
    except Exception as exc:
        got = type(exc), str(exc)
    try:
        reference_remove(ref, ids)
        expected = state_bytes(ref)
    except Exception as exc:
        expected = type(exc), str(exc)
    assert got == expected


def tie_instance(seed):
    """Lattice points and demands from a few values: keys tie often."""
    rng = make_rng(seed)
    coords = np.vstack([(0, 0), rng.integers(-3, 4, size=(N, 2))]).astype(float)
    demand = np.concatenate(([0], rng.integers(1, 4, size=N)))
    return Instance(Problem.CVRP, coords, demand, capacity=10)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 20), st.sampled_from(("demand_desc", "depot_distance_desc")),
       st.one_of(st.lists(st.integers(1, N), max_size=30),
                 st.lists(st.one_of(st.integers(1, N), st.integers(1, N).map(np.int64),
                                    st.just(True), st.integers(1, N).map(float)),
                          max_size=30)))
def test_sort_by_key_matches_sorted(seed, key, ids):
    inst = tie_instance(seed)
    assert same(sort_by_key(inst, ids, None, make_rng(0), key), reference_sort(inst, ids, key))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 50), st.sampled_from((0.0, 0.3, 0.9)), st.integers(0, 2**32 - 1),
       st.sampled_from((StringRemovalParams(), StringRemovalParams(3, 4, 2),
                        StringRemovalParams(10, 30, 8))))
def test_string_remove_matches_its_walk(seed, share, rng_seed, params):
    sol = partial_solution(seed, share)
    for compiled in backends():
        rng, ref_rng = make_rng(rng_seed), make_rng(rng_seed)
        with backend(compiled):
            out = string_remove(sol.instance, sol, rng, params)
        assert same(out, reference_string_remove(sol.instance, sol, ref_rng, params))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_string_remove_matches_its_walk_past_the_first_block():
    """On n=120 walks end on both sides of the first block's end."""
    lengths = []
    for seed in range(12):
        for share in (0.0, 0.9):
            sol = partial_solution(seed, share, n=120)
            for params in (StringRemovalParams(), StringRemovalParams(10, 30, 8)):
                for rng_seed in range(4):
                    for compiled in backends():
                        rng, ref_rng = make_rng(rng_seed), make_rng(rng_seed)
                        walked = []
                        with backend(compiled):
                            out = string_remove(sol.instance, sol, rng, params)
                        assert same(out, reference_string_remove(sol.instance, sol, ref_rng,
                                                                 params, walked))
                        assert rng.bit_generator.state == ref_rng.bit_generator.state
                    lengths.append(len(walked))
    assert min(lengths) < 16 < max(lengths)


def reference_assigned_ids(solution):
    return (solution._tour_of[1:] >= 0).nonzero()[0].astype(np.int64) + 1


def reference_seed_random_remove(solution, rng):
    reference = reference_assigned_ids(solution)
    if not reference.size:
        return []
    k = min(int(rng.integers(10, 21)), reference.size)
    return rng.choice(reference, size=k, replace=False).tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 50), st.sampled_from((0.0, 0.3, 0.9, 1.0)), st.integers(0, 2**32 - 1),
       st.sampled_from(list(Problem)))
def test_seed_random_remove_matches_choice_over_the_ids(seed, share, rng_seed, problem):
    """Indices into ``assigned_ids()`` draw what ``rng.choice`` over the ids
    themselves draws: the same ids, the same rng state after the call."""
    sol = partial_solution(seed, share, problem)
    assigned = sol.assigned_ids()
    assert assigned.dtype == np.int64 and assigned.tolist() == reference_assigned_ids(sol).tolist()
    for compiled in backends():
        rng, ref_rng = make_rng(rng_seed), make_rng(rng_seed)
        with backend(compiled):
            out = seed_random_remove(sol.instance, sol, rng)
        assert same(out, reference_seed_random_remove(sol, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def solution_serving(inst, served):
    """A solution of ``inst`` whose tours, of up to three customers each,
    serve exactly the ids ``served``."""
    return Solution.from_tours(inst, [served[i : i + 3] for i in range(0, len(served), 3)])


def test_removals_match_on_few_assigned_ids():
    """One assigned id, fewer than the 10..20 a uniform removal picks, and
    the smallest string parameters, against the references."""
    inst = generate(GenParams(problem=Problem.CVRP, n=N, seed=1, capacity=30))
    for pop in (1, 2, 3, 9, 12):
        sol = solution_serving(inst, list(range(2, 2 + pop)))
        for rng_seed, compiled in itertools.product(range(40), backends()):
            for params in (StringRemovalParams(1, 1, 1), StringRemovalParams(),
                           StringRemovalParams(3, 4, 2)):
                rng, ref_rng = make_rng(rng_seed), make_rng(rng_seed)
                with backend(compiled):
                    out = string_remove(inst, sol, rng, params)
                assert same(out, reference_string_remove(inst, sol, ref_rng, params))
                assert rng.bit_generator.state == ref_rng.bit_generator.state
            rng, ref_rng = make_rng(rng_seed), make_rng(rng_seed)
            with backend(compiled):
                out = seed_random_remove(inst, sol, rng)
            assert same(out, reference_seed_random_remove(sol, ref_rng))
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_string_remove_refuses_a_tour_index_past_the_tours():
    """A customer-to-tour map that names no live tour raises, where the
    Python walk's ``tour_customers`` raises, instead of reaching C."""
    inst = generate(GenParams(problem=Problem.CVRP, n=N, seed=1, capacity=30))
    sol = solution_serving(inst, list(range(1, N + 1)))
    sol._tour_of[5] = sol.n_tours
    for compiled in backends():
        with backend(compiled), pytest.raises(InputError):
            # the target and the string count outlast the walk, which meets 5
            string_remove(inst, sol, make_rng(0), StringRemovalParams(10, 2**20, 2**20))


class _Generator(np.random.Generator):
    """A generator that draws numpy's numbers but is not a ``Generator``."""


def test_removals_leave_what_the_compiled_calls_cannot_take_to_python(monkeypatch):
    """A generator that is not a ``Generator`` and parameters whose draws
    the compiled walk cannot make run the Python operators (which raise
    where the parameters are invalid); the rest run one compiled call."""
    calls = []
    removal = _kernels.removal

    def counted(*args):
        calls.append(args[0])
        return removal(*args)

    monkeypatch.setattr(_kernels, "removal", counted)
    sol = partial_solution(3, 0.3)
    inst = sol.instance
    compiled_params = (StringRemovalParams(), StringRemovalParams(1, 1, 1),
                       StringRemovalParams(2, 1, 2**62))
    python_params = (StringRemovalParams(0, 10, 4), StringRemovalParams(10, 0, 4),
                     StringRemovalParams(10, 10, 0), StringRemovalParams(-1, 10, 4),
                     StringRemovalParams(2**63, 10, 4), StringRemovalParams(10, 10, 2**63),
                     StringRemovalParams(10, 2**40, 4), StringRemovalParams(10.0, 10, 4),
                     StringRemovalParams(True, 10, 4))
    for compiled in backends():
        calls.clear()
        with backend(compiled):
            for params in compiled_params + python_params:
                for make in (make_rng, lambda seed: _Generator(np.random.PCG64(seed))):
                    for seed in range(5):
                        rng, ref_rng = make(seed), make_rng(seed)
                        assert outcome(string_remove, inst, sol, rng, params) == outcome(
                            reference_string_remove, inst, sol, ref_rng, params)
                        assert rng.bit_generator.state == ref_rng.bit_generator.state
            for seed in range(5):
                rng, ref_rng = _Generator(np.random.PCG64(seed)), make_rng(seed)
                assert same(seed_random_remove(inst, sol, rng),
                            reference_seed_random_remove(sol, ref_rng))
        # one call per Generator and parameters of the first group
        assert len(calls) == (5 * len(compiled_params) if compiled else 0)


@pytest.mark.parametrize("problem", list(Problem))
@pytest.mark.parametrize("n", [1, 24, 120])
def test_initial_solution_matches_singleton_tours(problem, n):
    for seed in range(3):
        inst = generate(GenParams(problem=problem, n=n, seed=seed, capacity=30))
        mine = initial_solution(inst)
        ref = Solution.from_tours(inst, [[c] for c in range(1, n + 1)])
        assert mine.n_tours == ref.n_tours == n
        assert mine._arena.tobytes() == ref._arena.tobytes()
        assert mine._total_cost.hex() == ref._total_cost.hex()
        assert mine._prize_penalty.hex() == ref._prize_penalty.hex()
        assert type(mine._total_cost) is type(mine._prize_penalty) is float


def test_initial_solution_waits_and_ties_like_retime():
    """Windows that open before, at and after the direct arrival."""
    coords = [(0.0, 0.0), (3.0, 0.0), (0.0, 4.0), (1.0, 0.0)]
    inst = Instance(Problem.VRPTW, coords, [0, 1, 1, 1], capacity=5,
                    service=[0.0, 0.5, 0.5, 0.5], tw_start=[0.0, 1.0, 4.0, 2.5],
                    tw_end=[99.0, 9.0, 9.0, 9.0])
    mine = initial_solution(inst)
    ref = Solution.from_tours(inst, [[1], [2], [3]])
    assert mine._estart[:, 0].tolist() == [3.0, 4.0, 2.5]
    assert mine._arena.tobytes() == ref._arena.tobytes()


def test_reinsert_refuses_every_non_permutation(gen, monkeypatch):
    """On each backend the kernel checks the order: anything but a
    permutation of the unassigned set is refused, the kernel writes nothing
    (not even the commits), and ``greedy_reinsert`` raises."""
    inst = gen(n=6, seed=7)
    sol = initial_solution(inst)
    remove_customers(sol, [2, 4])
    m = inst.num_customers + 1
    # -3 and -5 would index customers 4 and 2 from the end
    refused = ([2, 2], [4, 4], [0, 2], [2, 0, 4], [2, m], [2, -1], [2, -3], [-5, 4], [2], [4],
               [2, 4, 4], [6, 2], [2, 4, 2**40], [4, 2**40], [])
    backends = [None] + ([_kernels._compiled] if _kernels.BACKEND == "c" else [])
    for compiled in backends:
        monkeypatch.setattr(_kernels, "_compiled", compiled)
        for order in refused:
            for given_as in (list, lambda o: np.array(o, dtype=np.int64)):
                s = sol.clone()
                before = s._arena.tobytes(), s.n_tours, s._total_cost, s._prize_penalty
                with pytest.raises(OperatorProtocolError, match="permutation"):
                    greedy_reinsert(s, given_as(order))
                assert (s._arena.tobytes(), s.n_tours, s._total_cost, s._prize_penalty) == before
            s = sol.clone()
            before = s._arena.tobytes()
            commits = np.full((len(order), 2), 7, dtype=np.int64)
            out = _kernels.greedy_insert(
                s._nodes, s._lens, s._tdem, s._tcost, s._estart, s._lstart, s._tour_of,
                s._unassigned, s.n_tours, np.array(order, dtype=np.int64), inst.dist,
                inst.demand, inst.capacity, inst.service, inst.tw_start, inst.tw_end, inst.prize,
                inst.problem.code, commits, inst.coords)
            assert out == (-1, 0.0, 0.0)
            assert s._arena.tobytes() == before and (commits == 7).all()
        for order in ([3], np.array([3], dtype=np.int64)):
            with pytest.raises(OperatorProtocolError, match="permutation"):
                greedy_reinsert(Solution.from_tours(inst, [list(range(1, 7))]), order)
        for order in ([2, 4], [4, 2], np.array([4, 2]),
                      np.array([4, 9, 2, 9], dtype=np.int64)[::2], np.array([2, 4], dtype=np.int32)):
            assert greedy_reinsert(sol.clone(), order).num_unassigned == 0
        full = Solution.from_tours(inst, [list(range(1, 7))])
        assert greedy_reinsert(full, []) is full


class _Twisted(int):
    """An int whose ``int()`` is another number."""

    def __int__(self):
        return int.__int__(self) * 7 + 1


_NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
# the elements an operator may hand back, numpy scalars of every kind
# included; not 0-d arrays, which numpy casts as arrays (see int64_array)
any_item = st.one_of(
    st.integers(),
    st.integers(-(2**63), 2**63 - 1),
    st.booleans(),
    st.floats(),
    st.floats(-(2.0**64), 2.0**64),
    st.sampled_from(_NUMPY_INTS).flatmap(
        lambda t: st.integers(np.iinfo(t).min, np.iinfo(t).max).map(t)),
    st.sampled_from((np.float16, np.float32, np.float64)).flatmap(
        lambda t: st.floats(width=np.finfo(t).bits).map(t)),
    st.floats().map(np.longdouble),
    st.integers(-(10**20), 10**20).map(str),
    st.integers(-99, 99).map(lambda v: f" {v}_0 ".encode()),
    st.integers(-99, 99).map(_Twisted),
    st.lists(st.integers(0, 5), max_size=2),
    st.sampled_from(["x", "1.5", None, 1 + 2j, np.bool_(True)]),
)


def int_or_error(item):
    try:
        return int(item)
    except Exception as exc:
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(st.lists(any_item, max_size=12))
def test_int64_array_matches_int(items):
    """``sort_by_key`` and ``sanitize_order`` convert a list at once; where
    that succeeds, every value is what ``int()`` makes of the element."""
    arr = int64_array(items)
    if arr is None:
        return
    assert arr.dtype == np.int64 and arr.shape == (len(items),)
    assert arr.tolist() == [int_or_error(item) for item in items]
    assert int64_array(tuple(items)) is None and int64_array(arr) is None
