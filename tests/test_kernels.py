"""Parity of the greedy-reinsertion paths and the insertion primitives.

``_kernels.greedy_insert_numpy`` and the compiled kernels of
``_kernels.c`` must make exactly the decisions of the scalar references
``_kernels.greedy_insert_scalar`` and ``_kernels.remove_ids_scalar``: same
mutated arrays, same commits, same returned counts and sums, bit for bit.
The public primitives ``model.insertion_delta`` and
``model.insert_customer`` must choose and commit a customer exactly as one
step of the scalar kernel.
"""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routesmith import _kernels, lns
from routesmith.cli import main as cli_main
from routesmith.errors import InputError
from routesmith.instances import GenParams, generate, save
from routesmith.model import Instance, Problem, Solution, insert_customer, insertion_delta
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


def needs_c():
    if _kernels.BACKEND != "c":
        pytest.skip(f"no compiled kernels: {_kernels.BACKEND_REASON}")


def test_compiled_kernels_run_wherever_there_is_a_compiler():
    """The tests of the C kernels skip without them, so a build or a
    self-check that fails must not pass unnoticed."""
    if shutil.which(_kernels.COMPILER) is None:
        pytest.skip(f"no C compiler {_kernels.COMPILER!r}")
    assert _kernels.BACKEND == "c", _kernels.BACKEND_REASON


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
@given(case_args, st.integers(1, 64) | st.just(_kernels._BUILD_CHUNK))
def test_numpy_path_matches_scalar_kernel(args, chunk):
    """Small chunks split the PCVRP block scan into many blocks."""
    sol, order = make_case(*args)
    with mock.patch.object(_kernels, "_BUILD_CHUNK", chunk):
        numpy_out = call(_kernels.greedy_insert_numpy, sol, order)
    assert numpy_out == call(_kernels.greedy_insert_scalar, sol, order)


@settings(max_examples=300, deadline=None)
@given(case_args, st.integers(0, 2**32 - 1))
def test_compiled_kernels_match_scalar_kernels(args, seed):
    """Detach draws ids from every customer, so already unassigned ones
    are skipped, and emptied tours are swap-deleted."""
    needs_c()
    sol, order = make_case(*args)
    assert call(_kernels.greedy_insert, sol, order) == call(
        _kernels.greedy_insert_scalar, sol, order)
    rng = np.random.default_rng(seed)
    n = sol.instance.num_customers
    ids = rng.permutation(np.arange(1, n + 1))[: rng.integers(0, n + 1)]
    assert call_remove(_kernels.remove_ids, sol, ids) == call_remove(
        _kernels.remove_ids_scalar, sol, ids)


def test_compiled_kernels_refuse_arrays_they_cannot_read():
    needs_c()
    sol, order = make_case(Problem.VRPTW, 12, 1, False, False, 1, 3)
    assert order.size and sol.n_tours
    ids = sol.assigned_ids()
    for convert in (lambda a: a.astype(np.int32), lambda a: np.repeat(a, 2)[::2]):
        with pytest.raises(InputError, match="order"):
            call(_kernels.greedy_insert, sol, convert(order))
        with pytest.raises(InputError, match="ids"):
            call_remove(_kernels.remove_ids, sol, convert(ids))
    # ``call`` passes copies, which are C-contiguous whatever the original
    for name, bad in (("_tdem", lambda a: a.astype(np.int32)),
                      ("_nodes", np.ravel),
                      ("_lstart", lambda a: a[:, :1].copy()),
                      ("_tour_of", lambda a: a[:-1].copy())):
        broken = sol.clone()
        setattr(broken, name, bad(getattr(broken, name)))
        with pytest.raises(InputError, match=name[1:]):
            call(_kernels.greedy_insert, broken, order)
        with pytest.raises(InputError, match=name[1:]):
            call_remove(_kernels.remove_ids, broken, ids)
    s, inst = sol.clone(), sol.instance
    with pytest.raises(InputError, match="tour_of: the array is read-only"):
        _kernels.remove_ids(s._nodes, s._lens, s._tdem, s._tcost, s._estart, s._lstart,
                            s.customer_to_tour, s._unassigned, s.n_tours, ids, inst.dist,
                            inst.demand, inst.service, inst.tw_start, inst.tw_end, True)


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
def test_table_grows_by_splices_and_new_tours(problem):
    """Five customers next to tour 0 splice into it up to its capacity,
    each splice moving tour 1's slots; five far-off ones, two to a tour,
    fill tour 1, open two new tours and splice into them, so the table
    grows from 4 slots to 16."""
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
    out = call(_kernels.greedy_insert_numpy, sol, order)
    assert out == call(_kernels.greedy_insert_scalar, sol, order)
    tours = np.frombuffer(out[0][-1], dtype=np.int64).reshape(-1, 2)[:, 0]
    assert tours.tolist() == [0] * 5 + [1, 2, 2, 3, 3]


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
    arrays, result = call(_kernels.greedy_insert_scalar, sol, order[:1])
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
    numpy_calls = []
    numpy_path = _kernels.greedy_insert_numpy

    def counted(*args):
        numpy_calls.append(1)
        return numpy_path(*args)

    reference = _solve_signature(inst, pair, _kernels.greedy_insert_scalar, monkeypatch)
    forced = _solve_signature(inst, pair, numpy_path, monkeypatch)
    assert forced == reference
    if _kernels.BACKEND == "c":
        assert _solve_signature(inst, pair, selected_path, monkeypatch) == reference
    # the interpreted backend's selection, detach included
    monkeypatch.setattr(_kernels, "_compiled", None)
    monkeypatch.setattr(_kernels, "greedy_insert_numpy", counted)
    assert _solve_signature(inst, pair, selected_path, monkeypatch) == reference
    assert numpy_calls, "n=500 batches should take the numpy path"


def test_cli_solve_output_is_identical_on_both_paths(tmp_path, monkeypatch):
    path = save(generate(GenParams(problem=Problem.VRPTW, n=200, seed=4)), tmp_path / "v.txt")
    outputs = []
    kernels = [_kernels.greedy_insert_scalar, _kernels.greedy_insert_numpy]
    if _kernels.BACKEND == "c":
        kernels.append(_kernels.greedy_insert)
    for kernel in kernels:
        monkeypatch.setattr(_kernels, "greedy_insert", kernel)
        out = tmp_path / kernel.__name__
        rc = cli_main(["solve", "--instance", str(path), "--iterations", "40",
                       "--seed", "9", "--out", str(out)])
        assert rc == 0
        outputs.append((out / "solution.json").read_bytes())
    assert outputs[1:] == outputs[:-1]
