import math

import numpy as np
import pytest

from routesmith.errors import InputError, StructuralError
from routesmith.model import (
    INFEASIBLE,
    Instance,
    Problem,
    Solution,
    insert_customer,
    insertion_delta,
    objective,
    remove_customers,
    validate,
)
from routesmith.util import make_rng

import oracles


def line_instance(problem=Problem.CVRP, capacity=10, **kw):
    """Depot at origin, customers at x = 1, 2, 3 on the x-axis."""
    coords = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
    demand = [0, 2, 3, 4]
    return Instance(problem, coords, demand, capacity, **kw)


class TestObjective:
    def test_empty_pcvrp_forfeits_all_prizes(self):
        inst = Instance(
            Problem.PCVRP,
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
            [0, 1, 1],
            capacity=5,
            prize=[0.0, 3.0, 2.0],
        )
        sol = Solution.empty(inst)
        assert objective(sol) == pytest.approx(5.0, abs=1e-12)
        assert sol.total_objective == pytest.approx(5.0, abs=1e-12)

    def test_single_out_and_back(self):
        inst = Instance(Problem.CVRP, [(0.0, 0.0), (1.5, 0.0)], [0, 1], capacity=5)
        sol = Solution.from_tours(inst, [[1]])
        assert objective(sol) == pytest.approx(3.0, abs=1e-12)

    def test_matches_independent_recompute(self, gen):
        inst = gen(n=6, seed=11, capacity=12)
        sol = Solution.from_tours(inst, [[1, 4], [2, 3], [5, 6]])
        expected = oracles.recompute_objective(inst, [[1, 4], [2, 3], [5, 6]])
        assert objective(sol) == pytest.approx(expected, abs=1e-9)
        assert sol.total_objective == pytest.approx(expected, abs=1e-9)

    def test_structural_error_on_tampered_map(self, gen):
        inst = gen(n=5, seed=1, capacity=20)
        sol = Solution.from_tours(inst, [[1, 2], [3, 4, 5]])
        sol._tour_of[1] = 1  # corrupt the cache
        with pytest.raises(StructuralError):
            objective(sol)


class TestValidate:
    def test_capacity_boundary_inclusive(self):
        inst = line_instance(capacity=9)  # total demand 2+3+4 == 9
        sol = Solution.from_tours(inst, [[1, 2, 3]])
        assert validate(sol).feasible

    def test_capacity_overflow_flagged(self):
        inst = line_instance(capacity=8)
        sol = Solution.from_tours(inst, [[1, 2, 3]])
        report = validate(sol)
        assert not report.feasible
        assert "capacity" in report.kinds()

    def test_vrptw_waiting_is_feasible(self):
        # vehicle arrives at t=1.0, window opens at 2.0: wait, then serve
        inst = Instance(
            Problem.VRPTW,
            [(0.0, 0.0), (1.0, 0.0)],
            [0, 1],
            capacity=5,
            service=[0.0, 0.5],
            tw_start=[0.0, 2.0],
            tw_end=[math.inf, 2.5],
        )
        sol = Solution.from_tours(inst, [[1]])
        assert validate(sol).feasible
        feasible, starts = oracles.simulate_tour(inst, [1])
        assert feasible and starts[0] == pytest.approx(2.0)

    def test_vrptw_late_arrival_flagged(self):
        inst = Instance(
            Problem.VRPTW,
            [(0.0, 0.0), (1.0, 0.0)],
            [0, 1],
            capacity=5,
            service=[0.0, 0.5],
            tw_start=[0.0, 0.0],
            tw_end=[math.inf, 0.5],
        )
        sol = Solution.from_tours(inst, [[1]])
        report = validate(sol)
        assert not report.feasible
        assert "time_window" in report.kinds()

    def test_duplicate_customer_flagged(self, gen):
        inst = gen(n=4, seed=2, capacity=20)
        sol = Solution.from_tours(inst, [[1, 2], [2, 3]], unassigned=[4])
        report = validate(sol)
        assert not report.feasible
        assert "duplicate" in report.kinds()

    def test_missing_customer_flagged_except_pcvrp(self, gen):
        for problem, expect_feasible in (("cvrp", False), ("pcvrp", True)):
            inst = gen(problem=problem, n=4, seed=3, capacity=20)
            sol = Solution.from_tours(inst, [[1, 2], [3]])
            report = validate(sol)
            assert report.feasible is expect_feasible

    def test_objective_cache_drift_detected(self, gen):
        inst = gen(n=5, seed=21, capacity=20)
        sol = Solution.from_tours(inst, [[1, 2, 3], [4, 5]])
        sol._total_cost += 0.5
        report = validate(sol)
        assert not report.feasible
        assert "cache_drift" in report.kinds()

    def test_invariant_under_tour_permutation(self, gen):
        inst = gen(n=8, seed=4, capacity=15)
        tours = [[1, 2, 3], [4, 5], [6, 7, 8]]
        reports = [
            validate(Solution.from_tours(inst, perm))
            for perm in (tours, tours[::-1], [tours[1], tours[2], tours[0]])
        ]
        assert all(r.feasible == reports[0].feasible for r in reports)
        assert all(len(r.violations) == len(reports[0].violations) for r in reports)


class TestRemoveCustomers:
    def test_remove_all_deletes_tour(self, gen):
        inst = gen(n=4, seed=5, capacity=20)
        sol = Solution.from_tours(inst, [[1, 2], [3, 4]])
        remove_customers(sol, [1, 2])
        assert sol.n_tours == 1
        assert sol.unassigned == {1, 2}
        assert objective(sol) == pytest.approx(sol.total_objective, abs=1e-9)

    def test_splice_identity_for_middle_removal(self):
        inst = line_instance(capacity=9)
        sol = Solution.from_tours(inst, [[1, 2, 3]])
        before = sol.total_objective
        remove_customers(sol, [2])
        delta = sol.total_objective - before
        d = inst.dist
        expected = d[1, 3] - d[1, 2] - d[2, 3] + float(inst.prize[2])
        assert delta == pytest.approx(expected, abs=1e-12)

    def test_duplicates_and_unassigned_tolerated(self, gen):
        inst = gen(n=5, seed=6, capacity=20)
        sol = Solution.from_tours(inst, [[1, 2, 3], [4, 5]])
        remove_customers(sol, [2, 2, 3])
        obj_after = sol.total_objective
        remove_customers(sol, [2])  # already unassigned: no-op
        assert sol.total_objective == obj_after

    def test_out_of_range_rejected(self, gen):
        inst = gen(n=5, seed=6, capacity=20)
        sol = Solution.from_tours(inst, [[1, 2, 3], [4, 5]])
        with pytest.raises(InputError):
            remove_customers(sol, [99])
        with pytest.raises(InputError):
            remove_customers(sol, [0])

    @pytest.mark.parametrize("problem", ["cvrp", "vrptw", "pcvrp"])
    def test_random_removals_match_recompute(self, gen, problem):
        inst = gen(problem=problem, n=50, seed=7, capacity=30)
        from routesmith.lns import initial_solution, greedy_reinsert

        sol = initial_solution(inst)
        rng = make_rng(3)
        # consolidate a bit first so tours have length > 1
        ids = sorted(int(c) for c in rng.choice(np.arange(1, 51), size=25, replace=False))
        remove_customers(sol, ids)
        greedy_reinsert(sol, ids)
        picked = sorted(int(c) for c in rng.choice(sol.assigned_ids(), size=10, replace=False))
        remove_customers(sol, picked)
        assert sol.total_objective == pytest.approx(objective(sol), abs=1e-6)


class TestInsertionDelta:
    def test_new_tour_delta(self, gen):
        inst = gen(n=4, seed=8, capacity=20)
        sol = Solution.from_tours(inst, [[1, 2]], unassigned=None)
        remove_customers(sol, [3])
        delta = insertion_delta(sol, 3, sol.n_tours, 0)
        assert delta == pytest.approx(2 * inst.dist[0, 3], abs=1e-12)

    def test_new_tour_delta_pcvrp_subtracts_prize(self, gen):
        inst = gen(problem="pcvrp", n=4, seed=8, capacity=20)
        sol = Solution.empty(inst)
        delta = insertion_delta(sol, 3, 0, 0)
        assert delta == pytest.approx(2 * inst.dist[0, 3] - inst.prize[3], abs=1e-12)

    def test_capacity_overflow_infeasible(self):
        inst = line_instance(capacity=5)
        sol = Solution.from_tours(inst, [[1, 2]], unassigned=[3])  # demand 5 full
        assert sol._lens[0] == inst.tour_width  # and at the width bound
        for p in range(3):
            assert insertion_delta(sol, 3, 0, p) == INFEASIBLE
        # every tour row in use leaves none for a new tour; no consistent
        # state then has an unassigned customer, so the mask is set by hand
        sol = Solution.from_tours(line_instance(), [[1], [2], [3]])
        sol._unassigned[3] = True
        assert sol.n_tours == sol._nodes.shape[0]
        assert insertion_delta(sol, 3, sol.n_tours, 0) == INFEASIBLE

    def test_requires_unassigned_customer(self, gen):
        inst = gen(n=4, seed=9, capacity=20)
        sol = Solution.from_tours(inst, [[1, 2], [3, 4]])
        with pytest.raises(InputError):
            insertion_delta(sol, 1, 0, 0)

    @pytest.mark.parametrize("problem", ["cvrp", "vrptw", "pcvrp"])
    def test_matches_rebuild_and_simulate(self, gen, problem):
        inst = gen(problem=problem, n=20, seed=10, capacity=25)
        rng = make_rng(5)
        for trial in range(50):
            sol = _random_partial(inst, rng)
            if not sol.unassigned:
                continue
            customer = sorted(sol.unassigned)[int(rng.integers(len(sol.unassigned)))]
            for t in range(sol.n_tours):
                tour = sol.tour_customers(t)
                for p in range(len(tour) + 1):
                    delta = insertion_delta(sol, customer, t, p)
                    new_tour = tour[:p] + [customer] + tour[p:]
                    cap_ok = int(inst.demand[new_tour].sum()) <= inst.capacity
                    time_ok, _ = oracles.simulate_tour(inst, new_tour)
                    if inst.problem is not Problem.VRPTW:
                        time_ok = True
                    if math.isinf(delta):
                        assert not (cap_ok and time_ok)
                    else:
                        assert cap_ok and time_ok
                        expected = oracles.splice_delta(inst, tour, p, customer) - float(
                            inst.prize[customer]
                        )
                        assert delta == pytest.approx(expected, abs=1e-9)


def _random_partial(inst, rng):
    """A varied solution state: consolidate from singletons, then detach a
    random subset."""
    from routesmith.lns import greedy_reinsert, initial_solution

    sol = initial_solution(inst)
    n = inst.num_customers
    ids = sorted(int(c) for c in rng.choice(np.arange(1, n + 1), size=n // 2, replace=False))
    remove_customers(sol, ids)
    order = list(ids)
    rng.shuffle(order)
    greedy_reinsert(sol, sorted(sol.unassigned))
    k = int(rng.integers(1, max(2, n // 3)))
    assigned = sol.assigned_ids()
    if assigned.size:
        detach = sorted(int(c) for c in rng.choice(assigned, size=min(k, assigned.size), replace=False))
        remove_customers(sol, detach)
    return sol


@pytest.mark.parametrize("problem", ["cvrp", "vrptw", "pcvrp"])
def test_tours_are_fresh_snapshots_of_each_row(gen, problem):
    """``Solution.tours`` equals a per-row reading of the arrays, with a
    list of int, an int demand and a float cost per tour, and returns new
    objects on each call."""
    inst = gen(problem=problem, n=25, seed=13, capacity=25)
    sol = _random_partial(inst, make_rng(4))
    assert sol.n_tours > 1
    tours = sol.tours
    assert len(tours) == sol.n_tours
    for t, tour in enumerate(tours):
        L = int(sol._lens[t])
        assert tour.customers == [int(c) for c in sol._nodes[t, :L]]
        assert tour.demand == int(sol._tdem[t]) and tour.cost == float(sol._tcost[t])
        assert all(type(c) is int for c in tour.customers)
        assert type(tour.demand) is int and type(tour.cost) is float
    again = sol.tours
    assert again == tours
    assert all(a is not b and a.customers is not b.customers for a, b in zip(again, tours))
    tours[0].customers.append(99)
    assert sol.tours == again


class TestRoundTripAndCaches:
    @pytest.mark.parametrize("problem", ["cvrp", "vrptw", "pcvrp"])
    def test_remove_reinsert_roundtrip(self, gen, problem):
        inst = gen(problem=problem, n=25, seed=12, capacity=25)
        rng = make_rng(9)
        sol = _random_partial(inst, rng)
        from routesmith.lns import greedy_reinsert

        greedy_reinsert(sol, sorted(sol.unassigned))
        base = sol.total_objective

        # detach customers (never emptying a tour, so tour indices hold),
        # remember their exact slots, splice back ascending per tour
        picked, by_tour = [], {}
        for c in (int(x) for x in rng.permutation(sol.assigned_ids())):
            t, _ = sol.position_of(c)
            if by_tour.get(t, 0) + 1 < len(sol.tour_customers(t)):
                by_tour[t] = by_tour.get(t, 0) + 1
                picked.append(c)
            if len(picked) == 5:
                break
        slots = {c: sol.position_of(c) for c in picked}
        remove_customers(sol, picked)
        for c in sorted(picked, key=lambda c: slots[c]):
            insert_customer(sol, c, *slots[c])
        assert sol.total_objective == pytest.approx(base, abs=1e-6)

    @pytest.mark.parametrize("problem", ["cvrp", "vrptw", "pcvrp"])
    def test_cache_coherence_over_many_edits(self, gen, problem):
        inst = gen(problem=problem, n=40, seed=13, capacity=30)
        from routesmith.lns import greedy_reinsert, initial_solution

        sol = initial_solution(inst)
        rng = make_rng(20)
        for step in range(10_000 // 10):
            assigned = sol.assigned_ids()
            if assigned.size == 0:
                break
            k = min(int(rng.integers(1, 11)), assigned.size)
            ids = sorted(int(c) for c in rng.choice(assigned, size=k, replace=False))
            remove_customers(sol, ids)
            order = sorted(sol.unassigned)
            rng.shuffle(order)
            greedy_reinsert(sol, order)
            if step % 100 == 0:
                assert sol.total_objective == pytest.approx(objective(sol), abs=1e-6)
        assert sol.total_objective == pytest.approx(objective(sol), abs=1e-6)
        report = validate(sol)
        assert not {"cache_drift", "mapping", "duplicate"} & report.kinds()

    def test_committed_insertions_pass_validation(self, gen):
        # finite delta never commits something the validator would reject
        rng = make_rng(31)
        for problem in ("cvrp", "vrptw", "pcvrp"):
            inst = gen(problem=problem, n=15, seed=14, capacity=20)
            for _ in range(330):
                sol = _random_partial(inst, rng)
                if not sol.unassigned:
                    continue
                customer = sorted(sol.unassigned)[0]
                t = int(rng.integers(sol.n_tours + 1))
                p = 0 if t == sol.n_tours else int(rng.integers(len(sol.tour_customers(t)) + 1))
                delta = insertion_delta(sol, customer, t, p)
                if math.isinf(delta):
                    continue
                insert_customer(sol, customer, t, p)
                report = validate(sol)
                assert not {"capacity", "time_window", "duplicate"} & report.kinds()


class TestArena:
    @staticmethod
    def _live(sol):
        """Everything the kernels may read: the vectors and the live slots."""
        timed = sol.instance.problem is Problem.VRPTW
        rows = [(sol._nodes[t, :L].tolist(),
                 (sol._estart[t, :L].tolist(), sol._lstart[t, :L].tolist()) if timed else None)
                for t, L in enumerate(sol._lens[: sol.n_tours].tolist())]
        vectors = [a.tobytes() for a in (sol._lens, sol._tdem, sol._tcost, sol._tour_of,
                                         sol._unassigned)]
        return sol.n_tours, sol.total_objective, rows, vectors

    @pytest.mark.parametrize("problem", ["cvrp", "vrptw", "pcvrp"])
    def test_clone_into_a_spare_with_stale_rows(self, gen, problem):
        """A clone into a spare that holds another solution's rows past
        ``n_tours`` matches a fresh clone, and so do the next detach and
        reinsertion on both."""
        from routesmith.lns import greedy_reinsert, initial_solution

        inst = gen(problem=problem, n=40, seed=5, capacity=30)
        source = initial_solution(inst)
        everyone = list(range(1, 41))
        remove_customers(source, everyone)
        greedy_reinsert(source, everyone)
        spare = initial_solution(inst)  # one live singleton row per customer
        assert spare.n_tours > source.n_tours
        stale = spare._nodes[source.n_tours : spare.n_tours].copy()

        fresh = source.clone()
        into = source.clone(into=spare)
        assert into is spare
        assert (spare._nodes[source.n_tours : 40] == stale).all()  # left as they were
        for sol in (fresh, spare):
            assert [t.customers for t in sol.tours] == [t.customers for t in source.tours]
            assert sol.unassigned == source.unassigned
            assert sol.total_objective == source.total_objective
            assert validate(sol) == validate(source) and validate(sol).feasible
            assert self._live(sol) == self._live(source)

        rng = make_rng(8)
        for _ in range(20):
            ids = [int(c) for c in rng.choice(everyone, size=12, replace=False)]
            for sol in (fresh, spare):
                remove_customers(sol, ids)
            assert self._live(spare) == self._live(fresh)
            order = [int(c) for c in rng.permutation(sorted(fresh.unassigned))]
            for sol in (fresh, spare):
                greedy_reinsert(sol, order)
            assert self._live(spare) == self._live(fresh)
            assert validate(spare) == validate(fresh)

    def test_clone_into_another_instance_is_refused(self, gen):
        a, b = gen(n=10, seed=1), gen(n=10, seed=1)
        with pytest.raises(InputError, match="another instance"):
            Solution.empty(a).clone(into=Solution.empty(b))

    def test_state_arrays_are_views_of_one_arena(self, gen):
        for problem in ("cvrp", "vrptw", "pcvrp"):
            sol = Solution.from_tours(gen(problem=problem, n=12, seed=2), [[1, 2], [3]])
            for dup in (sol, sol.clone(), sol.clone(into=Solution(sol.instance))):
                for name, dtype, shape, _ in sol.instance._layout.fields:
                    arr = getattr(dup, name)
                    assert arr.base is dup._arena
                    assert (arr.dtype, arr.shape) == (np.dtype(dtype), shape)
                    assert arr.ctypes.data % 8 == 0
            assert sol.unassigned == set(range(4, 13))
