import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routesmith import _kernels, lns
from routesmith.errors import ConfigError, InstanceError, OperatorProtocolError
from routesmith.lns import (
    LnsConfig,
    accept,
    greedy_reinsert,
    initial_solution,
    run,
    sanitize_order,
    sanitize_removal,
    sa_temperature,
)
from routesmith.model import Instance, Problem, Solution, remove_customers, validate
from routesmith.operators import OperatorPair, builtin_pair
from routesmith.util import make_rng

import oracles


def id_values(ids):
    """The values of an id array as ``sanitize_order`` returns it: 1-D int64."""
    assert isinstance(ids, np.ndarray) and ids.dtype == np.int64 and ids.ndim == 1
    return ids.tolist()


class TestInitialSolution:
    def test_one_singleton_tour_per_customer(self, gen):
        inst = gen(n=3, seed=1)
        sol = initial_solution(inst)
        assert sol.n_tours == 3
        expected = sum(2 * inst.dist[0, c] for c in range(1, 4))
        assert sol.total_objective == pytest.approx(expected, abs=1e-9)

    def test_pcvrp_starts_fully_served(self, gen):
        inst = gen(problem="pcvrp", n=2, seed=2)
        sol = initial_solution(inst)
        assert sol.n_tours == 2
        assert sol.unassigned == set()

    @pytest.mark.parametrize("problem", ["cvrp", "vrptw", "pcvrp"])
    def test_always_feasible_on_generated_instances(self, gen, problem):
        for seed in range(8):
            inst = gen(problem=problem, n=30, seed=100 + seed)
            assert validate(initial_solution(inst)).feasible

    def test_unreachable_window_rejected(self):
        inst = Instance(
            Problem.VRPTW,
            [(0.0, 0.0), (3.0, 0.0)],
            [0, 1],
            capacity=5,
            service=[0.0, 0.1],
            tw_start=[0.0, 0.0],
            tw_end=[math.inf, 1.0],  # direct drive takes 3.0 > 1.0
        )
        with pytest.raises(InstanceError):
            initial_solution(inst)


class TestSanitization:
    def test_removal_drops_garbage(self, gen):
        inst = gen(n=10, seed=3)
        sol = initial_solution(inst)
        remove_customers(sol, [9])
        raw = [0, 3, 3, "junk", None, 99, -2, 9, 4.0, 5]
        assert sanitize_removal(raw, sol) == [3, 4, 5]

    def test_removal_cap_is_half_n(self, gen):
        inst = gen(n=9, seed=4)
        sol = initial_solution(inst)
        out = sanitize_removal(list(range(1, 10)), sol)
        assert len(out) == 5  # ceil(9 / 2)

    def test_removal_non_iterable_is_protocol_error(self, gen):
        inst = gen(n=5, seed=5)
        sol = initial_solution(inst)
        with pytest.raises(OperatorProtocolError):
            sanitize_removal(42, sol)

    def test_order_repairs_to_exact_permutation(self):
        removed = [2, 5, 7]
        assert id_values(sanitize_order([7, 7, 3, 2], removed)) == [7, 2, 5]
        assert id_values(sanitize_order([], removed)) == [2, 5, 7]
        assert id_values(sanitize_order(["x", 5], removed)) == [5, 2, 7]

    @given(st.lists(st.integers(-5, 30), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_removal_sanitize_idempotent(self, raw):
        inst = _IDEMPOTENT_CACHE["instance"]
        sol = _IDEMPOTENT_CACHE["solution"]
        once = sanitize_removal(raw, sol)
        assert sanitize_removal(once, sol) == once

    @given(
        st.lists(st.integers(-5, 30), max_size=40),
        st.sets(st.integers(1, 20), min_size=1, max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_order_sanitize_idempotent_and_exact(self, raw, removed):
        once = id_values(sanitize_order(raw, removed))
        assert sorted(once) == sorted(removed)
        assert id_values(sanitize_order(once, removed)) == once


def _idempotent_state():
    from routesmith.instances import GenParams, generate

    inst = generate(GenParams(n=20, seed=99, capacity=30))
    sol = initial_solution(inst)
    remove_customers(sol, [19, 20])
    return {"instance": inst, "solution": sol}


_IDEMPOTENT_CACHE = _idempotent_state()


class TestGreedyReinsert:
    def test_chaining_beats_two_out_and_backs(self):
        inst = Instance(Problem.CVRP, [(0.0, 0.0), (1.0, 0.0), (1.1, 0.0)], [0, 1, 1], capacity=5)
        sol = Solution.empty(inst)
        greedy_reinsert(sol, [1, 2])
        assert sol.n_tours == 1
        # positions 0 and 1 tie on delta (collinear): lexicographic rule
        # commits customer 2 at position 0
        assert sol.tour_customers(0) == [2, 1]
        # by-hand enumeration: chaining delta 0.2 vs own tour 2.2
        assert sol.total_objective == pytest.approx(1.0 + 0.1 + 1.1, abs=1e-12)

    def test_capacity_forces_new_tour(self):
        # joining an existing tour is never dearer than a fresh out-and-back
        # under the triangle inequality, so only capacity can force a split
        inst = Instance(
            Problem.CVRP, [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0)], [0, 1, 1], capacity=1
        )
        sol = Solution.empty(inst)
        greedy_reinsert(sol, [1, 2])
        assert sol.n_tours == 2
        assert sol.total_objective == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("problem", ["cvrp", "vrptw", "pcvrp"])
    def test_single_customer_matches_exhaustive_argmin(self, gen, problem):
        inst = gen(problem=problem, n=25, seed=6, capacity=25)
        rng = make_rng(17)
        checked = 0
        for _ in range(60):
            sol = initial_solution(inst)
            ids = sorted(int(c) for c in rng.choice(np.arange(1, 26), size=12, replace=False))
            remove_customers(sol, ids)
            greedy_reinsert(sol, ids)
            assigned = sol.assigned_ids()
            victim = int(assigned[int(rng.integers(assigned.size))])
            remove_customers(sol, [victim])
            (slot, delta) = oracles.best_insertion(sol, victim), None
            expected_slot, expected_delta = slot
            greedy_reinsert(sol, sorted(sol.unassigned))
            if expected_slot is None or (inst.problem is Problem.PCVRP and expected_delta >= 0):
                assert victim in sol.unassigned
                continue
            t, p = expected_slot
            assert sol.position_of(victim) == (t, p)
            checked += 1
        assert checked > 10

    def test_pcvrp_zero_prize_stays_unassigned(self):
        inst = Instance(
            Problem.PCVRP,
            [(0.0, 0.0), (1.0, 0.0), (0.9, 0.0)],
            [0, 1, 1],
            capacity=5,
            prize=[0.0, 5.0, 0.0],
        )
        sol = Solution.empty(inst)
        greedy_reinsert(sol, [1, 2])
        assert 1 not in sol.unassigned  # prize 5 > detour
        assert 2 in sol.unassigned  # prize 0: every delta positive

    def test_requires_permutation_of_unassigned(self, gen):
        inst = gen(n=6, seed=7)
        sol = initial_solution(inst)
        remove_customers(sol, [1, 2])
        with pytest.raises(OperatorProtocolError):
            greedy_reinsert(sol, [1])
        with pytest.raises(OperatorProtocolError):
            greedy_reinsert(sol, [1, 3])


class TestAccept:
    def _pair(self, delta_target):
        # two fixed solutions whose objectives differ by a controlled gap
        t = delta_target / (2.0 - math.sqrt(2.0))
        inst = Instance(Problem.CVRP, [(0.0, 0.0), (t, 0.0), (0.0, t)], [0, 1, 1], capacity=5)
        worse = Solution.from_tours(inst, [[1], [2]])
        better = Solution.from_tours(inst, [[1, 2]])
        return better, worse

    def test_improvement_always_accepted(self):
        better, worse = self._pair(0.5)
        rng = make_rng(0)
        assert accept(worse, better, 0.5, rng, 1e-6, 1e-6) is better

    def test_huge_delta_at_tiny_temperature_rejected(self):
        better, worse = self._pair(1.0)
        rng = make_rng(0)
        for _ in range(200):
            assert accept(better, worse, 1.0, rng, 1e-3, 1e-3) is better

    def test_temperature_schedule_geometric(self):
        assert sa_temperature(1.0, 0.01, 0.0) == pytest.approx(1.0)
        assert sa_temperature(1.0, 0.01, 1.0) == pytest.approx(0.01)
        assert sa_temperature(1.0, 0.01, 0.5) == pytest.approx(0.1)


class _ZeroRemovalOps:
    label = "zero"

    @staticmethod
    def remove(instance, solution, rng):
        return []

    @staticmethod
    def order(instance, ids, solution, rng):
        return list(ids)


class _AdversarialOps:
    """Returns duplicates, the depot, out-of-range ids, unassigned ids, and
    mangled orderings."""

    label = "adversarial"

    @staticmethod
    def remove(instance, solution, rng):
        n = instance.num_customers
        ids = [0, -3, n + 10, 10**9]
        ids += [int(rng.integers(1, n + 1)) for _ in range(25)]
        ids += ids[:5]
        return ids

    @staticmethod
    def order(instance, ids, solution, rng):
        out = list(ids)[:: 2]  # drop half (non-permutation)
        out += out[:3]  # duplicates
        out += [0, 10**9]  # garbage
        rng.shuffle(out)
        return out


class _CrashingOps:
    label = "crash"
    calls = 0

    def remove(self, instance, solution, rng):
        self.calls += 1
        if self.calls > 3:
            raise RuntimeError("operator exploded")
        return [1]

    @staticmethod
    def order(instance, ids, solution, rng):
        return list(ids)


class TestRun:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            LnsConfig().check()
        with pytest.raises(ConfigError):
            LnsConfig(time_limit=-1).check()
        with pytest.raises(ConfigError):
            LnsConfig(max_iterations=10, sa_initial_temp=0.1, sa_final_temp=0.5).check()
        with pytest.raises(ConfigError):
            LnsConfig(max_iterations=1, validate_mode="off").check()

    def test_zero_removal_operator(self, gen):
        inst = gen(n=12, seed=8)
        best, stats = run(inst, _ZeroRemovalOps(), LnsConfig(max_iterations=50, seed=1))
        init = initial_solution(inst)
        assert stats.best_objective == pytest.approx(init.total_objective, abs=1e-9)
        assert stats.accepted_count == stats.iterations == 50

    def test_deterministic_under_iteration_budget(self, gen):
        inst = gen(n=30, seed=9)
        pair = builtin_pair()
        r1 = run(inst, pair, LnsConfig(max_iterations=1500, seed=7))
        r2 = run(inst, pair, LnsConfig(max_iterations=1500, seed=7))
        assert r1[1].best_objective == r2[1].best_objective
        assert [t.customers for t in r1[0].tours] == [t.customers for t in r2[0].tours]

    def test_trace_is_non_increasing(self, gen):
        inst = gen(n=30, seed=10)
        _, stats = run(
            inst, builtin_pair(), LnsConfig(max_iterations=1500, seed=3, record_trace=True)
        )
        values = [v for _, v in stats.best_objective_trace]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert stats.iterations >= stats.improved_count

    @pytest.mark.parametrize("problem", ["cvrp", "vrptw", "pcvrp"])
    def test_adversarial_operator_never_breaks_safety(self, gen, problem):
        inst = gen(problem=problem, n=60, seed=11, capacity=30)
        best, stats = run(
            inst,
            _AdversarialOps(),
            LnsConfig(max_iterations=1200, seed=5, validate_mode="full"),
        )
        assert stats.status == "completed"
        assert validate(best).feasible

    def test_operator_crash_aborts_with_best(self, gen):
        inst = gen(n=12, seed=12)
        best, stats = run(inst, _CrashingOps(), LnsConfig(max_iterations=100, seed=1))
        assert stats.status == "operator_failure"
        assert "operator exploded" in stats.error
        assert validate(best).feasible

    def test_small_instance_reaches_brute_force_optimum(self, gen):
        inst = gen(n=7, seed=77, capacity=20)
        opt = oracles.optimal_cvrp(inst)
        _, stats = run(inst, builtin_pair(), LnsConfig(max_iterations=4000, seed=2))
        assert stats.best_objective == pytest.approx(opt, abs=1e-9)

    def test_custom_operator_pair_contract(self, gen):
        inst = gen(n=15, seed=13)
        calls = {"remove": 0, "order": 0}

        def my_remove(instance, solution, rng):
            calls["remove"] += 1
            return [1, 2, 3]

        def my_order(instance, ids, solution, rng):
            calls["order"] += 1
            return sorted(ids, reverse=True)

        pair = OperatorPair(remove=my_remove, order=my_order, label="custom")
        _, stats = run(inst, pair, LnsConfig(max_iterations=20, seed=1))
        assert calls["remove"] == 20 and calls["order"] == 20
        assert stats.status == "completed"


VARIANTS = [
    pytest.param("cvrp", ("seed_random", "random"), id="cvrp"),
    pytest.param("vrptw", ("string", "depot_distance_desc"), id="vrptw"),
    pytest.param("pcvrp", ("string", "demand_desc"), id="pcvrp"),
]


@pytest.mark.parametrize("problem, pair", VARIANTS)
def test_run_looks_up_each_step_at_call_time(gen, monkeypatch, problem, pair):
    """``lns.run`` reaches each step through the name a per-step tracer wraps
    (an ``lns`` global, ``Solution.clone`` or a ``_kernels`` attribute), as
    often as a traced split needs: once per iteration, once per non-empty
    removal, and the final validation."""
    calls = dict.fromkeys(
        ["clone", "sanitize_removal", "remove_customers", "sanitize_order", "greedy_reinsert",
         "accept", "validate", "remove_ids", "greedy_insert", "nonempty"], 0)

    def counted(owner, name):
        orig = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = orig(*args, **kwargs)
            if name == "sanitize_removal":
                calls["nonempty"] += bool(result)
            return result

        monkeypatch.setattr(owner, name, wrapper)

    counted(Solution, "clone")
    for name in ("sanitize_removal", "remove_customers", "sanitize_order", "greedy_reinsert",
                 "accept", "validate"):
        counted(lns, name)
    for name in ("remove_ids", "greedy_insert"):
        counted(_kernels, name)
    inst = gen(problem=problem, n=40, seed=3)
    _, stats = run(inst, builtin_pair(*pair), LnsConfig(max_iterations=30, seed=4))
    assert stats.status == "completed" and stats.iterations == 30
    assert calls["nonempty"] > 0
    for name in ("clone", "sanitize_removal", "accept"):
        assert calls[name] >= stats.iterations, name
    for name in ("remove_customers", "sanitize_order", "greedy_reinsert", "remove_ids",
                 "greedy_insert"):
        assert calls[name] >= calls["nonempty"], name
    assert calls["validate"] >= 1


# objective, accepts, improvements and a digest of the best tours of a seeded
# 300-iteration run on an n=60 instance: a change to any search decision or to
# the bits of any cost moves them
SEEDED_RUNS = {
    "cvrp": ("0x1.fe56db5485954p+3", 105, 25, "96890f026855bcbf"),
    "vrptw": ("0x1.57ee8507de651p+4", 170, 41, "82759e1b21eedb85"),
    "pcvrp": ("0x1.af516bb410551p+1", 300, 21, "4f53cda18c2baa0c"),
}


@pytest.mark.parametrize("problem, pair", VARIANTS)
def test_seeded_runs_keep_their_bits(gen, problem, pair):
    inst = gen(problem=problem, n=60, seed=5)
    best, stats = run(inst, builtin_pair(*pair), LnsConfig(max_iterations=300, seed=11))
    tours = repr([t.customers for t in best.tours]).encode()
    assert (best.total_objective.hex(), stats.accepted_count, stats.improved_count,
            hashlib.sha256(tours).hexdigest()[:16]) == SEEDED_RUNS[problem]
    assert best.total_objective == stats.best_objective
