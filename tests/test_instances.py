import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routesmith.errors import ConfigError, InstanceFormatError
from routesmith.instances import (
    GenParams,
    eval_seed_for,
    generate,
    load,
    load_manifest,
    make_splits,
    save,
    verify_manifest,
)
from routesmith.lns import initial_solution
from routesmith.model import Instance, Problem, Solution


class TestGenerate:
    def test_same_seed_byte_identical_files(self, tmp_path):
        params = GenParams(problem=Problem.VRPTW, n=40, seed=123)
        p1 = save(generate(params), tmp_path / "a.txt")
        p2 = save(generate(params), tmp_path / "b.txt")
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = save(generate(GenParams(n=20, seed=1)), tmp_path / "a.txt")
        b = save(generate(GenParams(n=20, seed=2)), tmp_path / "b.txt")
        assert a.read_bytes() != b.read_bytes()

    def test_shape_and_depot_demand(self):
        inst = generate(GenParams(n=500, seed=9))
        assert inst.coords.shape == (501, 2)
        assert inst.demand[0] == 0
        assert inst.num_customers == 500
        assert inst.adjacency.shape == (501, 500)

    @pytest.mark.parametrize("problem", ["cvrp", "vrptw", "pcvrp"])
    def test_generated_instances_start_feasible(self, problem):
        for seed in range(12):
            inst = generate(GenParams(problem=Problem.parse(problem), n=25, seed=1000 + seed))
            initial_solution(inst)  # raises on an unservable instance

    def test_pcvrp_prizes_in_half_open_range(self):
        inst = generate(GenParams(problem=Problem.PCVRP, n=200, seed=4))
        assert (inst.prize[1:] > 0).all()
        assert (inst.prize[1:] <= 0.1).all()

    def test_adjacency_rows_are_sorted_permutations(self):
        inst = generate(GenParams(n=30, seed=10))
        for i in range(31):
            row = inst.adjacency[i]
            assert sorted(row) == [j for j in range(31) if j != i]
            dists = inst.dist[i, row]
            assert (np.diff(dists) >= 0).all()

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            GenParams(n=0).check()
        with pytest.raises(ConfigError):
            GenParams(demand_range=(0, 5)).check()
        with pytest.raises(ConfigError):
            GenParams(capacity=5, demand_range=(1, 9)).check()


class TestRoundTrip:
    @pytest.mark.parametrize("problem", ["cvrp", "vrptw", "pcvrp"])
    def test_exact_coordinate_and_distance_reproduction(self, tmp_path, problem):
        inst = generate(GenParams(problem=Problem.parse(problem), n=30, seed=5))
        path = save(inst, tmp_path / "inst.txt")
        loaded = load(path)
        assert np.array_equal(loaded.coords, inst.coords)
        assert np.array_equal(loaded.dist, inst.dist)  # bit-for-bit
        assert np.array_equal(loaded.demand, inst.demand)
        assert np.array_equal(loaded.prize, inst.prize)
        assert np.array_equal(loaded.tw_start, inst.tw_start)

    def test_fixed_solution_objective_survives_round_trip(self, tmp_path):
        inst = generate(GenParams(n=12, seed=6))
        path = save(inst, tmp_path / "inst.txt")
        loaded = load(path)
        tours = [[1, 2, 3], [4, 5], [6, 7, 8, 9], [10, 11, 12]]
        a = Solution.from_tours(inst, tours).total_objective
        b = Solution.from_tours(loaded, tours).total_objective
        assert a == b

    def test_truncated_file_reports_line(self, tmp_path):
        inst = generate(GenParams(n=10, seed=7))
        path = save(inst, tmp_path / "inst.txt")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(InstanceFormatError) as err:
            load(path)
        assert "line" in str(err.value)

    def test_checksum_tamper_detected(self, tmp_path):
        inst = generate(GenParams(n=10, seed=8))
        path = save(inst, tmp_path / "inst.txt")
        text = path.read_text().replace("0.", "1.", 1)  # corrupt one float
        # the first "0." appears in the node table, not the header
        path.write_text(text)
        with pytest.raises(InstanceFormatError) as err:
            load(path)
        assert "checksum" in str(err.value)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("routesmith-instance v999\n")
        with pytest.raises(InstanceFormatError):
            load(path)

    def test_malformed_row_reports_line(self, tmp_path):
        inst = generate(GenParams(n=5, seed=9))
        path = save(inst, tmp_path / "inst.txt")
        lines = path.read_text().splitlines()
        row = lines[8].split()
        row[1] = "not-a-number"
        lines[8] = " ".join(row)
        # keep the checksum honest so the row parse is what fails
        table = "\n".join(lines[6:]) + "\n"
        from routesmith.util import sha256_hex

        lines[4] = f"checksum {sha256_hex(table)}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InstanceFormatError) as err:
            load(path)
        assert "line 9" in str(err.value)


class TestSplits:
    def test_disjoint_seed_blocks(self, tmp_path):
        manifests = make_splits(GenParams(n=8, seed=50), tmp_path, {"train": 6, "validation": 4})
        train, val = manifests["train"], manifests["validation"]
        assert len(train.seeds) == 6 and len(val.seeds) == 4
        assert not (set(train.seeds) & set(val.seeds))
        assert len(set(train.seeds) | set(val.seeds)) == 10

    def test_deterministic_manifests(self, tmp_path):
        m1 = make_splits(GenParams(n=8, seed=50), tmp_path / "a", {"train": 3})
        m2 = make_splits(GenParams(n=8, seed=50), tmp_path / "b", {"train": 3})
        assert m1["train"].seeds == m2["train"].seeds
        assert m1["train"].checksums == m2["train"].checksums

    def test_overlapping_ranges_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            make_splits(
                GenParams(n=8, seed=50),
                tmp_path,
                {"train": 6, "validation": 4},
                seed_starts={"validation": 52},
            )

    def test_verify_manifest_detects_corruption(self, tmp_path):
        make_splits(GenParams(n=8, seed=50), tmp_path, {"train": 2})
        manifest_path = tmp_path / "train-manifest.json"
        manifest = load_manifest(manifest_path)
        assert verify_manifest(manifest_path).paths == manifest.paths
        target = manifest.paths[0]
        with open(target, "a") as fh:
            fh.write("tamper\n")
        with pytest.raises(InstanceFormatError):
            verify_manifest(manifest_path)


def test_eval_seed_stability():
    seeds = [eval_seed_for(42, i) for i in range(5)]
    assert len(set(seeds)) == 5
    # appending instances never reshuffles earlier seeds
    assert [eval_seed_for(42, i) for i in range(3)] == seeds[:3]


coordinate = st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                       st.integers(-8, 8).map(lambda k: k / 4), st.sampled_from([0.0, -0.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=12),
       st.lists(st.integers(0, 11), max_size=4))
def test_distances_are_exactly_symmetric(tmp_path_factory, points, repeats):
    """d(i, j) and d(j, i) have the same bits, duplicate points included,
    also after a save/load round trip. The compiled slot scan relies on it:
    it reads d(prev, c) from c's own row."""
    points = points + [points[i % len(points)] for i in repeats]
    m = len(points)
    inst = Instance(Problem.CVRP, points, [0] + [1] * (m - 1), capacity=1)
    assert inst.dist.tobytes() == inst.dist.T.copy().tobytes()
    loaded = load(save(inst, tmp_path_factory.mktemp("sym") / "inst.txt"))
    assert loaded.dist.tobytes() == inst.dist.tobytes()
