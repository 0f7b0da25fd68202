import dataclasses
import json
import os

import pytest

from routesmith import _kernels, discovery
from routesmith.cli import main
from routesmith.errors import ConfigError
from routesmith.instances import verify_manifest


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "gen"
    rc = run_cli(
        "gen", "--problem", "cvrp", "--n", "15", "--count", "2", "--validation", "1",
        "--seed", "3", "--capacity", "25", "--out", out,
    )
    assert rc == 0
    return out


class TestGen:
    def test_files_and_manifests(self, gen_dir):
        train = verify_manifest(gen_dir / "train-manifest.json")
        val = verify_manifest(gen_dir / "validation-manifest.json")
        assert len(train.paths) == 2 and len(val.paths) == 1
        assert not (set(train.seeds) & set(val.seeds))

    def test_deterministic_by_seed(self, gen_dir, tmp_path):
        rc = run_cli(
            "gen", "--problem", "cvrp", "--n", "15", "--count", "2", "--validation", "1",
            "--seed", "3", "--capacity", "25", "--out", tmp_path / "again",
        )
        assert rc == 0
        a = verify_manifest(gen_dir / "train-manifest.json")
        b = verify_manifest(tmp_path / "again" / "train-manifest.json")
        assert a.checksums == b.checksums


class TestSolve:
    def test_seeded_iteration_runs_are_bit_reproducible(self, gen_dir, tmp_path):
        instance = verify_manifest(gen_dir / "train-manifest.json").paths[0]
        outs = []
        for name in ("one", "two"):
            rc = run_cli(
                "solve", "--instance", instance, "--iterations", "800",
                "--seed", "11", "--out", tmp_path / name,
            )
            assert rc == 0
            outs.append((tmp_path / name / "solution.json").read_bytes())
        assert outs[0] == outs[1]
        stats = json.loads((tmp_path / "one" / "stats.json").read_text())
        assert stats["kernel_backend"] == _kernels.BACKEND
        assert stats["kernel_backend_reason"] == _kernels.BACKEND_REASON

    def test_missing_budget_is_config_error(self, gen_dir, tmp_path):
        instance = verify_manifest(gen_dir / "train-manifest.json").paths[0]
        rc = run_cli("solve", "--instance", instance, "--out", tmp_path / "nobudget")
        assert rc == 2

    def test_unknown_operator_is_config_error(self, gen_dir, tmp_path):
        instance = verify_manifest(gen_dir / "train-manifest.json").paths[0]
        rc = run_cli(
            "solve", "--instance", instance, "--iterations", "10",
            "--remove", "nope", "--out", tmp_path / "badop",
        )
        assert rc == 2

    def test_refuses_nonempty_out_dir(self, gen_dir, tmp_path):
        instance = verify_manifest(gen_dir / "train-manifest.json").paths[0]
        target = tmp_path / "occupied"
        target.mkdir()
        (target / "keep.txt").write_text("do not clobber")
        rc = run_cli("solve", "--instance", instance, "--iterations", "10", "--out", target)
        assert rc == 2
        assert (target / "keep.txt").read_text() == "do not clobber"


class TestBench:
    def test_self_gap_is_zero_and_formula_holds(self, gen_dir, tmp_path):
        rc = run_cli(
            "bench", "--instances", gen_dir / "train-manifest.json",
            "--pair", "seed_random:random", "--pair", "string:demand_desc",
            "--iterations", "400", "--seed", "5", "--out", tmp_path / "bench",
        )
        assert rc == 0
        results = json.loads((tmp_path / "bench" / "results.json").read_text())
        means = {k: v["mean_objective"] for k, v in results["summary"].items()}
        a, b = "seed_random/random", "string/demand_desc"
        expected = (means[a] - means[b]) / means[b] * 100.0
        assert results["gap_percent"][f"{a} vs {b}"] == pytest.approx(expected, abs=1e-12)
        # row count: pairs x instances x reps
        assert len(results["rows"]) == 2 * 2 * 1

    def test_gap_arithmetic_example(self):
        assert (36.60 - 36.65) / 36.65 * 100 == pytest.approx(-0.1364, abs=5e-5)

    def test_repetitions_multiply_rows(self, gen_dir, tmp_path):
        rc = run_cli(
            "bench", "--instances", gen_dir / "train-manifest.json",
            "--pair", "seed_random:random", "--iterations", "200",
            "--reps", "3", "--out", tmp_path / "bench-reps",
        )
        assert rc == 0
        results = json.loads((tmp_path / "bench-reps" / "results.json").read_text())
        assert len(results["rows"]) == 1 * 2 * 3
        assert results["kernel_backend"] == _kernels.BACKEND
        assert results["kernel_backend_reason"] == _kernels.BACKEND_REASON

    def test_worker_processes_reproduce_serial_rows(self, gen_dir, tmp_path):
        rows = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"bench-jobs-{jobs}"
            rc = run_cli(
                "bench", "--instances", gen_dir / "train-manifest.json",
                "--pair", "seed_random:random", "--iterations", "200", "--seed", "5",
                "--jobs", jobs, "--out", out,
            )
            assert rc == 0
            results = json.loads((out / "results.json").read_text())
            rows[jobs] = [(r["objective"], r["iterations"]) for r in results["rows"]]
        assert rows["2"] == rows["1"]

    def test_requires_a_pair(self, gen_dir, tmp_path):
        rc = run_cli(
            "bench", "--instances", gen_dir / "train-manifest.json",
            "--iterations", "10", "--out", tmp_path / "nopair",
        )
        assert rc == 2


def discover_config(gen_dir, **overrides):
    config = {
        "problem": "cvrp",
        "discovery": {
            "n_init": 4,
            "n_elite": 1,
            "n_offspring": 2,
            "iterations": 1,
            "per_instance_time": 5.0,
            "per_instance_iterations": 150,
            "master_seed": 13,
            "finalist_pool": 3,
        },
        "train": {"manifest": str(gen_dir / "train-manifest.json")},
        "validation": {"manifest": str(gen_dir / "validation-manifest.json")},
        "llm": {"provider": "mock", "seed": 2},
        "evaluator": {"workers": 2, "smoke_test": False},
    }
    config.update(overrides)
    return config


def child_servers() -> list[int]:
    """Pids of evaluation servers that are children of this process."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read().split(b"\0")
        except OSError:  # exited while we looked
            continue
        if ppid == os.getpid() and b"--serve" in cmdline:
            found.append(int(entry))
    return found


class TestDiscover:
    def test_mock_discovery_end_to_end(self, gen_dir, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(discover_config(gen_dir)))
        out = tmp_path / "run"
        rc = run_cli("discover", "--config", cfg_path, "--out", out)
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["best_training"]["fitness"] not in (None, "disqualified")
        assert "best_validated" in report
        assert report["cost_ledger"]["calls"] > 0
        assert (out / "best-training.py").exists()
        assert (out / "best-validated.py").exists()
        records = [json.loads(line) for line in (out / "individuals.jsonl").read_text().splitlines()]
        timings = [t for r in records for t in r["eval_timing"]]
        assert timings and all(t["startup_s"] > 0 and t["peak_rss_mb"] > 0 for t in timings)
        assert not child_servers(), "discover left its evaluation server running"

    @pytest.mark.parametrize("section, key", [("discovery", "mystery_knob"),
                                              ("llm", "max_concurrent")])
    def test_unknown_config_key_rejected(self, gen_dir, tmp_path, section, key):
        cfg = discover_config(gen_dir)
        cfg[section][key] = 1
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = run_cli("discover", "--config", cfg_path, "--out", tmp_path / "bad-run")
        assert rc == 2

    def test_config_keys_follow_the_dataclass(self, gen_dir, tmp_path, monkeypatch):
        seen = []

        @dataclasses.dataclass
        class Extended(discovery.DiscoveryConfig):
            extra_knob: int = 0

            def check(self):
                seen.append(self.extra_knob)
                raise ConfigError("stop once the config is built")

        monkeypatch.setattr(discovery, "DiscoveryConfig", Extended)
        cfg = discover_config(gen_dir)
        cfg["discovery"]["extra_knob"] = 7
        cfg_path = tmp_path / "extended.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("discover", "--config", cfg_path, "--out", tmp_path / "extended-run") == 2
        assert seen == [7]

    def test_http_provider_without_credentials_is_config_error(self, gen_dir, tmp_path, monkeypatch):
        monkeypatch.delenv("ROUTESMITH_LLM_ENDPOINT", raising=False)
        monkeypatch.delenv("ROUTESMITH_LLM_API_KEY", raising=False)
        cfg = discover_config(gen_dir, llm={"provider": "http"})
        cfg_path = tmp_path / "http.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = run_cli("discover", "--config", cfg_path, "--out", tmp_path / "http-run")
        assert rc == 2

    def test_resume_completed_run_is_stable(self, gen_dir, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(discover_config(gen_dir)))
        out = tmp_path / "resumable"
        assert run_cli("discover", "--config", cfg_path, "--out", out) == 0
        report_before = json.loads((out / "report.json").read_text())
        assert run_cli("discover", "--resume", out) == 0
        report_after = json.loads((out / "report.json").read_text())
        assert report_before["best_training"] == report_after["best_training"]

    def test_echoed_config_reproduces_the_run(self, gen_dir, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(discover_config(gen_dir)))
        first = tmp_path / "first"
        assert run_cli("discover", "--config", cfg_path, "--out", first) == 0
        second = tmp_path / "second"
        assert run_cli("discover", "--config", first / "config.json", "--out", second) == 0
        a = json.loads((first / "report.json").read_text())
        b = json.loads((second / "report.json").read_text())
        assert a["best_training"] == b["best_training"]
        assert a["history"] == b["history"]


class TestSolveTiny:
    def test_single_customer_out_and_back(self, tmp_path):
        from routesmith.instances import GenParams, generate, save

        inst = generate(GenParams(n=1, seed=4, capacity=10))
        path = save(inst, tmp_path / "one.txt")
        out = tmp_path / "run"
        assert run_cli("solve", "--instance", path, "--iterations", "5", "--out", out) == 0
        solution = json.loads((out / "solution.json").read_text())
        assert solution["objective"] == pytest.approx(2 * inst.dist[0, 1], abs=1e-9)

    def test_unservable_vrptw_instance_fails_with_diagnostic(self, tmp_path, capsys):
        from routesmith.instances import save
        from routesmith.model import Instance, Problem

        inst = Instance(
            Problem.VRPTW,
            [(0.0, 0.0), (0.9, 0.0)],
            [0, 1],
            capacity=10,
            service=[0.0, 0.1],
            tw_start=[0.0, 0.0],
            tw_end=[5.0, 0.2],  # direct drive arrives at 0.9 > 0.2
        )
        path = save(inst, tmp_path / "bad.txt")
        rc = run_cli("solve", "--instance", path, "--iterations", "10", "--out", tmp_path / "run")
        assert rc == 3
        assert "unreachable" in capsys.readouterr().err
