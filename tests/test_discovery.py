import json
import math
import threading
import time
from pathlib import Path

import pytest

from routesmith.discovery import (
    DiscoveryConfig,
    DiscoveryRun,
    Individual,
    fitness,
    select_best_by_validation,
    top_k_elite,
)
from routesmith.errors import ConfigError, DiscoveryError
from routesmith.evaluator import EvalReport, InstanceResult
from routesmith.gateway import Gateway, MockProvider
from routesmith.instances import eval_seed_for
from routesmith.util import count_lines, sha256_hex


class FakeEvaluator:
    """In-process stand-in: fitness is a pure function of the source text
    (and the manifest's instance paths), no subprocesses involved."""

    def __init__(self, score_fn=None, fail_on=()):
        self.score_fn = score_fn
        self.fail_on = tuple(fail_on)
        self.calls = 0

    def _score(self, source, path_idx):
        base = int(sha256_hex(source), 16) % 10_000 / 1000.0
        return 10.0 + base + 0.01 * path_idx

    def evaluate_source(self, source, manifest):
        self.calls += 1
        for marker in self.fail_on:
            if marker in source:
                return EvalReport(status="runtime_error", build_log="fake failure")
        score = self.score_fn or self._score
        per = [
            InstanceResult(
                id=f"inst-{i:03d}", objective=score(source, i), feasible=True, iterations=7,
                startup_s=0.01, run_s=0.02, peak_rss_mb=30.0,
            )
            for i in range(len(manifest.instance_paths))
        ]
        return EvalReport(status="ok", per_instance=per)

    def evaluate_sources(self, items):
        return [self.evaluate_source(source, manifest) for source, manifest in items]

    def prefetch(self, items):
        pass

    def start(self):
        pass


class EchoParentProvider:
    """Replies with the code block already present in the prompt: parent 1
    for crossover, the code under mutation otherwise."""

    def complete(self, request):
        from routesmith.gateway import ChatExchange

        user = request.messages[-1]["content"]
        if "[Better Code]" in user:
            code = user.split("[Better Code]\n", 1)[1].split("\n\n[Worse Code]", 1)[0]
        elif "[Code]" in user:
            code = user.split("[Code]\n", 1)[1].split("\n\n[Task]", 1)[0]
        else:
            code = "def select_by_llm_1(sol):\n    return [1]\ndef sort_by_llm_1(c, i):\n    pass\n"
        return ChatExchange(request=request, response=f"```python\n{code}\n```")


class NumberedProvider:
    """MockProvider replies after a delay, each tagged with the number of
    calls made before it (as a comment), so the replies depend on call
    order; records the peak of calls in flight."""

    def __init__(self, delay):
        self.mock = MockProvider(seed=1)
        self.delay = delay
        self.calls = 0
        self.in_flight = 0
        self.peak = 0
        self.lock = threading.Lock()

    def complete(self, request):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.calls += 1
            number = self.calls
        time.sleep(self.delay)
        with self.lock:
            self.in_flight -= 1
        exchange = self.mock.complete(request)
        exchange.response = exchange.response.replace("):\n", f"):  # call {number}\n", 1)
        return exchange


def make_config(**kw):
    base = dict(
        problem="cvrp",
        n_init=6,
        n_elite=2,
        n_offspring=4,
        iterations=3,
        per_instance_time=1.0,
        per_instance_iterations=50,
        master_seed=7,
        finalist_pool=4,
    )
    base.update(kw)
    return DiscoveryConfig(**base)


def make_run(tmp_path, config=None, provider=None, evaluator=None, train=("t0.txt", "t1.txt")):
    config = config or make_config()
    gateway = Gateway(provider or MockProvider(seed=1))
    evaluator = evaluator or FakeEvaluator()
    return DiscoveryRun(config, gateway, evaluator, list(train), tmp_path)


def ind(id, fitness_value, lines=10, source="src"):
    return Individual(
        id=id, source=source, line_count=lines, parents=(), kind="init", fitness=fitness_value
    )


class TestFitness:
    def test_direct_substitution(self):
        report = EvalReport(
            status="ok",
            per_instance=[InstanceResult("a", 10.0, True, 1), InstanceResult("b", 10.0, True, 1)],
        )
        individual = ind(0, None, lines=100)
        assert fitness(individual, report, 2e-4) == pytest.approx(10.02, abs=1e-12)

    def test_zero_lambda_mean(self):
        report = EvalReport(
            status="ok",
            per_instance=[InstanceResult(str(i), float(i + 1), True, 1) for i in range(3)],
        )
        assert fitness(ind(0, None, lines=99), report, 0.0) == pytest.approx(2.0)

    def test_equal_means_rank_by_length(self):
        lam = 2e-4
        report = EvalReport(status="ok", per_instance=[InstanceResult("a", 5.0, True, 1)])
        short = fitness(ind(0, None, lines=100), report, lam)
        long = fitness(ind(1, None, lines=300), report, lam)
        assert short < long


class TestTopKElite:
    def test_picks_minimum(self):
        pop = [ind(0, 3.0), ind(1, 1.0), ind(2, 2.0)]
        elites, rest = top_k_elite(pop, 1)
        assert [e.id for e in elites] == [1]
        assert {r.id for r in rest} == {0, 2}

    def test_partition_is_exhaustive_and_disjoint(self):
        pop = [ind(i, float(i)) for i in range(5)]
        elites, rest = top_k_elite(pop, 4)
        assert len(rest) == 1
        assert {e.id for e in elites} | {r.id for r in rest} == set(range(5))

    def test_disqualified_never_elite(self):
        pop = [ind(0, math.inf), ind(1, 5.0), ind(2, math.inf), ind(3, 4.0)]
        elites, _ = top_k_elite(pop, 2)
        assert {e.id for e in elites} == {1, 3}

    def test_error_when_too_few_finite(self):
        pop = [ind(0, math.inf), ind(1, 5.0)]
        with pytest.raises(DiscoveryError):
            top_k_elite(pop, 2)

    def test_ties_break_by_line_count_then_id(self):
        pop = [ind(0, 1.0, lines=20), ind(1, 1.0, lines=10), ind(2, 1.0, lines=10)]
        elites, _ = top_k_elite(pop, 2)
        assert [e.id for e in elites] == [1, 2]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            make_config(n_elite=6, n_init=6).check()
        with pytest.raises(ConfigError):
            make_config(crossover_bias=0.5).check()
        with pytest.raises(ConfigError):
            make_config(lam=-1).check()
        make_config(crossover_mode="standard", crossover_bias=0.5).check()


class TestOffspring:
    def test_lineage_records_parents_and_kind(self, tmp_path):
        run = make_run(tmp_path)
        run.init_population()
        run._evaluate_all(run.population, 1)
        elites, rest = top_k_elite(run.population, 2)
        brood = run.make_offspring(elites, rest, iteration=1)
        assert len(brood) == run.config.n_offspring
        elite_ids = {e.id for e in elites}
        rest_ids = {r.id for r in rest}
        for child in brood:
            assert child.kind == "crossover"
            assert child.parents[0] in elite_ids
            assert child.parents[1] in rest_ids
            assert not child.evaluated

    def test_echo_mock_child_equals_elite_source(self, tmp_path):
        run = make_run(tmp_path, provider=EchoParentProvider())
        run.init_population()
        run._evaluate_all(run.population, 1)
        elites, rest = top_k_elite(run.population, 2)
        brood = run.make_offspring(elites, rest, iteration=1)
        by_id = {e.id: e for e in elites}
        for child in brood:
            assert child.source == by_id[child.parents[0]].source

    def test_line_count_is_nonempty_lines(self):
        assert count_lines("a\n\n  \nb\nc   \n") == 3


class TestMutation:
    def _prepared_run(self, tmp_path, evaluator):
        run = make_run(tmp_path, provider=EchoParentProvider(), evaluator=evaluator)
        run.init_population()
        run._evaluate_all(run.population, 1)
        return run

    def test_equal_fitness_keeps_original(self, tmp_path):
        # echo provider: mutant source == elite source -> equal fitness
        run = self._prepared_run(tmp_path, FakeEvaluator())
        elites, _ = top_k_elite(run.population, 2)
        out = run.mutate_elites(list(elites), iteration=1)
        assert [e.id for e in out] == [e.id for e in elites]

    def test_improved_mutant_replaces(self, tmp_path):
        scores = {}

        def score(source, idx):
            # every re-evaluation of the same source improves: mutants
            # (same source via echo) strictly beat their elites
            key = sha256_hex(source)
            scores[key] = scores.get(key, 10.0) - 1.0
            return scores[key]

        run = self._prepared_run(tmp_path, FakeEvaluator(score_fn=score))
        elites, _ = top_k_elite(run.population, 2)
        out = run.mutate_elites(list(elites), iteration=1)
        assert all(o.id != e.id for o, e in zip(out, elites))
        assert all(o.kind.startswith("mutation-") for o in out)
        assert all(o.parents == (e.id,) for o, e in zip(out, elites))

    def test_mutation_disabled_leaves_elites_untouched(self, tmp_path):
        run = make_run(tmp_path, config=make_config(mutation_enabled=False))
        run.init_population()
        run._evaluate_all(run.population, 1)
        elites, _ = top_k_elite(run.population, 2)
        before = len(run.individuals)
        out = run.mutate_elites(list(elites), iteration=1)
        assert out == elites
        assert len(run.individuals) == before

    def test_failed_mutant_keeps_original(self, tmp_path):
        run = self._prepared_run(tmp_path, FakeEvaluator())
        elites, _ = top_k_elite(run.population, 2)
        run.evaluator.fail_on = (elites[0].source[:20],)
        out = run.mutate_elites(list(elites), iteration=1)
        assert out[0].id == elites[0].id

    def test_kind_frequencies_roughly_uniform(self, tmp_path):
        run = self._prepared_run(tmp_path, FakeEvaluator())
        elites, _ = top_k_elite(run.population, 2)
        for iteration in range(1, 251):
            run.mutate_elites(list(elites), iteration=iteration)
        counts = {}
        for individual in run.individuals.values():
            if individual.kind.startswith("mutation-"):
                counts[individual.kind] = counts.get(individual.kind, 0) + 1
        assert sum(counts.values()) == 500
        assert set(counts) == {
            "mutation-ablation",
            "mutation-extend",
            "mutation-adjust",
            "mutation-refactor",
        }
        for value in counts.values():
            assert 85 <= value <= 165  # ~125 expected


class TestRecords:
    @pytest.mark.parametrize("fitness_value", [12.5, math.inf])
    def test_record_round_trip(self, fitness_value):
        original = Individual(
            id=3, source="src", line_count=4, parents=(1, 2), kind="crossover", fitness=fitness_value,
            eval_detail=[12.0, 13.0], eval_iterations=[7, 7], eval_status="ok", validation_mean=11.5,
        )
        record = json.loads(json.dumps(original.to_record()))
        assert Individual.from_record(record) == original
        assert Individual.from_record(dict(record, unknown_key=1)) == original

    def test_manifest_uses_the_instance_eval_seeds(self, tmp_path):
        run = make_run(tmp_path, train=("t0.txt", "t1.txt", "t2.txt"))
        for iteration in (1, 2):
            seeds = run._manifest(iteration).seeds
            assert seeds == tuple(eval_seed_for(run.config.master_seed, i) for i in range(3))


class TestGaRun:
    def test_journal_keeps_iterations_per_instance(self, tmp_path):
        # the marker fails some of the mock provider's candidates
        evaluator = FakeEvaluator(fail_on=("getRandomNumber(2, 4)",))
        make_run(tmp_path, config=make_config(iterations=1), evaluator=evaluator).run()
        lines = (tmp_path / "individuals.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        ok = [r for r in records if r["eval_status"] == "ok"]
        failed = [r for r in records if r["eval_status"] != "ok"]
        assert ok and failed
        assert all(r["eval_iterations"] == [7, 7] for r in ok)
        assert all(r["eval_iterations"] == [] for r in failed)
        # a line journaled before the field existed still loads
        old = {k: v for k, v in ok[0].items() if k != "eval_iterations"}
        assert Individual.from_record(old).eval_iterations == []
        assert Individual.from_record(ok[0]).eval_iterations == [7, 7]

    def test_journal_keeps_timings_and_checkpoints_do_not(self, tmp_path):
        evaluator = FakeEvaluator(fail_on=("getRandomNumber(2, 4)",))
        make_run(tmp_path, config=make_config(iterations=1), evaluator=evaluator).run()
        records = [json.loads(line) for line in (tmp_path / "individuals.jsonl").read_text().splitlines()]
        timing = {"startup_s": 0.01, "run_s": 0.02, "peak_rss_mb": 30.0}
        assert all(r["eval_timing"] == [timing, timing] for r in records if r["eval_status"] == "ok")
        assert all(r["eval_timing"] == [] for r in records if r["eval_status"] != "ok")
        state = json.loads((tmp_path / "checkpoints" / "latest.json").read_text())
        assert all("eval_timing" not in rec for rec in state["individuals"].values())
        # lines journaled before the field existed still load
        old = {k: v for k, v in records[0].items() if k != "eval_timing"}
        assert Individual.from_record(old).eval_timing == []
        assert Individual.from_record(records[0]).eval_timing == records[0]["eval_timing"]

    def test_population_size_and_elite_monotonicity(self, tmp_path):
        run = make_run(tmp_path)
        best = run.run()
        assert best.evaluated and not best.disqualified
        cfg = run.config
        mins = []
        for entry in run.history:
            assert entry["population"] == cfg.n_elite + cfg.n_offspring
            mins.append(entry["elite_min"])
        assert all(a >= b - 1e-12 for a, b in zip(mins, mins[1:]))

    def test_reproducible_lineage_with_fixed_seed(self, tmp_path):
        r1 = make_run(tmp_path / "a").run()
        r2 = make_run(tmp_path / "b").run()
        a = json.loads((tmp_path / "a" / "checkpoints" / "latest.json").read_text())
        b = json.loads((tmp_path / "b" / "checkpoints" / "latest.json").read_text())
        assert a == b
        assert r1.id == r2.id and r1.fitness == r2.fitness

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        make_run(tmp_path / "full", config=make_config(iterations=4)).run()
        # "kill" after 2 iterations, then resume to 4
        make_run(tmp_path / "cut", config=make_config(iterations=2)).run()
        resumed = make_run(tmp_path / "cut", config=make_config(iterations=4))
        resumed.run(resume=True)
        full_state = json.loads((tmp_path / "full" / "checkpoints" / "latest.json").read_text())
        cut_state = json.loads((tmp_path / "cut" / "checkpoints" / "latest.json").read_text())
        assert full_state == cut_state

    def test_torn_latest_checkpoint_is_never_read(self, tmp_path, monkeypatch):
        write_text = Path.write_text
        writes = []

        def torn(self, data, *args, **kwargs):
            if self.name.startswith("latest"):
                writes.append(self.name)
                if len(writes) == 3:  # the checkpoint of iteration 2: init, 1, 2
                    write_text(self, data[: len(data) // 2], *args, **kwargs)
                    raise OSError("disk went away")
            return write_text(self, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", torn)
        with pytest.raises(OSError, match="disk went away"):
            make_run(tmp_path / "cut", config=make_config(iterations=2)).run()
        monkeypatch.setattr(Path, "write_text", write_text)
        resumed = make_run(tmp_path / "cut", config=make_config(iterations=2))
        resumed.resume()
        assert resumed.completed_iterations == 1
        resumed.run(resume=True)
        make_run(tmp_path / "full", config=make_config(iterations=2)).run()
        full_state = json.loads((tmp_path / "full" / "checkpoints" / "latest.json").read_text())
        cut_state = json.loads((tmp_path / "cut" / "checkpoints" / "latest.json").read_text())
        assert full_state == cut_state

    def test_evaluator_outage_aborts_resumable(self, tmp_path):
        from routesmith.errors import BuildEnvironmentError

        class OutageEvaluator(FakeEvaluator):
            def __init__(self, fail_after):
                super().__init__()
                self.fail_after = fail_after

            def evaluate_source(self, source, manifest):
                if self.calls >= self.fail_after:
                    raise BuildEnvironmentError("toolchain went away")
                return super().evaluate_source(source, manifest)

        config = make_config(iterations=4)
        broken = make_run(tmp_path / "run", config=config, evaluator=OutageEvaluator(fail_after=14))
        with pytest.raises(BuildEnvironmentError):
            broken.run()
        # the run directory still holds the last completed checkpoint
        resumed = make_run(tmp_path / "run", config=make_config(iterations=4))
        resumed.run(resume=True)
        clean = make_run(tmp_path / "clean", config=make_config(iterations=4))
        clean.run()
        a = json.loads((tmp_path / "run" / "checkpoints" / "latest.json").read_text())
        b = json.loads((tmp_path / "clean" / "checkpoints" / "latest.json").read_text())
        assert a == b

    @staticmethod
    def _outputs(root):
        """Every checkpoint, and the journal without its timing and LLM fields."""
        files = {p.name: json.loads(p.read_text()) for p in (root / "checkpoints").glob("*.json")}
        journal = []
        for line in (root / "individuals.jsonl").read_text().splitlines():
            record = json.loads(line)
            del record["eval_timing"], record["llm"]
            journal.append(record)
        return files, journal

    def test_llm_calls_run_one_at_a_time_in_serial_order(self, tmp_path):
        config = make_config(iterations=2)
        providers = [NumberedProvider(delay=0.002) for _ in range(2)]
        for name, provider in zip("ab", providers):
            make_run(tmp_path / name, config=config, provider=provider).run()
        assert [p.peak for p in providers] == [1, 1]
        assert self._outputs(tmp_path / "a") == self._outputs(tmp_path / "b")

    def test_every_prefetched_evaluation_is_used(self, tmp_path):
        class Recording(FakeEvaluator):
            def __init__(self):
                super().__init__()
                self.prefetched, self.evaluated = [], []

            def prefetch(self, items):
                self.prefetched += [(source, manifest) for source, manifest in items]

            def evaluate_source(self, source, manifest):
                self.evaluated.append((source, manifest))
                return super().evaluate_source(source, manifest)

        evaluator = Recording()
        config = make_config(iterations=3, vary_eval_seeds=True)
        run = make_run(tmp_path, config=config, evaluator=evaluator)
        run.run()
        # init individuals, offspring of all but the last generation, and mutants
        cfg = run.config
        assert len(evaluator.prefetched) == cfg.n_init + 2 * cfg.n_offspring + 3 * cfg.n_elite
        assert all(pair in evaluator.evaluated for pair in evaluator.prefetched)

    def test_journal_keeps_llm_exchange_and_checkpoints_do_not(self, tmp_path):
        make_run(tmp_path, config=make_config(iterations=1)).run()
        records = [json.loads(line) for line in (tmp_path / "individuals.jsonl").read_text().splitlines()]
        assert records
        for record in records:
            assert set(record["llm"]) == {"latency_s", "input_tokens", "output_tokens", "retry_count"}
            assert record["llm"]["latency_s"] > 0  # timed by the gateway for the mock
            assert record["llm"]["retry_count"] == 0
        state = json.loads((tmp_path / "checkpoints" / "latest.json").read_text())
        assert all("llm" not in rec for rec in state["individuals"].values())
        assert Individual.from_record(records[0]).llm == records[0]["llm"]

    def test_failed_evaluation_journals_the_timings_it_has(self, tmp_path):
        class PartlyFailing(FakeEvaluator):
            def evaluate_source(self, source, manifest):
                report = super().evaluate_source(source, manifest)
                return EvalReport(
                    status="timeout", per_instance=report.per_instance[:1], build_log="slow"
                )

        run = make_run(tmp_path, config=make_config(iterations=1), evaluator=PartlyFailing())
        run.init_population()
        run._evaluate_all(run.population, 1)
        records = [json.loads(line) for line in (tmp_path / "individuals.jsonl").read_text().splitlines()]
        timing = {"startup_s": 0.01, "run_s": 0.02, "peak_rss_mb": 30.0}
        assert len(records) == run.config.n_init
        assert all(r["eval_status"] == "timeout" and r["eval_timing"] == [timing] for r in records)
        assert all(r["eval_detail"] == [] and r["fitness"] == "disqualified" for r in records)

    def test_standard_crossover_mode_renders_unbiased_prompt(self, tmp_path):
        seen = []

        class SpyProvider(EchoParentProvider):
            def complete(self, request):
                seen.append(request.messages[-1]["content"])
                return super().complete(request)

        config = make_config(crossover_mode="standard", iterations=1)
        run = make_run(tmp_path, config=config, provider=SpyProvider())
        run.run()
        crossover_prompts = [p for p in seen if "[Better Code]" in p]
        assert crossover_prompts
        assert all("roughly half" in p for p in crossover_prompts)
        assert all("(80" not in p for p in crossover_prompts)

    def test_eq1_holds_for_every_evaluated_individual(self, tmp_path):
        run = make_run(tmp_path)
        run.run()
        lam = run.config.lam
        audited = 0
        for individual in run.individuals.values():
            if individual.evaluated and not individual.disqualified:
                expected = sum(individual.eval_detail) / len(individual.eval_detail)
                expected += lam * individual.line_count
                assert individual.fitness == pytest.approx(expected, abs=1e-9)
                audited += 1
        assert audited >= run.config.n_init


class TestValidationSelection:
    def test_single_candidate_returned(self, tmp_path):
        candidate = ind(0, 1.0, source="def select_by_llm_1(s):\n    return [1]\n")
        out = select_best_by_validation(
            [candidate], ["v0.txt"], FakeEvaluator(), master_seed=1, per_instance_time=1.0
        )
        assert out is candidate

    def test_validation_overrules_training_rank(self, tmp_path):
        a = ind(0, 1.0, source="AAA")
        b = ind(1, 2.0, source="BBB")

        def score(source, idx):
            return 5.0 if source == "AAA" else 3.0  # B wins on validation

        out = select_best_by_validation(
            [a, b], ["v0.txt"], FakeEvaluator(score_fn=score), master_seed=1, per_instance_time=1.0
        )
        assert out is b
        assert b.validation_mean == pytest.approx(3.0)

    def test_two_passes_agree_exactly(self):
        a = ind(0, 1.0, source="AAA")
        means = []
        for _ in range(2):
            out = select_best_by_validation(
                [a], ["v0.txt", "v1.txt"], FakeEvaluator(), master_seed=3, per_instance_time=1.0
            )
            means.append(out.validation_mean)
        assert means[0] == means[1]

    def test_all_disqualified_raises(self):
        a = ind(0, 1.0, source="AAA")
        with pytest.raises(DiscoveryError):
            select_best_by_validation(
                [a], ["v0.txt"], FakeEvaluator(fail_on=("AAA",)), master_seed=1, per_instance_time=1.0
            )
