"""Exploitation-heavy genetic search over operator source code.

Each individual is one operator-pair implementation. Per iteration:
evaluate everything new, rank and keep the elites, breed offspring by
biased crossover (one elite x one non-elite, most ideas from the elite),
mutate each elite with one of four mutation prompts and keep the mutant
only if strictly better, then form the next population as elites plus
offspring. Fitness is the mean training objective plus a code-length
penalty; any build/run/feasibility failure disqualifies (infinite
fitness), so failures can never become elite.

The LLM calls are made one at a time, in the serial order (the seed calls,
then per generation the crossover calls and the mutation calls), and each
individual's evaluation is queued (``Evaluator.prefetch``) as soon as its
source arrives, so the evaluator works while the later calls are in
flight; the generation that scores it collects the report.
All randomness is derived from (master_seed, iteration, role), which makes
runs resumable: a checkpoint at any iteration boundary continues bit for
bit like the uninterrupted run.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .errors import ConfigError, DiscoveryError, ExtractionError, GatewayError
from .evaluator import DISQUALIFIED, EvalManifest, Evaluator, fitness_from_report
from .gateway import Gateway, extract_code
from .prompts import MUTATION_KINDS, render, runtime_bindings
from .util import count_lines, derive_seed, make_rng

log = logging.getLogger(__name__)

UNEVALUATED = None


@dataclass
class Individual:
    id: int
    source: str
    line_count: int
    parents: tuple[int, ...]
    kind: str  # init | crossover | mutation-<kind>
    fitness: float | None = UNEVALUATED
    eval_detail: list[float] = field(default_factory=list)
    # LNS iterations each training instance reached, in eval_detail's order
    eval_iterations: list[int] = field(default_factory=list)
    eval_status: str = "unevaluated"
    validation_mean: float | None = None
    # supervisor timings per training instance (startup_s, run_s, peak_rss_mb),
    # also for the instances a failed evaluation finished before its failure,
    # and the LLM exchange that wrote the source (latency_s, input_tokens,
    # output_tokens, retry_count): journal lines carry them, checkpoints do
    # not, as they differ run to run
    eval_timing: list[dict] = field(default_factory=list)
    llm: dict = field(default_factory=dict)

    @property
    def evaluated(self) -> bool:
        return self.fitness is not UNEVALUATED

    @property
    def disqualified(self) -> bool:
        return self.fitness is not UNEVALUATED and math.isinf(self.fitness)

    def to_record(self) -> dict:
        """The checkpoint record: everything but ``eval_timing`` and ``llm``."""
        rec = asdict(self)
        del rec["eval_timing"], rec["llm"]
        rec["parents"] = list(self.parents)
        if self.fitness is not None and math.isinf(self.fitness):
            rec["fitness"] = "disqualified"
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "Individual":
        fit = rec["fitness"]
        if fit == "disqualified":
            fit = DISQUALIFIED
        return cls(
            id=rec["id"],
            source=rec["source"],
            line_count=rec["line_count"],
            parents=tuple(rec["parents"]),
            kind=rec["kind"],
            fitness=fit,
            eval_detail=list(rec.get("eval_detail", [])),
            eval_iterations=list(rec.get("eval_iterations", [])),
            eval_status=rec.get("eval_status", "unevaluated"),
            validation_mean=rec.get("validation_mean"),
            eval_timing=list(rec.get("eval_timing", [])),
            llm=dict(rec.get("llm", {})),
        )


@dataclass
class DiscoveryConfig:
    problem: str = "cvrp"
    n_init: int = 100
    n_elite: int = 10
    n_offspring: int = 30
    crossover_bias: float = 0.8
    crossover_mode: str = "biased"  # "biased" or "standard" (ablation)
    lam: float = 2e-4
    iterations: int = 40
    per_instance_time: float = 20.0
    per_instance_iterations: int | None = None
    mutation_enabled: bool = True
    master_seed: int = 0
    temperature_init: float = 1.0
    temperature_evolve: float = 0.7
    max_tokens: int = 8192
    retry_limit: int = 3
    vary_eval_seeds: bool = False
    finalist_pool: int = 10

    def check(self) -> None:
        if self.n_init < 2 or self.n_elite < 1 or self.n_offspring < 1:
            raise ConfigError("population sizes must be positive (n_init >= 2)")
        if self.n_elite >= self.n_init:
            raise ConfigError("n_elite must be smaller than n_init")
        if self.crossover_mode not in ("biased", "standard"):
            raise ConfigError(f"unknown crossover_mode: {self.crossover_mode}")
        if self.crossover_mode == "biased" and not (0.5 < self.crossover_bias <= 1.0):
            raise ConfigError("crossover_bias must lie in (0.5, 1]")
        if self.lam < 0:
            raise ConfigError("lambda must be nonnegative")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        if self.per_instance_time <= 0:
            raise ConfigError("per_instance_time must be positive")


def fitness(individual: Individual, report, lam: float) -> float:
    """Penalized fitness: mean objective over instances + lam * line count."""
    return fitness_from_report(report, individual.line_count, lam)


def _rank_key(ind: Individual):
    return (ind.fitness, ind.line_count, ind.id)


def top_k_elite(population: list[Individual], k: int) -> tuple[list[Individual], list[Individual]]:
    """Partition into the k best (by fitness, then fewer lines, then id)
    and the rest. Disqualified individuals sort last and are never elite."""
    unevaluated = [ind for ind in population if not ind.evaluated]
    if unevaluated:
        raise DiscoveryError(f"{len(unevaluated)} individuals still unevaluated")
    ranked = sorted(population, key=_rank_key)
    finite = sum(1 for ind in ranked if not ind.disqualified)
    if finite < k:
        raise DiscoveryError(f"only {finite} usable individuals, need {k} elites")
    return ranked[:k], ranked[k:]


class DiscoveryRun:
    """One discovery run rooted at ``run_dir`` (checkpointed, resumable)."""

    def __init__(
        self,
        config: DiscoveryConfig,
        gateway: Gateway,
        evaluator: Evaluator,
        train_paths: list[str],
        run_dir,
    ):
        config.check()
        if not train_paths:
            raise ConfigError("discovery needs at least one training instance")
        self.config = config
        self.gateway = gateway
        self.evaluator = evaluator
        self.train_paths = [str(p) for p in train_paths]
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / "checkpoints").mkdir(exist_ok=True)
        manifest = {"config": asdict(config), "train_paths": self.train_paths}
        (self.run_dir / "discovery-config.json").write_text(json.dumps(manifest, indent=2) + "\n")

        self.population: list[Individual] = []
        self.individuals: dict[int, Individual] = {}
        self.next_id = 0
        self.completed_iterations = 0
        self.history: list[dict] = []

    # -- bookkeeping -----------------------------------------------------

    def _new_individual(self, source: str, exchange, parents: tuple[int, ...], kind: str) -> Individual:
        ind = Individual(
            id=self.next_id,
            source=source,
            line_count=count_lines(source),
            parents=parents,
            kind=kind,
            llm={
                "latency_s": exchange.latency,
                "input_tokens": exchange.input_tokens,
                "output_tokens": exchange.output_tokens,
                "retry_count": exchange.retry_count,
            },
        )
        self.next_id += 1
        self.individuals[ind.id] = ind
        return ind

    def _journal(self, ind: Individual) -> None:
        with open(self.run_dir / "individuals.jsonl", "a") as fh:
            fh.write(json.dumps(dict(ind.to_record(), eval_timing=ind.eval_timing, llm=ind.llm)) + "\n")

    def _manifest(self, iteration: int) -> EvalManifest:
        cfg = self.config
        seeds = []
        for i in range(len(self.train_paths)):
            if cfg.vary_eval_seeds:
                seeds.append(derive_seed(cfg.master_seed, "instance", i, iteration))
            else:
                seeds.append(derive_seed(cfg.master_seed, "instance", i))
        return EvalManifest(
            instance_paths=tuple(self.train_paths),
            seeds=tuple(seeds),
            per_instance_time=cfg.per_instance_time,
            per_instance_iterations=cfg.per_instance_iterations,
        )

    def _evaluate_all(self, individuals: list[Individual], iteration: int) -> None:
        """Evaluate individuals as one batch, then journal them in order."""
        manifest = self._manifest(iteration)
        reports = self.evaluator.evaluate_sources([(ind.source, manifest) for ind in individuals])
        for ind, report in zip(individuals, reports):
            ind.eval_status = report.status
            ind.eval_detail = report.objectives() if report.ok else []
            ind.eval_iterations = [r.iterations for r in report.per_instance] if report.ok else []
            ind.eval_timing = [r.timing() for r in report.per_instance]
            ind.fitness = fitness(ind, report, self.config.lam)
            self._journal(ind)

    # -- LLM-facing steps --------------------------------------------------

    def _bindings(self) -> dict:
        return runtime_bindings(self.config.problem, self.config.crossover_bias)

    def _generate(self, template_id: str, extra: dict, temperature: float, nonce: int):
        bindings = dict(self._bindings())
        bindings.update(extra)
        messages = render(template_id, bindings)
        exchange = self.gateway.complete(
            messages,
            temperature=temperature,
            max_tokens=self.config.max_tokens,
            nonce=nonce,
        )
        return extract_code(exchange.response), exchange

    def _generate_with_retry(self, template_id: str, extra: dict, temperature: float, seed_path: tuple):
        """(source, exchange) of the first attempt that yields code, else None."""
        cfg = self.config
        for attempt in range(cfg.retry_limit + 1):
            nonce = derive_seed(cfg.master_seed, *seed_path, attempt)
            try:
                return self._generate(template_id, extra, temperature, nonce)
            except (GatewayError, ExtractionError) as exc:
                log.warning("generation failed (%s, attempt %d): %s", template_id, attempt, exc)
        return None

    def init_population(self) -> None:
        cfg = self.config
        for i in range(cfg.n_init):
            generated = self._generate_with_retry("seed", {}, cfg.temperature_init, ("init", i))
            if generated is None:
                raise DiscoveryError(f"could not generate initial individual {i}")
            self.population.append(self._new_individual(*generated, (), "init"))
            # the first generation evaluates it; its jobs start now
            self.evaluator.prefetch([(generated[0], self._manifest(1))])

    def make_offspring(self, elites: list[Individual], non_elites: list[Individual], iteration: int) -> list[Individual]:
        cfg = self.config
        if not elites or not non_elites:
            raise DiscoveryError("both parent pools must be non-empty")
        rng = make_rng(derive_seed(cfg.master_seed, "breed", iteration))
        template = "crossover" if cfg.crossover_mode == "biased" else "crossover-standard"
        brood: list[Individual] = []
        for i in range(cfg.n_offspring):
            elite = elites[int(rng.integers(len(elites)))]
            non_elite = non_elites[int(rng.integers(len(non_elites)))]
            extra = {"code_parent_1": elite.source, "code_parent_2": non_elite.source}
            generated = self._generate_with_retry(
                template, extra, cfg.temperature_evolve, ("cross", iteration, i)
            )
            if generated is None:
                log.warning("skipping offspring %d of iteration %d after retries", i, iteration)
                continue
            brood.append(self._new_individual(*generated, (elite.id, non_elite.id), "crossover"))
            if iteration < cfg.iterations:
                # the next generation evaluates it; its jobs start now
                self.evaluator.prefetch([(generated[0], self._manifest(iteration + 1))])
        return brood

    def mutate_elites(self, elites: list[Individual], iteration: int) -> list[Individual]:
        """Replace each elite by its mutant where the mutant is strictly better."""
        cfg = self.config
        if not cfg.mutation_enabled:
            return elites
        rng = make_rng(derive_seed(cfg.master_seed, "mutate", iteration))
        mutants: list[Individual | None] = []
        for idx, elite in enumerate(elites):
            kind = MUTATION_KINDS[int(rng.integers(len(MUTATION_KINDS)))]
            generated = self._generate_with_retry(
                kind, {"code": elite.source}, cfg.temperature_evolve, ("mut", iteration, idx)
            )
            if generated is None:
                mutants.append(None)
                continue
            mutants.append(self._new_individual(*generated, (elite.id,), kind))
            self.evaluator.prefetch([(generated[0], self._manifest(iteration))])
        self._evaluate_all([m for m in mutants if m is not None], iteration)
        # strict: ties keep the original
        return [m if m is not None and m.fitness < e.fitness else e for e, m in zip(elites, mutants)]

    # -- checkpointing -----------------------------------------------------

    def _checkpoint(self) -> None:
        keep: dict[int, Individual] = {ind.id: ind for ind in self.population}
        evaluated = [ind for ind in self.individuals.values() if ind.evaluated]
        for ind in sorted(evaluated, key=_rank_key)[: max(self.config.finalist_pool, 10)]:
            keep[ind.id] = ind
        state = {
            "completed_iterations": self.completed_iterations,
            "next_id": self.next_id,
            "population": [ind.id for ind in self.population],
            "history": self.history,
            "individuals": {str(ind.id): ind.to_record() for ind in keep.values()},
        }
        path = self.run_dir / "checkpoints" / f"state-{self.completed_iterations:04d}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state, indent=1))
        tmp.replace(path)
        (self.run_dir / "checkpoints" / "latest.json").write_text(json.dumps(state, indent=1))

    def resume(self) -> None:
        path = self.run_dir / "checkpoints" / "latest.json"
        if not path.exists():
            raise ConfigError(f"no checkpoint to resume in {self.run_dir}")
        state = json.loads(path.read_text())
        self.completed_iterations = state["completed_iterations"]
        self.next_id = state["next_id"]
        self.history = state.get("history", [])
        self.individuals = {
            int(k): Individual.from_record(rec) for k, rec in state["individuals"].items()
        }
        self.population = [self.individuals[i] for i in state["population"]]

    # -- main loop ---------------------------------------------------------

    def run(self, resume: bool = False) -> Individual:
        cfg = self.config
        # the child server's start-up overlaps the first LLM calls
        self.evaluator.start()
        if resume:
            self.resume()
        else:
            self.init_population()
            self._checkpoint()

        for iteration in range(self.completed_iterations + 1, cfg.iterations + 1):
            self._evaluate_all([ind for ind in self.population if not ind.evaluated], iteration)
            elites, non_elites = top_k_elite(self.population, cfg.n_elite)
            offspring = self.make_offspring(elites, non_elites, iteration)
            elites = self.mutate_elites(elites, iteration)
            self.population = list(elites) + offspring
            self.completed_iterations = iteration
            elite_min = min(e.fitness for e in elites)
            self.history.append(
                {
                    "iteration": iteration,
                    "elite_min": elite_min if not math.isinf(elite_min) else None,
                    "elite_ids": [e.id for e in elites],
                    "population": len(self.population),
                }
            )
            self._checkpoint()
            log.info("iteration %d: elite min fitness %s", iteration, elite_min)

        return self.best_individual()

    def best_individual(self) -> Individual:
        evaluated = [ind for ind in self.individuals.values() if ind.evaluated and not ind.disqualified]
        if not evaluated:
            raise DiscoveryError("no successfully evaluated individual")
        return min(evaluated, key=_rank_key)

    def finalists(self) -> list[Individual]:
        """Last-iteration elites plus the all-time best by training fitness."""
        evaluated = [ind for ind in self.individuals.values() if ind.evaluated and not ind.disqualified]
        pool: dict[int, Individual] = {}
        for ind in self.population[: self.config.n_elite]:
            if ind.evaluated and not ind.disqualified:
                pool[ind.id] = ind
        for ind in sorted(evaluated, key=_rank_key)[: self.config.finalist_pool]:
            pool[ind.id] = ind
        return sorted(pool.values(), key=_rank_key)


def select_best_by_validation(
    candidates: list[Individual],
    validation_paths: list[str],
    evaluator: Evaluator,
    master_seed: int,
    per_instance_time: float,
    per_instance_iterations: int | None = None,
) -> Individual:
    """Re-evaluate finalists on held-out instances (no length penalty) and
    return the one with the lowest mean validation objective."""
    if not candidates:
        raise DiscoveryError("no candidates for validation selection")
    if not validation_paths:
        raise ConfigError("validation set is empty")
    manifest = EvalManifest(
        instance_paths=tuple(str(p) for p in validation_paths),
        seeds=tuple(derive_seed(master_seed, "validation", i) for i in range(len(validation_paths))),
        per_instance_time=per_instance_time,
        per_instance_iterations=per_instance_iterations,
    )
    scored: list[Individual] = []
    reports = evaluator.evaluate_sources([(ind.source, manifest) for ind in candidates])
    for ind, report in zip(candidates, reports):
        if not report.ok:
            log.warning("finalist %d disqualified on validation (%s)", ind.id, report.status)
            continue
        objectives = report.objectives()
        ind.validation_mean = sum(objectives) / len(objectives)
        scored.append(ind)
    if not scored:
        raise DiscoveryError("every finalist failed on the validation set")
    return min(scored, key=lambda ind: (ind.validation_mean, ind.id))
