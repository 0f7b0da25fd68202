"""Build and score candidate operator source under process isolation.

``build`` syntax-checks candidate source against the pinned operator
interface and stores it as a content-addressed artifact. ``evaluate`` runs
one supervised child process per training instance: the child executes the
full LNS loop with the candidate operators and emits line-delimited JSON
records on stdout. The child caps its own address space at the manifest's
memory limit before it loads candidate code; the supervisor enforces the
wall-clock limits, rebuilds and re-validates the returned tours with the
core validator (a result without tours is invalid), and maps every failure
mode to a report status. A crashing or resource-hogging candidate
can only ever take down its own child process.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import instances as inst_io
from . import lns
from .candidates import SHIM_VERSION, CandidateBuildError, check_source
from .errors import BuildEnvironmentError
from .model import Solution, validate
from .util import sha256_hex

DISQUALIFIED = math.inf

# wall-clock grace: child gets per_instance_time * 1.1 + 1.0 seconds of run
# time measured from its ready signal; interpreter start-up is bounded
# separately because it happens before the run clock starts.
RUN_GRACE_FACTOR = 1.1
RUN_GRACE_CONST = 1.0
STARTUP_TIMEOUT = 120.0
MAX_CHILD_OUTPUT = 64 * 1024 * 1024


@dataclass(frozen=True)
class EvalManifest:
    """What to run: instance files, per-instance seeds, and limits."""

    instance_paths: tuple[str, ...]
    seeds: tuple[int, ...]
    per_instance_time: float = 20.0
    per_instance_iterations: int | None = None
    memory_limit_bytes: int = 4 * 1024**3
    build_timeout: float = 30.0

    def __post_init__(self):
        if len(self.instance_paths) != len(self.seeds):
            raise ValueError("need exactly one seed per instance")
        if self.per_instance_time <= 0 or self.memory_limit_bytes <= 0:
            raise ValueError("limits must be positive")

    def digest(self) -> str:
        payload = json.dumps(
            [
                list(self.instance_paths),
                list(self.seeds),
                self.per_instance_time,
                self.per_instance_iterations,
                self.memory_limit_bytes,
            ],
            sort_keys=True,
        )
        return sha256_hex(payload)


@dataclass
class InstanceResult:
    id: str
    objective: float
    feasible: bool
    iterations: int
    detail: str = ""


@dataclass
class EvalReport:
    status: str  # ok | compile_error | runtime_error | timeout | invalid_output
    per_instance: list[InstanceResult] = field(default_factory=list)
    build_log: str = ""
    shim_version: str = SHIM_VERSION

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def objectives(self) -> list[float]:
        return [r.objective for r in self.per_instance]


@dataclass(frozen=True)
class BuildArtifact:
    digest: str
    path: Path
    cached: bool


def source_digest(source: str) -> str:
    return sha256_hex(f"shim:{SHIM_VERSION}\n{source}")


def build(source: str, cache_dir) -> BuildArtifact:
    """Compile-check the source and persist it content-addressed.

    Identical source (under the same shim version) maps to the same
    artifact, so repeat builds are served from the cache. Raises
    CandidateBuildError with diagnostics on failure.
    """
    check_source(source)
    digest = source_digest(source)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{digest}.py"
    if path.exists():
        return BuildArtifact(digest=digest, path=path, cached=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(source)
    tmp.replace(path)
    return BuildArtifact(digest=digest, path=path, cached=False)


def fitness_from_report(report: EvalReport, line_count: int, lam: float) -> float:
    """Mean objective plus lam * line_count; any failure disqualifies."""
    if not report.ok or not report.per_instance:
        return DISQUALIFIED
    objectives = report.objectives()
    return sum(objectives) / len(objectives) + lam * line_count


_MAX_LINE = 16 * 1024 * 1024


class _OutputReader(threading.Thread):
    """Drains a child's stdout without letting a flood block or OOM us.

    Chunked reads with manual line splitting: a child writing endless bytes
    with no newline is flagged as a flood instead of growing our buffers,
    and the pipe keeps draining so the child never blocks before the
    supervisor kills it.
    """

    def __init__(self, stream):
        super().__init__(daemon=True)
        self.stream = stream
        self.records: list[dict] = []
        self.bytes_read = 0
        self.flooded = False
        self.ready_at: float | None = None
        self.done_at: float | None = None

    def run(self):
        buf = b""
        while True:
            chunk = self.stream.read1(65536)
            if not chunk:
                break
            self.bytes_read += len(chunk)
            if self.bytes_read > MAX_CHILD_OUTPUT or (self.flooded and not buf):
                self.flooded = True
                buf = b""
                continue
            buf += chunk
            if len(buf) > _MAX_LINE:
                self.flooded = True
                buf = b""
                continue
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                self._handle(line.strip())
        self.stream.close()

    def _handle(self, line: bytes) -> None:
        if not line:
            return
        try:
            record = json.loads(line)
        except ValueError:
            record = {"type": "garbage", "raw": line[:500].decode("utf-8", "replace")}
        if record.get("type") == "ready" and self.ready_at is None:
            self.ready_at = time.monotonic()
        self.records.append(record)
        if record.get("type") in ("result", "error"):
            self.done_at = time.monotonic()


def _run_child(
    artifact: BuildArtifact,
    entry_id: str,
    instance_path: str,
    seed: int,
    manifest: EvalManifest,
    workdir: Path,
) -> tuple[str, dict | None, str]:
    """Run one instance in a supervised subprocess.

    Returns (status, result record or None, detail).
    """
    child_manifest = {
        "id": entry_id,
        "instance": str(instance_path),
        "seed": int(seed),
        "source_path": str(artifact.path),
        "time_limit": manifest.per_instance_time,
        "iteration_limit": manifest.per_instance_iterations,
        "memory_limit": manifest.memory_limit_bytes,
    }
    manifest_path = workdir / f"{entry_id}.json"
    manifest_path.write_text(json.dumps(child_manifest))

    try:
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "routesmith.evalchild", str(manifest_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
    except OSError as exc:
        raise BuildEnvironmentError(f"cannot spawn evaluation child: {exc}") from exc

    reader = _OutputReader(proc.stdout)
    reader.start()
    spawn_at = time.monotonic()
    run_budget = manifest.per_instance_time * RUN_GRACE_FACTOR + RUN_GRACE_CONST

    status = "ok"
    detail = ""
    killed = False
    while True:
        if proc.poll() is not None:
            break
        now = time.monotonic()
        if reader.ready_at is None:
            if now - spawn_at > STARTUP_TIMEOUT:
                status, detail, killed = "runtime_error", "child startup timed out", True
                break
        else:
            if now - reader.ready_at > run_budget:
                status, detail, killed = "timeout", f"exceeded {run_budget:.1f}s run budget", True
                break
        if reader.flooded:
            status, detail, killed = "invalid_output", "child flooded stdout", True
            break
        time.sleep(0.02)

    if killed:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    reader.join(timeout=5)
    stderr_tail = b""
    if proc.stderr is not None:
        try:
            stderr_tail = proc.stderr.read() or b""
        except Exception:
            pass
        proc.stderr.close()
    stderr_text = stderr_tail[-8192:].decode("utf-8", "replace")

    if status != "ok":
        return status, None, f"{detail}; stderr: {stderr_text}" if stderr_text else detail

    result = None
    error_record = None
    for record in reader.records:
        if record.get("type") == "result":
            result = record
        elif record.get("type") == "error":
            error_record = record
    if error_record is not None:
        return "runtime_error", None, str(error_record.get("message", ""))[:2000]
    if proc.returncode != 0:
        return "runtime_error", None, f"exit code {proc.returncode}; stderr: {stderr_text}"
    if result is None:
        return "invalid_output", None, f"no result record; stderr: {stderr_text}"
    return "ok", result, ""


class Evaluator:
    """Scores candidate sources by supervised execution over instances.

    ``workers`` child processes run concurrently; a preflight smoke run on
    one tiny instance gates the full manifest so broken candidates fail
    fast. Reports are cached by (source digest, manifest digest): with
    fixed per-instance seeds and an iteration budget they are
    deterministic.
    """

    def __init__(self, cache_dir, workers: int = 2, smoke_test: bool = True):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.workers = max(1, workers)
        self.smoke_test = smoke_test
        self._report_cache: dict[tuple[str, str], EvalReport] = {}
        self._instance_cache: dict[str, object] = {}
        self._smoke_manifest: EvalManifest | None = None
        # children only load the compiled kernels (they run under RLIMIT_AS),
        # so they are built here, before any child starts
        lns.warm_kernels()

    # -- helpers ---------------------------------------------------------

    def _instance(self, path: str):
        if path not in self._instance_cache:
            self._instance_cache[path] = inst_io.load(path)
        return self._instance_cache[path]

    def _smoke(self) -> EvalManifest:
        if self._smoke_manifest is None:
            path = self.cache_dir / "smoke-instance.txt"
            if not path.exists():
                inst = inst_io.generate(
                    inst_io.GenParams(n=12, seed=987654321, capacity=20)
                )
                inst_io.save(inst, path)
            self._smoke_manifest = EvalManifest(
                instance_paths=(str(path),),
                seeds=(1,),
                per_instance_time=1.0,
                per_instance_iterations=200,
                memory_limit_bytes=4 * 1024**3,
            )
        return self._smoke_manifest

    def _revalidate(self, entry_id: str, record: dict, instance_path: str) -> tuple[str, InstanceResult | None]:
        """Candidate code shares the child's stdout: trust only checked tours."""
        try:
            objective_reported = float(record["objective"])
            feasible_reported = bool(record["feasible"])
            iterations = int(record.get("iterations", 0))
            tours = record["tours"]
        except (KeyError, TypeError, ValueError):
            return "invalid_output", None
        if not feasible_reported or not math.isfinite(objective_reported):
            return "invalid_output", None
        instance = self._instance(instance_path)
        try:
            sol = Solution.from_tours(instance, tours, record.get("unassigned"))
        except Exception:
            return "invalid_output", None
        report = validate(sol)
        if not report.feasible:
            return "invalid_output", None
        if abs(sol.total_objective - objective_reported) > 1e-6:
            return "invalid_output", None
        return "ok", InstanceResult(
            id=entry_id,
            objective=objective_reported,
            feasible=True,
            iterations=iterations,
        )

    def _run_manifest(self, artifact: BuildArtifact, manifest: EvalManifest) -> EvalReport:
        entries = [
            (f"inst-{i:03d}", path, seed)
            for i, (path, seed) in enumerate(zip(manifest.instance_paths, manifest.seeds))
        ]
        # a lazy import keeps concurrent.futures (and the logging it loads)
        # out of processes that import this module but never evaluate
        from concurrent.futures import ThreadPoolExecutor

        results: dict[str, tuple[str, InstanceResult | None, str]] = {}
        with tempfile.TemporaryDirectory(prefix="routesmith-eval-") as tmp:
            workdir = Path(tmp)
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                futures = {
                    entry_id: pool.submit(
                        self._run_entry, artifact, entry_id, path, seed, manifest, workdir
                    )
                    for entry_id, path, seed in entries
                }
                for entry_id, fut in futures.items():
                    results[entry_id] = fut.result()

        per_instance: list[InstanceResult] = []
        for entry_id, _, _ in entries:
            status, result, detail = results[entry_id]
            if status != "ok" or result is None:
                return EvalReport(status=status if status != "ok" else "invalid_output",
                                  per_instance=per_instance, build_log=detail)
            per_instance.append(result)
        return EvalReport(status="ok", per_instance=per_instance)

    def _run_entry(self, artifact, entry_id, path, seed, manifest, workdir):
        status, record, detail = _run_child(artifact, entry_id, path, seed, manifest, workdir)
        if status != "ok":
            return status, None, detail
        status, result = self._revalidate(entry_id, record, path)
        if status != "ok":
            return status, None, "result failed supervisor re-validation"
        return "ok", result, ""

    # -- public API ------------------------------------------------------

    def evaluate(self, artifact: BuildArtifact, manifest: EvalManifest) -> EvalReport:
        key = (artifact.digest, manifest.digest())
        if key in self._report_cache:
            return self._report_cache[key]
        if self.smoke_test:
            smoke_report = self._run_manifest(artifact, self._smoke())
            if not smoke_report.ok:
                report = EvalReport(
                    status=smoke_report.status,
                    build_log=f"preflight smoke failed: {smoke_report.build_log}",
                )
                self._report_cache[key] = report
                return report
        report = self._run_manifest(artifact, manifest)
        self._report_cache[key] = report
        return report

    def evaluate_source(self, source: str, manifest: EvalManifest) -> EvalReport:
        """Build + evaluate, mapping compile failures into the report."""
        try:
            artifact = build(source, self.cache_dir / "artifacts")
        except CandidateBuildError as exc:
            return EvalReport(status="compile_error", build_log=str(exc))
        return self.evaluate(artifact, manifest)
