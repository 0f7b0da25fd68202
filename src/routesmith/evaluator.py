"""Build and score candidate operator source under process isolation.

``build`` syntax-checks candidate source against the pinned operator
interface and stores it as a content-addressed artifact. ``evaluate`` runs
one supervised child process per training instance: the child executes the
full LNS loop with the candidate operators and emits line-delimited JSON
records on stdout. Children fork from a warm server that the ``Evaluator``
starts on its first evaluation (``python -m routesmith.evalchild --serve``):
it has numpy, the package and the compiled kernels loaded and never runs
candidate code itself, and each child starts a new session and closes every
descriptor other than 0-2 before it loads the candidate. The child caps its
own address space at the manifest's memory limit before it loads candidate
code; the supervisor enforces the wall-clock limits, rebuilds and
re-validates the returned tours with the core validator (a result without
tours is invalid), and maps every failure mode to a report status. A
crashing or resource-hogging candidate can only ever take down its own
child process. ``Evaluator.close`` (or leaving its ``with`` block) stops
the server; so does collecting the evaluator or the end of the process.
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
import weakref
from dataclasses import dataclass, field, replace
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
# how often the supervisor checks a running child's budget and output; the
# child's exit wakes it at once
SUPERVISE_TICK = 0.05
# how long the supervisor waits for the server to reap a child it killed
# before it takes the server for stopped and replaces it
REAP_TIMEOUT = 2.0


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
    # measured by the supervisor: submit -> ready, ready -> result, and the
    # child's peak RSS from the server's wait4
    startup_s: float | None = None
    run_s: float | None = None
    peak_rss_mb: float | None = None

    def timing(self) -> dict:
        return {"startup_s": self.startup_s, "run_s": self.run_s, "peak_rss_mb": self.peak_rss_mb}


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


class _ChildServer:
    """The warm ``evalchild --serve`` process that forks evaluation children.

    Jobs go to it over one SOCK_SEQPACKET control socket, one message each:
    the manifest path, with the write ends of the child's stdout and stderr
    pipes and the server's end of a per-job reply socket attached. Closing
    the control socket ends the server, which kills its live jobs first.
    """

    def __init__(self):
        import socket

        self._control, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        # numpy's import would otherwise start a BLAS thread, and the server forks
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "routesmith.evalchild", "--serve", str(theirs.fileno())],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                pass_fds=(theirs.fileno(),),
                env=env,
            )
        except OSError as exc:
            self._control.close()
            raise BuildEnvironmentError(f"cannot start the evaluation server: {exc}") from exc
        finally:
            theirs.close()

    def submit(self, manifest_path: Path, out_w: int, err_w: int):
        """Start one child; returns the supervisor's end of its reply socket."""
        import socket

        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        try:
            socket.send_fds(
                self._control, [os.fsencode(manifest_path)], [out_w, err_w, theirs.fileno()]
            )
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        return ours

    def kill(self) -> None:
        """Kill a server that is gone or not answering, and reap it, so the
        evaluator's next job sees it dead and starts a new one."""
        self.proc.kill()
        self.proc.wait()

    def close(self) -> None:
        self._control.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _reply(sock, timeout: float) -> dict | None:
    """The next message on a job's reply socket: None after ``timeout``, and
    an empty dict once the server is gone (the socket's end of file)."""
    import select

    if not select.select([sock], [], [], timeout)[0]:
        return None
    message = sock.recv(4096)
    return json.loads(message) if message else {}


def _drain(fd: int) -> bytes:
    """What a finished child left in a pipe, without waiting on stragglers."""
    os.set_blocking(fd, False)
    chunks = []
    try:
        while chunk := os.read(fd, 65536):
            chunks.append(chunk)
    except BlockingIOError:
        pass
    finally:
        os.close(fd)
    return b"".join(chunks)


def _run_child(
    server: _ChildServer,
    artifact: BuildArtifact,
    entry_id: str,
    instance_path: str,
    seed: int,
    manifest: EvalManifest,
    workdir: Path,
) -> tuple[str, dict | None, str]:
    """Run one instance in a supervised child forked by ``server``.

    Returns (status, result record or None, detail). An ok record carries
    the supervisor's ``timing`` of the child: ``startup_s``, ``run_s`` and
    ``peak_rss_mb``. A server that is gone fails the job; it never raises.
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

    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    submit_at = time.monotonic()
    try:
        reply = server.submit(manifest_path, out_w, err_w)
    except BaseException as exc:
        os.close(out_r)
        os.close(err_r)
        if not isinstance(exc, OSError):
            raise
        # a candidate may have killed the server; the evaluator replaces it
        server.kill()
        return "runtime_error", None, f"evaluation server stopped: {exc}"
    finally:
        os.close(out_w)
        os.close(err_w)

    reader = _OutputReader(open(out_r, "rb"))
    reader.start()
    run_budget = manifest.per_instance_time * RUN_GRACE_FACTOR + RUN_GRACE_CONST

    status = "ok"
    detail = ""
    pid = None
    exit_info = None
    message = None
    try:
        with reply:
            try:
                while True:
                    message = _reply(reply, SUPERVISE_TICK)
                    if message == {}:
                        stage = "before the child started" if pid is None else "during the run"
                        status, detail = "runtime_error", f"evaluation server stopped {stage}"
                        break
                    if message is not None:
                        if "pid" not in message:
                            exit_info = message
                            break
                        pid = message["pid"]
                    now = time.monotonic()
                    if reader.ready_at is None:
                        if now - submit_at > STARTUP_TIMEOUT:
                            status, detail = "runtime_error", "child startup timed out"
                            break
                    elif now - reader.ready_at > run_budget:
                        status, detail = "timeout", f"exceeded {run_budget:.1f}s run budget"
                        break
                    if reader.flooded:
                        status, detail = "invalid_output", "child flooded stdout"
                        break
            finally:
                if exit_info is None and pid is not None:
                    try:
                        os.killpg(pid, signal.SIGKILL)
                    except (ProcessLookupError, PermissionError):
                        pass
            # the server replies a killed child's exit once it has reaped it
            deadline = time.monotonic() + REAP_TIMEOUT
            while exit_info is None and message != {} and time.monotonic() < deadline:
                message = _reply(reply, deadline - time.monotonic())
                if message and "pid" not in message:
                    exit_info = message
    finally:
        if exit_info is None:
            # the server is gone or not answering: the evaluator replaces it, and
            # the supervisors of its other live jobs kill their groups
            server.kill()
        reader.join(timeout=5)
        stderr_text = _drain(err_r)[-8192:].decode("utf-8", "replace")

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
    if exit_info["returncode"] != 0:
        return "runtime_error", None, f"exit code {exit_info['returncode']}; stderr: {stderr_text}"
    if result is None or reader.ready_at is None:
        missing = "result" if result is None else "ready"
        return "invalid_output", None, f"no {missing} record; stderr: {stderr_text}"
    timing = {
        "startup_s": reader.ready_at - submit_at,
        "run_s": reader.done_at - reader.ready_at,
        "peak_rss_mb": exit_info["maxrss_kb"] / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    return "ok", dict(result, timing=timing), ""


class Evaluator:
    """Scores candidate sources by supervised execution over instances.

    ``workers`` child processes run concurrently, each forked from the
    evaluator's warm child server; a preflight smoke run on one tiny
    instance gates the full manifest so broken candidates fail fast.
    Reports are cached by (source digest, manifest digest): with fixed
    per-instance seeds and an iteration budget they are deterministic.
    Use it as a context manager, or call ``close``, to stop the server.
    """

    def __init__(self, cache_dir, workers: int = 2, smoke_test: bool = True):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.workers = max(1, workers)
        self.smoke_test = smoke_test
        self._report_cache: dict[tuple[str, str], EvalReport] = {}
        self._instance_cache: dict[str, object] = {}
        self._smoke_manifest: EvalManifest | None = None
        # started by the first child, so an evaluator that never evaluates costs nothing
        self._server: _ChildServer | None = None
        self._server_lock = threading.Lock()
        self._close_server: weakref.finalize | None = None
        # children only load the compiled kernels (they run under RLIMIT_AS),
        # so they are built here, before any child starts
        lns.warm_kernels()

    def _child_server(self) -> _ChildServer:
        with self._server_lock:
            if self._server is not None and self._server.proc.poll() is not None:
                self._close_server()  # a candidate may have killed it
                self._server = None
            if self._server is None:
                self._server = _ChildServer()
                # an evaluator collected or alive at exit still stops its server
                self._close_server = weakref.finalize(self, self._server.close)
            return self._server

    def close(self) -> None:
        """Stop the child server; a later evaluation starts a new one."""
        with self._server_lock:
            if self._close_server is not None:
                self._close_server()
            self._server = self._close_server = None

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

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
        status, record, detail = _run_child(
            self._child_server(), artifact, entry_id, path, seed, manifest, workdir
        )
        if status != "ok":
            return status, None, detail
        status, result = self._revalidate(entry_id, record, path)
        if status != "ok":
            return status, None, "result failed supervisor re-validation"
        return "ok", replace(result, **record["timing"]), ""

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
