"""Build and score candidate operator source under process isolation.

``build`` syntax-checks candidate source against the pinned operator
interface and stores it as a content-addressed artifact.
``evaluate_sources`` scores a batch of candidates (``prefetch`` queues one
without waiting): every job of every candidate (a preflight smoke run on one
tiny instance, and one run per training instance) goes to the evaluator's
one pool of ``workers`` supervised child processes, smoke runs first, so the
smoke run runs beside the training runs instead of ahead of them. Each child
executes the full LNS loop with the candidate operators and emits
line-delimited JSON records on stdout. The supervisor reads its stdout and
stderr while it runs and ignores stdout lines that are not protocol records;
a failure's report (other than the candidate's own exception) keeps the last
8 KiB of stderr. Children fork from a warm server that the ``Evaluator``
starts on its first evaluation, or at ``start`` (``python -m
routesmith.evalchild --serve``): it has numpy, the package and the compiled
kernels loaded and never runs candidate code itself, and each child starts a
new session and closes every descriptor other than 0-2 before it loads the
candidate. The child caps its own address space at the manifest's memory
limit before it loads candidate code; the supervisor enforces the wall-clock
limits, rebuilds and re-validates the returned tours with the core validator
(a result without tours is invalid), and maps every failure mode to a report
status. A crashing or resource-hogging candidate can only ever take down its
own child process; one that stops the server fails its own evaluation, and
the jobs of other candidates that were on that server run again, alone.
``Evaluator.close`` (or leaving its ``with`` block) stops the server; so
does collecting the evaluator or the end of the process.
"""

from __future__ import annotations

import json
import math
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from contextlib import contextmanager
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
# the status of a job killed because a lower-index job of its candidate
# failed; the lower failure decides the report, so it never reaches one
CANCELLED = "cancelled"


@dataclass(frozen=True)
class EvalManifest:
    """What to run: instance files, per-instance seeds, and limits."""

    instance_paths: tuple[str, ...]
    seeds: tuple[int, ...]
    per_instance_time: float = 20.0
    per_instance_iterations: int | None = None
    memory_limit_bytes: int = 4 * 1024**3

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


class _StdoutParser:
    """Splits a child's stdout, fed chunk by chunk, into protocol records.

    More than ``MAX_CHILD_OUTPUT`` bytes, or a line longer than
    ``_MAX_LINE``, is flagged as a flood instead of growing our buffers, and
    what follows is dropped. A line that is not a JSON object is ignored.
    """

    def __init__(self):
        self.records: list[dict] = []
        self.bytes_read = 0
        self.flooded = False
        self.ready_at: float | None = None
        self.done_at: float | None = None
        self._buf = b""

    def feed(self, chunk: bytes) -> None:
        self.bytes_read += len(chunk)
        self._buf += chunk
        if self.flooded or self.bytes_read > MAX_CHILD_OUTPUT or len(self._buf) > _MAX_LINE:
            self.flooded = True
            self._buf = b""
            return
        while b"\n" in self._buf:
            line, self._buf = self._buf.split(b"\n", 1)
            self._handle(line.strip())

    def _handle(self, line: bytes) -> None:
        try:
            record = json.loads(line)
        except ValueError:
            return
        if not isinstance(record, dict):  # a bare number or string a candidate printed
            return
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
    ``tenants`` holds the artifact digests of the candidates it ran jobs for.
    """

    def __init__(self):
        import socket

        self.tenants: set[str] = set()
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


def _kill_group(pid: int | None) -> None:
    """Kill a forked child's group (it ran setsid before it sent its pid)."""
    if pid is not None:
        try:
            os.killpg(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def _run_child(
    server: _ChildServer,
    artifact: BuildArtifact,
    entry_id: str,
    instance_path: str,
    seed: int,
    manifest: EvalManifest,
    workdir: Path,
    stop=None,
) -> tuple[str, dict | None, str]:
    """Run one instance in a supervised child forked by ``server``.

    One ``select`` loop in the calling thread reads the child's stdout and
    stderr while it runs, and its exit from the reply socket. Stdout lines
    that are not protocol records are ignored. Returns (status, result
    record or None, detail); the detail of a failure other than an error
    record ends with the last 8 KiB of stderr. An ok record carries the
    supervisor's ``timing`` of the child: ``startup_s``, ``run_s`` and
    ``peak_rss_mb``. A server that is gone fails the job; it never raises.
    A timeout, a flood, or ``stop()`` turning true kills the child at the
    next tick; a stopped job ends ``CANCELLED``.
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

    stdout = _StdoutParser()
    stderr = bytearray()

    def keep_stderr_tail(chunk: bytes) -> None:
        stderr.extend(chunk)
        del stderr[:-8192]  # a failure's detail keeps the last 8 KiB

    pipes = {out_r: stdout.feed, err_r: keep_stderr_tail}  # the ones not at their end
    run_budget = manifest.per_instance_time * RUN_GRACE_FACTOR + RUN_GRACE_CONST

    status = "ok"
    detail = ""
    pid = None
    exit_info = None
    reap_by = None  # set when the child is killed
    try:
        with reply:
            while True:
                readable = select.select([reply, *pipes], [], [], SUPERVISE_TICK)[0]
                for fd in readable:
                    if fd is not reply:
                        chunk = os.read(fd, 65536)
                        if chunk:
                            pipes[fd](chunk)
                        else:
                            del pipes[fd]  # at its end a pipe stays readable
                if reply in readable:
                    message = reply.recv(4096)
                    if not message:  # the server is gone
                        if reap_by is None:
                            stage = "before the child started" if pid is None else "during the run"
                            status, detail = "runtime_error", f"evaluation server stopped {stage}"
                        break
                    message = json.loads(message)
                    if "pid" not in message:
                        exit_info = message
                        break
                    pid = message["pid"]
                now = time.monotonic()
                if reap_by is not None:
                    # the server replies a killed child's exit once it has reaped it
                    if now > reap_by:
                        break
                    continue
                if stdout.ready_at is None and now - submit_at > STARTUP_TIMEOUT:
                    status, detail = "runtime_error", "child startup timed out"
                elif stdout.ready_at is not None and now - stdout.ready_at > run_budget:
                    status, detail = "timeout", f"exceeded {run_budget:.1f}s run budget"
                elif stdout.flooded:
                    status, detail = "invalid_output", "child flooded stdout"
                # only a forked child can be killed and reaped
                elif pid is not None and stop is not None and stop():
                    status, detail = CANCELLED, "a lower-index job failed"
                if status != "ok":
                    _kill_group(pid)
                    reap_by = now + REAP_TIMEOUT
    finally:
        if exit_info is None:
            # the server is gone or not answering: the evaluator replaces it, and
            # the supervisors of its other live jobs kill their groups
            _kill_group(pid)
            server.kill()
        # what the child left in its pipes; a grandchild that ran setsid may
        # still hold them, so read without waiting and at most the flood limit
        budget = MAX_CHILD_OUTPUT
        for fd in (out_r, err_r):
            if fd in pipes:
                os.set_blocking(fd, False)
                try:
                    while budget > 0 and (chunk := os.read(fd, 65536)):
                        budget -= len(chunk)
                        pipes[fd](chunk)
                except BlockingIOError:
                    pass
            os.close(fd)
    stderr_text = stderr.decode("utf-8", "replace")

    if status != "ok":
        return status, None, f"{detail}; stderr: {stderr_text}" if stderr_text else detail

    result = None
    error_record = None
    for record in stdout.records:
        if record.get("type") == "result":
            result = record
        elif record.get("type") == "error":
            error_record = record
    if error_record is not None:
        return "runtime_error", None, str(error_record.get("message", ""))[:2000]
    if exit_info["returncode"] != 0:
        return "runtime_error", None, f"exit code {exit_info['returncode']}; stderr: {stderr_text}"
    if result is None or stdout.ready_at is None:
        missing = "result" if result is None else "ready"
        return "invalid_output", None, f"no {missing} record; stderr: {stderr_text}"
    timing = {
        "startup_s": stdout.ready_at - submit_at,
        "run_s": stdout.done_at - stdout.ready_at,
        "peak_rss_mb": exit_info["maxrss_kb"] / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    return "ok", dict(result, timing=timing), ""


class _Candidate:
    """One artifact's jobs: the smoke run is job -1, instance i is job i.

    ``first_failure`` is the lowest index of a job that failed so far. A job
    above it is dropped before it starts, or killed at its supervisor's next
    tick; lower jobs run on, as one of them may still fail and decide the
    report. The job manifests live in ``workdir``, removed with the last job.
    """

    def __init__(self, artifact: BuildArtifact, manifest: EvalManifest, smoke: bool):
        self.artifact = artifact
        self.manifest = manifest
        self.smoke = smoke
        self.outcomes: dict[int, tuple[str, InstanceResult | None, str]] = {}
        self.first_failure = math.inf
        self.error: BaseException | None = None
        self._left = len(manifest.instance_paths) + smoke
        self._lock = threading.Lock()
        self._done = threading.Event()
        self.workdir = Path(tempfile.mkdtemp(prefix="routesmith-eval-")) if self._left else None
        if not self._left:
            self._done.set()

    def record(self, index: int, outcome=None, error: BaseException | None = None) -> None:
        """A job ended: with an outcome, dropped (neither), or raising."""
        with self._lock:
            if error is not None:
                self.error = self.error or error
                self.first_failure = -math.inf
            elif outcome is not None:
                self.outcomes[index] = outcome
                if outcome[0] != "ok":
                    self.first_failure = min(self.first_failure, index)
            self._left -= 1
            if not self._left:
                shutil.rmtree(self.workdir, ignore_errors=True)
                self._done.set()

    def stop(self) -> None:
        """Drop the jobs that have not started and kill the running ones."""
        with self._lock:
            self.first_failure = -math.inf

    def report(self) -> EvalReport:
        """Wait for every job; the lowest-index failure decides, as in a serial run."""
        self._done.wait()
        if self.error is not None:
            raise self.error
        if self.smoke:
            status, _, detail = self.outcomes[-1]
            if status != "ok":
                return EvalReport(status=status, build_log=f"preflight smoke failed: {detail}")
        per_instance: list[InstanceResult] = []
        for index in range(len(self.manifest.instance_paths)):
            status, result, detail = self.outcomes[index]
            if status != "ok":
                return EvalReport(status=status, per_instance=per_instance, build_log=detail)
            per_instance.append(result)
        return EvalReport(status="ok", per_instance=per_instance)


class _JobGate:
    """Lets jobs run side by side, or one job run alone.

    A job waiting to run alone holds back the jobs that have not started
    yet, and starts once the running ones have ended.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._running = 0  # -1 while a job runs alone
        self._waiting_alone = 0

    @contextmanager
    def hold(self, alone: bool):
        with self._cond:
            if alone:
                self._waiting_alone += 1
                self._cond.wait_for(lambda: self._running == 0)
                self._waiting_alone -= 1
                self._running = -1
            else:
                self._cond.wait_for(lambda: self._running >= 0 and not self._waiting_alone)
                self._running += 1
        try:
            yield
        finally:
            with self._cond:
                self._running = 0 if alone else self._running - 1
                self._cond.notify_all()


class Evaluator:
    """Scores candidate sources by supervised execution over instances.

    Every job runs on the evaluator's one pool of ``workers`` child
    processes, each forked from its warm child server: ``prefetch`` queues a
    batch's jobs, and ``evaluate_sources`` queues what is not queued yet and
    waits for the reports. With ``smoke_test`` on, a smoke run on one tiny
    instance runs beside each candidate's training runs; its verdict is kept
    per artifact, so a source is smoke-run once per evaluator. A candidate's
    first failure stops its later jobs. A candidate's child can stop the
    server that forked it, and with it the jobs of other candidates: a job
    whose server ended after it ran jobs of more than one candidate runs
    again alone, where the outcome is its own. Reports are cached by (source
    digest, manifest digest): with fixed per-instance seeds and an iteration
    budget they are deterministic, and each equals the report of a serial
    run. The evaluator is driven from one thread at a time. Use it as a
    context manager, or call ``close``, to stop the pool and the server.
    """

    def __init__(self, cache_dir, workers: int = 2, smoke_test: bool = True):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.workers = max(1, workers)
        self.smoke_test = smoke_test
        self._report_cache: dict[tuple[str, str], EvalReport] = {}
        # artifact digest -> (status, detail) of its smoke run
        self._smoke_verdicts: dict[str, tuple[str, str]] = {}
        self._instance_cache: dict[str, object] = {}
        self._smoke_manifest: EvalManifest | None = None
        # candidates whose jobs are queued or running, by report-cache key
        self._in_flight: dict[tuple[str, str], _Candidate] = {}
        self._pool = None  # the job pool, made by the first job
        self._gate = _JobGate()
        # started by the first child or by start(), so an evaluator that never
        # evaluates costs nothing
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

    def start(self) -> None:
        """Start the child server unless it is running, without waiting for
        its imports, so that its start-up overlaps the caller's own work."""
        self._child_server()

    def close(self) -> None:
        """Stop the jobs, the pool and the child server; a later evaluation
        starts new ones."""
        for cand in self._in_flight.values():
            cand.stop()
        self._in_flight.clear()
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
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

    def _prepare(self, source: str, manifest: EvalManifest, key: tuple[str, str]):
        """A batch slot: the report, when no job has to run, or the candidate."""
        try:
            artifact = build(source, self.cache_dir / "artifacts")
        except CandidateBuildError as exc:
            return EvalReport(status="compile_error", build_log=str(exc))
        if key in self._report_cache:
            return self._report_cache[key]
        verdict = self._smoke_verdicts.get(artifact.digest) if self.smoke_test else ("ok", "")
        if verdict is None:
            self._smoke()  # its instance file is written before any job starts
        elif verdict[0] != "ok":
            report = EvalReport(status=verdict[0], build_log=f"preflight smoke failed: {verdict[1]}")
            self._report_cache[key] = report
            return report
        return _Candidate(artifact, manifest, smoke=verdict is None)

    def _run_job(self, cand: _Candidate, index: int) -> None:
        try:
            if index < 0:
                manifest, entry_id = self._smoke(), "smoke"
                path, seed = manifest.instance_paths[0], manifest.seeds[0]
            else:
                manifest, entry_id = cand.manifest, f"inst-{index:03d}"
                path, seed = manifest.instance_paths[index], manifest.seeds[index]
            for alone in (False, True):
                with self._gate.hold(alone):
                    if cand.first_failure < index:
                        cand.record(index)  # dropped: a lower-index job failed
                        return
                    server = self._child_server()
                    server.tenants.add(cand.artifact.digest)
                    status, record, detail = _run_child(
                        server, cand.artifact, entry_id, path, seed, manifest,
                        cand.workdir, stop=lambda: cand.first_failure < index,
                    )
                # any candidate with a job on a server that ended may have
                # stopped it; unless that is this one alone, the job runs
                # again alone, where the outcome is its own
                if server.proc.poll() is None or server.tenants == {cand.artifact.digest}:
                    break
            if status == "ok":
                status, result = self._revalidate(entry_id, record, path)
                if status == "ok":
                    outcome = ("ok", replace(result, **record["timing"]), "")
                else:
                    outcome = (status, None, "result failed supervisor re-validation")
            else:
                outcome = (status, None, detail)
            if index < 0 and status != CANCELLED:
                self._smoke_verdicts[cand.artifact.digest] = (outcome[0], outcome[2])
        except BaseException as exc:  # re-raised by the candidate's report()
            cand.record(index, error=exc)
        else:
            cand.record(index, outcome)

    def _queue(self, items) -> dict:
        """Queue the jobs of (source, manifest) pairs not yet queued.

        Returns a slot per pair: its report when no job has to run (a compile
        error, a cached report, a failed smoke verdict), else its candidate.
        The smoke runs of the batch are queued first.
        """
        slots: dict[tuple[str, str], object] = {}
        fresh: list[_Candidate] = []
        for source, manifest in items:
            key = (source_digest(source), manifest.digest())
            if key in slots:
                continue
            slot = self._in_flight.get(key)
            if slot is None:
                slot = self._prepare(source, manifest, key)
                if isinstance(slot, _Candidate):
                    self._in_flight[key] = slot
                    fresh.append(slot)
            slots[key] = slot
        if fresh and self._pool is None:
            # a lazy import keeps concurrent.futures (and the logging it loads)
            # out of processes that import this module but never evaluate
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(self.workers, thread_name_prefix="routesmith-eval")
        jobs = [(c, -1) for c in fresh if c.smoke]
        jobs += [(c, i) for c in fresh for i in range(len(c.manifest.instance_paths))]
        for cand, index in jobs:
            self._pool.submit(self._run_job, cand, index)
        return slots

    # -- public API ------------------------------------------------------

    def prefetch(self, items: list[tuple[str, EvalManifest]]) -> None:
        """Queue the jobs of (source, manifest) pairs and return at once.

        A later ``evaluate_sources`` of the same pairs waits for these jobs
        instead of running them again, so a caller can start evaluating a
        candidate as soon as it exists.
        """
        self._queue(items)

    def evaluate_sources(self, items: list[tuple[str, EvalManifest]]) -> list[EvalReport]:
        """Build and evaluate (source, manifest) pairs; one report per pair.

        The jobs go to the evaluator's pool of ``workers``: the smoke runs
        first, then each candidate's instances in order. Compile failures map
        to a ``compile_error`` report; a pair met before (in this batch, in
        the report cache or among the prefetched ones) runs once.
        """
        slots = self._queue(items)
        try:
            return [self.evaluate_source(source, manifest) for source, manifest in items]
        finally:
            for key, slot in slots.items():
                if self._in_flight.get(key) is slot:  # not collected: the batch raised
                    slot.stop()
                    del self._in_flight[key]

    def evaluate_source(self, source: str, manifest: EvalManifest) -> EvalReport:
        """Build + evaluate one source: the one-item case of ``evaluate_sources``.

        Jobs already queued for the pair (by a batch or ``prefetch``) are
        waited for, not queued again.
        """
        (key, slot), = self._queue([(source, manifest)]).items()
        if not isinstance(slot, _Candidate):
            return slot
        try:
            report = slot.report()
        except BaseException:
            slot.stop()
            raise
        finally:
            del self._in_flight[key]
        self._report_cache[key] = report
        return report
