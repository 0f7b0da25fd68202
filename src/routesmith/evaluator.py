"""Build and score candidate operator source under process isolation.

``build`` syntax-checks candidate source against the pinned operator
interface and stores it as a content-addressed artifact.
``evaluate_sources`` scores a batch of candidates (``prefetch`` queues one
without waiting). Each (source, manifest) pair is one evaluation whose jobs,
one per training instance, go to the evaluator's one pool of ``workers``
supervised child processes. With the smoke test on, the evaluation of the
same source on one tiny instance is its gate: it is queued first and runs
beside the training runs, and its failure stops them and decides the
report. Each child
executes the full LNS loop with the candidate operators and sends its JSON
protocol records on fd 1, a SOCK_SEQPACKET socket, so the kernel frames each
record as one message; the candidate's ``print`` goes to stderr. The
supervisor reads the records and stderr while the child runs and ignores a
message that is not a JSON object; a failure's report keeps the last 8 KiB
of stderr. Children fork from a warm server that the ``Evaluator``
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
the jobs of other candidates that were on that server run again, each on a
server of its own.
``Evaluator.close`` (or leaving its ``with`` block) stops the server; so
does collecting the evaluator or the end of the process.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import select
import signal
import subprocess
import sys
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
# the child's record and stderr bytes together
MAX_CHILD_OUTPUT = 64 * 1024 * 1024
# a receive buffer above the default AF_UNIX send limit (net.core.wmem_default,
# 208 KiB), so every record a child can send fits; a larger one arrives
# truncated, is not JSON, and is ignored
_MAX_RECORD = 1 << 20
# what a record costs against MAX_CHILD_OUTPUT at least, so that a flood of
# tiny messages trips the cap too
_RECORD_CHARGE = 1024
# how often the supervisor checks a running child's budget and output; the
# child's exit wakes it at once
SUPERVISE_TICK = 0.05
# how long the supervisor waits for the server to reap a child it killed
# before it takes the server for stopped and replaces it
REAP_TIMEOUT = 2.0
# the status of a job killed because a lower-index job of its evaluation,
# or its gate, failed; that failure decides the report, so it never reaches one
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
        return sha256_hex(json.dumps(dataclasses.astuple(self), sort_keys=True))


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


class _ChildServer:
    """The warm ``evalchild --serve`` process that forks evaluation children.

    Jobs go to it over one SOCK_SEQPACKET control socket, one message each:
    the child's manifest as JSON, with the child's ends of its record socket
    and stderr pipe and the server's end of a per-job reply socket attached.
    Closing the control socket ends the server, which kills its live jobs
    first.
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

    def submit(self, child_manifest: dict, out_w: int, err_w: int):
        """Start one child; returns the supervisor's end of its reply socket."""
        import socket

        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        try:
            socket.send_fds(
                self._control, [json.dumps(child_manifest).encode()], [out_w, err_w, theirs.fileno()]
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


def _ended(sock) -> bool:
    """Whether a read of no bytes from the SOCK_SEQPACKET socket ``sock``
    was its end. An empty message and the peer's close both read as no
    bytes; it is the end once the peer has hung up and no queued message
    holds a byte (an empty one left carries nothing)."""
    import array
    import fcntl
    import termios

    poller = select.poll()
    poller.register(sock, select.POLLIN)
    if not any(events & select.POLLHUP for _, events in poller.poll(0)):
        return False
    queued = array.array("i", [0])
    fcntl.ioctl(sock, termios.FIONREAD, queued)  # the bytes of every queued message
    return queued[0] == 0


def _run_child(
    server: _ChildServer,
    artifact: BuildArtifact,
    entry_id: str,
    instance_path: str,
    seed: int,
    manifest: EvalManifest,
    stop=None,
) -> tuple[str, dict | None, str]:
    """Run one instance in a supervised child forked by ``server``.

    One ``select`` loop in the calling thread reads the child's records (one
    message each on its SOCK_SEQPACKET fd 1) and stderr while it runs, and
    its exit from the reply socket. A message that is not a JSON object,
    the empty message included, is ignored. Returns (status, result record
    or None, detail); the detail of a failure ends with the last 8 KiB of
    stderr, after an error record's message if there is one. An ok record carries the supervisor's
    ``timing`` of the child: ``startup_s``, ``run_s`` and ``peak_rss_mb``.
    A server that is gone fails the job; it never raises. A timeout, more
    than ``MAX_CHILD_OUTPUT`` bytes of records and stderr (a record counts
    at least ``_RECORD_CHARGE``), or ``stop()`` turning true kills the child
    at the next tick; a stopped job ends ``CANCELLED``. Each wake-up takes
    everything queued, so a flood of tiny records costs few ``select`` rounds.
    """
    import mmap
    import socket

    child_manifest = {
        "id": entry_id,
        "instance": str(instance_path),
        "seed": int(seed),
        "source_path": str(artifact.path),
        "time_limit": manifest.per_instance_time,
        "iteration_limit": manifest.per_instance_iterations,
        "memory_limit": manifest.memory_limit_bytes,
    }
    out, out_w = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
    err_r, err_w = os.pipe()
    submit_at = time.monotonic()
    try:
        reply = server.submit(child_manifest, out_w.fileno(), err_w)
    except BaseException as exc:
        out.close()
        os.close(err_r)
        if not isinstance(exc, OSError):
            raise
        # a candidate may have killed the server; the evaluator replaces it
        server.kill()
        return "runtime_error", None, f"evaluation server stopped: {exc}"
    finally:
        out_w.close()
        os.close(err_w)

    output = 0  # record and stderr bytes read, a record at least _RECORD_CHARGE
    stderr = bytearray()
    ready_at = done_at = result = error_record = None
    # every record is received into it; a page of it takes memory only once
    # a record is written there, unlike a zero-filled bytearray
    buffer = mmap.mmap(-1, _MAX_RECORD)
    out.setblocking(False)
    os.set_blocking(err_r, False)

    def take(message) -> None:
        """Note a record: ``ready``, ``result`` or ``error``."""
        nonlocal ready_at, done_at, result, error_record
        try:
            record = json.loads(message)
        except (ValueError, RecursionError):
            return
        kind = record.get("type") if isinstance(record, dict) else None
        if kind == "ready" and ready_at is None:
            ready_at = time.monotonic()
        elif kind == "result":
            result, done_at = record, time.monotonic()
        elif kind == "error":
            error_record, done_at = record, time.monotonic()

    def read(source) -> bool:
        """Take everything queued on ``source`` without waiting, up to the
        flood limit: every record, or stderr chunks. False once nothing more
        is taken from it: at its end, or past the flood limit."""
        nonlocal output
        try:
            while output <= MAX_CHILD_OUTPUT:
                if source is out:
                    size = out.recv_into(buffer)
                    output += max(size, _RECORD_CHARGE)
                    if size:
                        take(buffer[:size])
                    elif _ended(out):
                        return False
                else:
                    chunk = os.read(err_r, 65536)
                    if not chunk:
                        return False
                    output += len(chunk)
                    stderr.extend(chunk)
                    del stderr[:-8192]  # a failure's detail keeps the last 8 KiB
        except BlockingIOError:
            return True
        return False

    watched = [out, err_r]  # the ones not at their end
    run_budget = manifest.per_instance_time * RUN_GRACE_FACTOR + RUN_GRACE_CONST

    status = "ok"
    detail = ""
    pid = None
    exit_info = None
    reap_by = None  # set when the child is killed
    try:
        with reply:
            while True:
                readable = select.select([reply, *watched], [], [], SUPERVISE_TICK)[0]
                for source in readable:
                    if source is not reply and not read(source):
                        watched.remove(source)  # else it stays readable
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
                if ready_at is None and now - submit_at > STARTUP_TIMEOUT:
                    status, detail = "runtime_error", "child startup timed out"
                elif ready_at is not None and now - ready_at > run_budget:
                    status, detail = "timeout", f"exceeded {run_budget:.1f}s run budget"
                elif output > MAX_CHILD_OUTPUT:
                    status, detail = "invalid_output", "child flooded its output"
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
        # what the child left queued, the result too; a grandchild that ran
        # setsid may still hold its ends, so read without waiting and only up
        # to the flood limit
        for source in watched:
            read(source)
        out.close()
        os.close(err_r)
        buffer.close()
    stderr_text = stderr.decode("utf-8", "replace")

    if status != "ok":
        return status, None, f"{detail}; stderr: {stderr_text}" if stderr_text else detail
    if error_record is not None:
        message = str(error_record.get("message", ""))[:2000]
        return "runtime_error", None, f"{message}; stderr: {stderr_text}" if stderr_text else message
    if exit_info["returncode"] != 0:
        return "runtime_error", None, f"exit code {exit_info['returncode']}; stderr: {stderr_text}"
    if result is None or ready_at is None:
        missing = "result" if result is None else "ready"
        return "invalid_output", None, f"no {missing} record; stderr: {stderr_text}"
    timing = {
        "startup_s": ready_at - submit_at,
        "run_s": done_at - ready_at,
        "peak_rss_mb": exit_info["maxrss_kb"] / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    return "ok", dict(result, timing=timing), ""


class _Evaluation:
    """One artifact on one manifest: job i runs instance i.

    ``jobs`` are the pool's futures until the report is computed; a job
    returns its outcome, or None when it was dropped. ``label`` formats a
    job's entry id: ``"inst-{:03d}"``, or ``"smoke"`` for the smoke
    evaluation. ``first_failure`` is the lowest index of a job that failed
    so far. A job above it is dropped before it starts, or killed at its
    supervisor's next tick; lower jobs run on, as one of them may still
    fail and decide the report. A failed ``gate`` (the smoke evaluation of
    the same artifact) stops every job.
    """

    def __init__(
        self, key, artifact: BuildArtifact, manifest: EvalManifest, label: str, gate: _Evaluation | None = None
    ):
        self.key = key
        self.artifact = artifact
        self.manifest = manifest
        self.label = label
        self.gate = gate
        self.jobs: list = []
        self.first_failure = math.inf
        self._lock = threading.Lock()
        self._report: EvalReport | None = None

    def failed(self, index: float) -> None:
        with self._lock:
            self.first_failure = min(self.first_failure, index)

    def stop(self) -> None:
        """Drop the jobs that have not started and kill the running ones."""
        self.failed(-math.inf)

    def stopped(self, index: int) -> bool:
        return self.first_failure < index or (self.gate is not None and self.gate.first_failure < math.inf)

    def done(self) -> bool:
        """Reported, or every job ended and so did the gate's."""
        return self._report is not None or (
            all(job.done() for job in self.jobs) and (self.gate is None or self.gate.done()))

    def report(self) -> EvalReport:
        """Wait for the gate and every job; the gate's failure decides first,
        then the lowest-index failure, as in a serial run. Computed once; the
        jobs' futures are dropped then, and the evaluation stays done."""
        if self._report is None:
            self._report = self._decide()
            self.jobs = []
        return self._report

    def _decide(self) -> EvalReport:
        gate = self.gate.report() if self.gate is not None else None
        outcomes = [job.result() for job in self.jobs]  # raises a job's exception
        if gate is not None and not gate.ok:
            return EvalReport(status=gate.status, build_log=f"preflight smoke failed: {gate.build_log}")
        per_instance: list[InstanceResult] = []
        for status, result, detail in outcomes:  # a dropped job only follows a failure
            if status != "ok":
                return EvalReport(status=status, per_instance=per_instance, build_log=detail)
            per_instance.append(result)
        return EvalReport(status="ok", per_instance=per_instance)


class Evaluator:
    """Scores candidate sources by supervised execution over instances.

    Every job runs on the evaluator's one pool of ``workers`` child
    processes, each forked from its warm child server: ``prefetch`` queues a
    batch's jobs, and ``evaluate_sources`` queues what is not queued yet and
    waits for the reports. One memo keeps an evaluation per (source digest,
    manifest digest), queued, running or reported. With ``smoke_test`` on, a
    source's evaluation on one tiny smoke instance gates each of its
    evaluations: it runs beside their training runs, once per source, and
    its failure stops them and becomes their report. An evaluation's first
    failure stops its later jobs. A candidate's child can stop the server
    that forked it, and with it the jobs of other candidates: a job whose
    server ended after it ran jobs of more than one candidate runs again on
    a server of its own, where the outcome is its own. With fixed
    per-instance seeds and an iteration budget reports are deterministic,
    and each equals the report of a serial run. The evaluator is driven from
    one thread at a time. Use it as a context manager, or call ``close``, to
    stop the pool and the server.
    """

    def __init__(self, cache_dir, workers: int = 2, smoke_test: bool = True):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.workers = max(1, workers)
        self.smoke_test = smoke_test
        # (source digest, manifest digest) -> its evaluation, queued, running
        # or reported; the smoke evaluations are among them
        self._evaluations: dict[tuple[str, str], _Evaluation] = {}
        self._instance_cache: dict[str, object] = {}
        self._smoke_manifest: EvalManifest | None = None
        self._pool = None  # the job pool, made by the first job
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
        starts new ones. Unfinished evaluations are forgotten, finished ones
        kept."""
        for ev in [ev for ev in self._evaluations.values() if not ev.done()]:
            self._forget(ev)
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

    def _run_job(self, ev: _Evaluation, index: int):
        """Run job ``index`` of ``ev``: its outcome, or None when it was dropped."""

        def stopped() -> bool:
            return ev.stopped(index)

        manifest, entry_id = ev.manifest, ev.label.format(index)
        path, seed = manifest.instance_paths[index], manifest.seeds[index]
        try:
            if stopped():
                return None
            server = self._child_server()
            server.tenants.add(ev.artifact.digest)
            run = (ev.artifact, entry_id, path, seed, manifest, stopped)
            status, record, detail = _run_child(server, *run)
            # any candidate with a job on a server that ended may have stopped
            # it; unless that is this one alone, the outcome is not the job's own
            if server.proc.poll() is not None and server.tenants != {ev.artifact.digest}:
                if stopped():
                    return None
                own = _ChildServer()  # the job runs again where nothing else runs
                try:
                    status, record, detail = _run_child(own, *run)
                finally:
                    own.close()
            if status == "ok":
                status, result = self._revalidate(entry_id, record, path)
                if status == "ok":
                    return "ok", replace(result, **record["timing"]), ""
                detail = "result failed supervisor re-validation"
        except BaseException:  # re-raised by the evaluation's report()
            ev.stop()
            raise
        ev.failed(index)
        return status, None, detail

    def _evaluation(
        self, artifact: BuildArtifact, manifest: EvalManifest, label: str, gate: _Evaluation | None = None
    ) -> _Evaluation:
        """The memo's evaluation of ``artifact`` on ``manifest``; a new one is
        queued on the pool."""
        key = (artifact.digest, manifest.digest())
        ev = self._evaluations.get(key)
        if ev is None:
            if self._pool is None:
                # a lazy import keeps concurrent.futures (and the logging it
                # loads) out of processes that import this module but never
                # evaluate
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(self.workers, thread_name_prefix="routesmith-eval")
            ev = self._evaluations[key] = _Evaluation(key, artifact, manifest, label, gate)
            ev.jobs = [self._pool.submit(self._run_job, ev, i) for i in range(len(manifest.instance_paths))]
        return ev

    def _queue(self, items) -> list:
        """The evaluation of each (source, manifest) pair, queued unless it is
        in the memo, or the report of a compile error, which is not kept.

        With ``smoke_test`` on, a new evaluation's gate is the smoke
        evaluation of its source, queued before it.
        """
        slots: list = []
        for source, manifest in items:
            ev = self._evaluations.get((source_digest(source), manifest.digest()))
            if ev is None:
                try:
                    artifact = build(source, self.cache_dir / "artifacts")
                except CandidateBuildError as exc:
                    slots.append(EvalReport(status="compile_error", build_log=str(exc)))
                    continue
                gate = self._evaluation(artifact, self._smoke(), "smoke") if self.smoke_test else None
                ev = self._evaluation(artifact, manifest, "inst-{:03d}", gate)
            slots.append(ev)
        return slots

    def _forget(self, ev: _Evaluation) -> None:
        """Stop an evaluation left without a report and drop it from the memo."""
        ev.stop()
        if self._evaluations.get(ev.key) is ev:
            del self._evaluations[ev.key]

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

        The jobs go to the evaluator's pool of ``workers``: each candidate's
        smoke run (unless its source met it before), then its instances in
        order. Compile failures map to a ``compile_error`` report; a pair met
        before (in this batch, in the memo or among the prefetched ones) runs
        once. When the batch raises, the evaluations it leaves without a
        report are stopped and forgotten; a smoke run under way finishes.
        """
        slots = self._queue(items)
        try:
            return [self.evaluate_source(source, manifest) for source, manifest in items]
        except BaseException:
            for ev in slots:
                if isinstance(ev, _Evaluation) and ev._report is None:
                    self._forget(ev)
            raise

    def evaluate_source(self, source: str, manifest: EvalManifest) -> EvalReport:
        """Build + evaluate one source: the one-item case of ``evaluate_sources``.

        Jobs already queued for the pair (by a batch or ``prefetch``) are
        waited for, not queued again.
        """
        ev, = self._queue([(source, manifest)])
        if isinstance(ev, EvalReport):
            return ev
        try:
            return ev.report()
        except BaseException:
            self._forget(ev)
            if ev.gate is not None and ev.gate.first_failure == -math.inf:
                self._forget(ev.gate)  # a job of it raised: it has no verdict
            raise
