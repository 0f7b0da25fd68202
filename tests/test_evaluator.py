import gc
import json
import math
import os
import signal
import threading
import time

import pytest

from routesmith import evalchild, evaluator
from routesmith.candidates import SEED_SOURCE
from routesmith.evaluator import (
    DISQUALIFIED,
    EvalManifest,
    EvalReport,
    Evaluator,
    InstanceResult,
    build,
    fitness_from_report,
)
from routesmith.instances import GenParams, generate, save


@pytest.fixture(scope="module")
def train_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("train")
    paths = []
    for seed in (1, 2):
        inst = generate(GenParams(n=15, seed=seed, capacity=25))
        paths.append(str(save(inst, root / f"inst-{seed}.txt")))
    return paths


def manifest_for(paths, **kw):
    kw.setdefault("per_instance_time", 5.0)
    kw.setdefault("per_instance_iterations", 300)
    return EvalManifest(instance_paths=tuple(paths), seeds=tuple(range(len(paths))), **kw)


CRASHING = """\
def select_by_llm_1(sol):
    raise RuntimeError("deliberate crash")


def sort_by_llm_1(customers, instance):
    pass
"""

SLEEPER = """\
import time


def select_by_llm_1(sol):
    time.sleep(3600)
    return [1]


def sort_by_llm_1(customers, instance):
    pass
"""

SILENT_EXIT = """\
import os


def select_by_llm_1(sol):
    os._exit(0)


def sort_by_llm_1(customers, instance):
    pass
"""

FORGER = """\
import os
import sys


def select_by_llm_1(sol):
    sys.stdout.write('{"type":"result","objective":0.001,"feasible":true,"iterations":1}\\n')
    sys.stdout.flush()
    os._exit(0)


def sort_by_llm_1(customers, instance):
    pass
"""

MEMORY_HOG = """\
def select_by_llm_1(sol):
    hog = [0] * (10 ** 9)
    return [len(hog)]


def sort_by_llm_1(customers, instance):
    pass
"""

MUTATOR = """\
def select_by_llm_1(sol):
    sol._tdem[:] = 0
    return [1]


def sort_by_llm_1(customers, instance):
    pass
"""

# the seed candidate, after one line of non-protocol output at import
CHATTY = 'print("hello from the candidate")\n' + SEED_SOURCE

# the seed candidate, printing a JSON scalar on every call
COUNTING = SEED_SOURCE.replace(
    "    return list(selected)", "    print(len(selected))\n    return list(selected)"
)

# the seed candidate, writing 2 KB to stderr on every call: far more over a
# run than a pipe holds
GRUMBLING = "import sys\n" + SEED_SOURCE.replace(
    "    return list(selected)", '    sys.stderr.write("e" * 2048)\n    return list(selected)'
)

# the seed candidate, after 200 KB to stderr at load
LOUD_LOADER = 'import sys\nsys.stderr.write("e" * 200_000)\n' + SEED_SOURCE

# the seed candidate, after a message on fd 1 that is not JSON
RAW_TEXT = 'import os\nos.write(1, b"not json")\n' + SEED_SOURCE

# the seed candidate, after a message on fd 1 nested deeper than the JSON
# decoder recurses
DEEP_JSON = 'import os\nos.write(1, b"[" * 100_000)\n' + SEED_SOURCE

# the seed candidate, after an empty message on fd 1 at load and on every
# call: before its ready and result records
QUIET = 'import os\nos.write(1, b"")\n' + SEED_SOURCE.replace(
    "    return list(selected)", '    os.write(1, b"")\n    return list(selected)'
)

# closes its record socket, then runs for a second before it fails
CLOSER = """\
import os
import time


def select_by_llm_1(sol):
    os.close(1)
    time.sleep(1.0)
    return [1]


def sort_by_llm_1(customers, instance):
    pass
"""

GARBAGE_EXIT = """\
import os
import sys


def select_by_llm_1(sol):
    sys.stdout.write("}{ not a record\\n")
    sys.stdout.flush()
    os._exit(0)


def sort_by_llm_1(customers, instance):
    pass
"""

FLOODER = """\
import sys


def select_by_llm_1(sol):
    while True:
        sys.stdout.write("x" * 65536)


def sort_by_llm_1(customers, instance):
    pass
"""

# floods the record socket itself, which print no longer reaches
RAW_FLOODER = """\
import os


def select_by_llm_1(sol):
    while True:
        os.write(1, b"x" * 65536)


def sort_by_llm_1(customers, instance):
    pass
"""

# one-byte records: each is charged a fixed minimum against the flood cap
TINY_FLOODER = """\
import os


def select_by_llm_1(sol):
    while True:
        os.write(1, b"x")


def sort_by_llm_1(customers, instance):
    pass
"""


# rebinds engine functions and module globals, then runs the seed operators
REBINDER = """\
import routesmith._kernels as _kernels
import routesmith.lns as _lns

_lns.accept = lambda current, candidate, *args: candidate
_greedy_insert = _kernels.greedy_insert
_kernels.greedy_insert = lambda *args, **kwargs: _greedy_insert(*args, **kwargs)
_lns._VALIDATE_SAMPLE = 1
""" + SEED_SOURCE

FD_PROBE = """\
import os


def select_by_llm_1(sol):
    open_fds = []
    for fd in range(3, 256):
        try:
            os.fstat(fd)
        except OSError:
            continue
        open_fds.append(fd)
    if open_fds:
        raise RuntimeError(f"descriptors above 2 are open: {open_fds}")
    return [1]


def sort_by_llm_1(customers, instance):
    pass
"""

# starts `sleep 600`, writes its pid to the file named by {pid_file!r}, then hangs
SPAWNING_SLEEPER = """\
import subprocess
import time


def select_by_llm_1(sol):
    grandchild = subprocess.Popen(["sleep", "600"])
    with open({pid_file!r}, "w") as fh:
        fh.write(str(grandchild.pid))
    time.sleep(3600)
    return [1]


def sort_by_llm_1(customers, instance):
    pass
"""


# leaves through SystemExit, which lns.run does not catch
QUITTER = """\
import sys


def select_by_llm_1(sol):
    sys.exit("candidate quit")


def sort_by_llm_1(customers, instance):
    pass
"""

# kills the process that forked it, once, in the middle of its run
SERVER_KILLER = """\
import os
import signal

_parent = os.getppid()


def select_by_llm_1(sol):
    global _parent
    if _parent:
        os.kill(_parent, signal.SIGKILL)
        _parent = 0
    return [1]


def sort_by_llm_1(customers, instance):
    pass
"""


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def _holds_pipe(pid: int) -> bool:
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            if os.readlink(f"/proc/{pid}/fd/{fd}").startswith("pipe:"):
                return True
        except FileNotFoundError:  # closed while we looked
            pass
    return False


def _gone_within(pid: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while _running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class TestManifest:
    def test_digest_is_pinned(self):
        """The digest keys the report cache: a change orphans every cached report."""
        m = EvalManifest(instance_paths=("a/inst-1.txt", "b/inst-2.txt"), seeds=(3, 7),
                         per_instance_time=2.5, per_instance_iterations=150, memory_limit_bytes=1024**3)
        assert m.digest() == "417934bf0ccad2c6e5a13062d08e4821b0bab1d7fc57164cfa507b4ad62af48d"


class TestBuild:
    def test_seed_source_builds_ok(self, tmp_path):
        artifact = build(SEED_SOURCE, tmp_path)
        assert artifact.path.exists()
        assert artifact.path.read_text() == SEED_SOURCE
        assert not artifact.cached

    def test_identical_source_served_from_cache(self, tmp_path):
        first = build(SEED_SOURCE, tmp_path)
        second = build(SEED_SOURCE, tmp_path)
        assert second.cached
        assert first.digest == second.digest
        assert first.path == second.path

    def test_compile_error_reported_with_log(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, smoke_test=False)
        report = ev.evaluate_source("def broken(:\n", manifest_for(train_files))
        assert report.status == "compile_error"
        assert report.build_log


class TestFitnessFromReport:
    def _ok_report(self, objectives):
        return EvalReport(
            status="ok",
            per_instance=[
                InstanceResult(id=f"inst-{i:03d}", objective=o, feasible=True, iterations=10)
                for i, o in enumerate(objectives)
            ],
        )

    def test_matches_penalized_mean(self):
        report = self._ok_report([41.14, 41.14])
        assert fitness_from_report(report, 150, 2e-4) == pytest.approx(41.17, abs=1e-9)

    def test_zero_lambda_is_plain_mean(self):
        report = self._ok_report([1.0, 2.0, 3.0])
        assert fitness_from_report(report, 500, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_any_failure_disqualifies(self):
        assert fitness_from_report(EvalReport(status="compile_error"), 5, 2e-4) == DISQUALIFIED
        assert fitness_from_report(EvalReport(status="timeout"), 5, 2e-4) == DISQUALIFIED
        assert math.isinf(fitness_from_report(EvalReport(status="runtime_error"), 5, 2e-4))


class TestEvaluate:
    def test_seed_candidate_scores_ok(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, workers=2, smoke_test=False)
        report = ev.evaluate_source(SEED_SOURCE, manifest_for(train_files))
        assert report.status == "ok"
        assert [r.id for r in report.per_instance] == ["inst-000", "inst-001"]
        assert all(math.isfinite(r.objective) and r.feasible for r in report.per_instance)
        assert all(r.iterations > 0 for r in report.per_instance)

    def test_crashing_candidate_is_runtime_error(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, smoke_test=False)
        report = ev.evaluate_source(CRASHING, manifest_for(train_files[:1]))
        assert report.status == "runtime_error"
        assert "deliberate crash" in report.build_log

    def test_printed_diagnostic_reaches_the_build_log(self, tmp_path, train_files):
        source = CRASHING.replace("    raise", '    print("diagnostic before the crash")\n    raise')
        report = Evaluator(tmp_path, smoke_test=False).evaluate_source(
            source, manifest_for(train_files[:1]))
        assert report.status == "runtime_error"
        assert report.build_log == "RuntimeError: deliberate crash; stderr: diagnostic before the crash\n"

    def test_crashing_candidate_keeps_its_stderr_tail(self, tmp_path, train_files):
        """A candidate that explains itself on stderr and then raises: the
        error record's message, then the last 8 KiB of stderr."""
        source = "import sys\n\n" + CRASHING.replace(
            "    raise", '    sys.stderr.write("e" * 200_000 + "diagnostic before the crash\\n")\n'
            "    raise")
        report = Evaluator(tmp_path, smoke_test=False).evaluate_source(
            source, manifest_for(train_files[:1]))
        assert report.status == "runtime_error"
        head, tail = report.build_log.split("; stderr: ", 1)
        assert head == "RuntimeError: deliberate crash"
        assert tail.endswith("diagnostic before the crash\n")
        assert len(tail.encode()) == 8192

    def test_sleeper_times_out_within_grace(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, smoke_test=False)
        started = time.monotonic()
        report = ev.evaluate_source(
            SLEEPER, manifest_for(train_files[:1], per_instance_time=0.5, per_instance_iterations=None)
        )
        elapsed = time.monotonic() - started
        assert report.status == "timeout"
        # 0.5 * 1.1 + 1.0 of run budget plus startup overhead
        assert elapsed < 30

    def test_silent_exit_is_invalid_output(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, smoke_test=False)
        report = ev.evaluate_source(SILENT_EXIT, manifest_for(train_files[:1]))
        assert report.status == "invalid_output"

    def test_forged_result_without_tours_is_invalid_output(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, smoke_test=True)
        report = ev.evaluate_source(FORGER, manifest_for(train_files))
        assert report.status == "invalid_output"
        assert fitness_from_report(report, 10, 2e-4) == DISQUALIFIED

    @pytest.mark.parametrize("smoke_test", [False, True])
    def test_state_mutating_candidate_is_runtime_error(self, tmp_path, train_files, smoke_test):
        ev = Evaluator(tmp_path, smoke_test=smoke_test)
        report = ev.evaluate_source(MUTATOR, manifest_for(train_files))
        assert report.status == "runtime_error"
        assert "best solution infeasible" in report.build_log

    @pytest.mark.parametrize(
        "source",
        [
            pytest.param(CHATTY, id="text"),
            pytest.param(COUNTING, id="scalar"),
            pytest.param(GRUMBLING, id="stderr-per-call"),
            pytest.param(LOUD_LOADER, id="stderr-at-load"),
            pytest.param(RAW_TEXT, id="non-json-on-fd1"),
            pytest.param(DEEP_JSON, id="deep-json-on-fd1"),
            pytest.param(QUIET, id="empty-on-fd1"),
        ],
    )
    def test_non_protocol_output_is_ignored(self, tmp_path, train_files, source):
        m = manifest_for(train_files)
        noisy = Evaluator(tmp_path / "a", smoke_test=False).evaluate_source(source, m)
        seed = Evaluator(tmp_path / "b", smoke_test=False).evaluate_source(SEED_SOURCE, m)
        assert noisy.status == "ok", noisy.build_log[:500]
        assert [r.objective for r in noisy.per_instance] == [r.objective for r in seed.per_instance]

    def test_build_log_keeps_the_stderr_tail(self, tmp_path, train_files):
        source = 'import sys\nsys.stderr.write("e" * 200_000)\n' + QUITTER
        report = Evaluator(tmp_path, smoke_test=False).evaluate_source(source, manifest_for(train_files[:1]))
        assert report.status == "runtime_error"
        head, tail = report.build_log.split("; stderr: ", 1)
        assert head == "exit code 1"
        assert tail.endswith("candidate quit\n")
        assert len(tail.encode()) == 8192  # the last 8 KiB of 200 KB

    def test_closed_record_socket_fails_without_spinning(self, tmp_path, train_files):
        """The close reads as the end of the records, not as an endless run
        of empty messages: the supervisor stops reading the socket and waits
        for the child's exit."""
        ev = Evaluator(tmp_path, smoke_test=False)
        ev.start()
        started, cpu = time.monotonic(), time.process_time()
        report = ev.evaluate_source(CLOSER, manifest_for(train_files[:1]))
        cpu, elapsed = time.process_time() - cpu, time.monotonic() - started
        assert report.status == "runtime_error", report.build_log[:500]
        assert elapsed < 30
        assert cpu < 0.5 * elapsed, (cpu, elapsed)

    def test_garbage_then_exit_is_invalid_output(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, smoke_test=False)
        report = ev.evaluate_source(GARBAGE_EXIT, manifest_for(train_files[:1]))
        assert report.status == "invalid_output"

    def test_memory_hog_is_contained(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, smoke_test=False)
        report = ev.evaluate_source(
            MEMORY_HOG,
            manifest_for(train_files[:1], memory_limit_bytes=1536 * 1024**2),
        )
        assert report.status == "runtime_error"

    @pytest.mark.parametrize(
        "source", [pytest.param(FLOODER, id="print"), pytest.param(RAW_FLOODER, id="raw-fd1"),
                   pytest.param(TINY_FLOODER, id="tiny-fd1")]
    )
    def test_stdout_flood_is_contained(self, tmp_path, train_files, source):
        ev = Evaluator(tmp_path, smoke_test=False)
        started = time.monotonic()
        report = ev.evaluate_source(source, manifest_for(train_files[:1]))
        assert report.status == "invalid_output"
        assert "flood" in report.build_log
        assert time.monotonic() - started < 60

    def test_isolation_supervisor_survives_hostile_candidates(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, workers=2, smoke_test=False)
        for source in (CRASHING, SILENT_EXIT):
            assert ev.evaluate_source(source, manifest_for(train_files[:1])).status != "ok"
        report = ev.evaluate_source(SEED_SOURCE, manifest_for(train_files))
        assert report.status == "ok"

    def test_deterministic_reports_under_iteration_budget(self, tmp_path, train_files):
        m = manifest_for(train_files)
        r1 = Evaluator(tmp_path / "a", smoke_test=False).evaluate_source(SEED_SOURCE, m)
        r2 = Evaluator(tmp_path / "b", smoke_test=False).evaluate_source(SEED_SOURCE, m)
        assert [x.objective for x in r1.per_instance] == [x.objective for x in r2.per_instance]
        assert [x.iterations for x in r1.per_instance] == [x.iterations for x in r2.per_instance]

    def test_report_cache_hit_bit_identical(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, smoke_test=False)
        m = manifest_for(train_files)
        r1 = ev.evaluate_source(SEED_SOURCE, m)
        r2 = ev.evaluate_source(SEED_SOURCE, m)
        assert r2 is r1  # served from the report cache

    def test_cached_artifact_reproduces_uncached_report(self, tmp_path, train_files):
        m = manifest_for(train_files)
        shared_cache = tmp_path / "shared"
        fresh = Evaluator(shared_cache, smoke_test=False)
        r1 = fresh.evaluate_source(SEED_SOURCE, m)
        # second evaluator reuses the artifact cache (build served from disk)
        reuse = Evaluator(shared_cache, smoke_test=False)
        from routesmith.evaluator import build

        assert build(SEED_SOURCE, shared_cache / "artifacts").cached
        r2 = reuse.evaluate_source(SEED_SOURCE, m)
        assert [x.objective for x in r1.per_instance] == [x.objective for x in r2.per_instance]
        assert [x.iterations for x in r1.per_instance] == [x.iterations for x in r2.per_instance]

    def test_smoke_gate_fails_fast(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, smoke_test=True)
        started = time.monotonic()
        report = ev.evaluate_source(CRASHING, manifest_for(train_files, per_instance_time=30.0))
        assert report.status == "runtime_error"
        assert "preflight" in report.build_log
        assert time.monotonic() - started < 30


class TestChildServer:
    def test_rebinding_candidate_does_not_reach_later_jobs(self, tmp_path, train_files):
        m = manifest_for(train_files)
        with Evaluator(tmp_path / "a", workers=1, smoke_test=False) as ev:
            ev.evaluate_source(REBINDER, m)
            after = ev.evaluate_source(SEED_SOURCE, m)
        with Evaluator(tmp_path / "b", workers=1, smoke_test=False) as ev:
            fresh = ev.evaluate_source(SEED_SOURCE, m)
        assert after.status == fresh.status == "ok"
        assert after.objectives() == fresh.objectives()

    def test_child_holds_no_descriptor_above_stderr(self, tmp_path, train_files):
        with Evaluator(tmp_path, smoke_test=False) as ev:
            report = ev.evaluate_source(FD_PROBE, manifest_for(train_files, per_instance_iterations=20))
        assert report.status == "ok", report.build_log

    def test_timed_out_child_takes_its_grandchild_along(self, tmp_path, train_files):
        pid_file = tmp_path / "grandchild.pid"
        source = SPAWNING_SLEEPER.format(pid_file=str(pid_file))
        m = manifest_for(train_files[:1], per_instance_time=0.5, per_instance_iterations=None)
        with Evaluator(tmp_path / "cache", smoke_test=False) as ev:
            report = ev.evaluate_source(source, m)
        assert report.status == "timeout"
        assert _gone_within(int(pid_file.read_text()), 10)

    def test_system_exit_ends_only_the_child(self, tmp_path, train_files):
        with Evaluator(tmp_path, smoke_test=False) as ev:
            report = ev.evaluate_source(QUITTER, manifest_for(train_files))
            assert report.status == "runtime_error"
            assert "exit code 1" in report.build_log and "candidate quit" in report.build_log
            assert ev.evaluate_source(SEED_SOURCE, manifest_for(train_files)).ok

    def test_killed_server_fails_the_job_and_is_replaced(self, tmp_path, train_files):
        with Evaluator(tmp_path, workers=1, smoke_test=False) as ev:
            report = ev.evaluate_source(SERVER_KILLER, manifest_for(train_files[:1]))
            assert report.status == "runtime_error"
            assert "server stopped" in report.build_log
            assert ev.evaluate_source(SEED_SOURCE, manifest_for(train_files)).ok

    @pytest.mark.parametrize("sig", ["SIGKILL", "SIGSTOP"])
    def test_lost_server_under_concurrent_jobs_fails_only_the_candidate(
        self, tmp_path, train_files, monkeypatch, sig
    ):
        started = []

        class RecordedServer(evaluator._ChildServer):
            def __init__(self):
                super().__init__()
                started.append(self.proc.pid)

        monkeypatch.setattr(evaluator, "_ChildServer", RecordedServer)
        source = SERVER_KILLER.replace("SIGKILL", sig)
        # two workers, three jobs: the third asks for a server while the first is lost
        m = manifest_for(train_files + train_files[:1], per_instance_time=1.0)
        with Evaluator(tmp_path, workers=2, smoke_test=False) as ev:
            report = ev.evaluate_source(source, m)
            assert report.status in ("runtime_error", "timeout"), report.build_log
            assert ev.evaluate_source(SEED_SOURCE, manifest_for(train_files)).ok
        assert len(started) >= 2
        for pid in started:
            assert not os.path.exists(f"/proc/{pid}")  # killed or closed, and reaped

    def test_server_lost_before_its_jobs_start_fails_them(self, tmp_path, train_files):
        with Evaluator(tmp_path, workers=2, smoke_test=False) as ev:
            pid = ev._child_server().proc.pid
            os.kill(pid, signal.SIGSTOP)
            # the jobs queue on the stopped server, which dies before it forks any
            killer = threading.Timer(1.0, os.kill, (pid, signal.SIGKILL))
            killer.start()
            try:
                report = ev.evaluate_source(SEED_SOURCE, manifest_for(train_files + train_files[:1]))
            finally:
                killer.cancel()
            assert report.status == "runtime_error"
            assert "server stopped before the child started" in report.build_log
            assert ev.evaluate_source(SEED_SOURCE, manifest_for(train_files)).ok
        assert not os.path.exists(f"/proc/{pid}")

    def test_server_is_single_threaded_and_stops_on_close(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, smoke_test=False)
        assert ev._server is None  # nothing starts before the first evaluation
        pid = ev._child_server().proc.pid
        # the server opens its SIGCHLD wake-up pipe once its imports are done
        deadline = time.monotonic() + 60
        while not _holds_pipe(pid):
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert os.listdir(f"/proc/{pid}/task") == [str(pid)]  # as at its first fork
        assert ev.evaluate_source(SEED_SOURCE, manifest_for(train_files)).ok
        assert os.listdir(f"/proc/{pid}/task") == [str(pid)]
        ev.close()
        assert not os.path.exists(f"/proc/{pid}")  # exited and reaped
        # a closed evaluator starts a new server when it evaluates again
        assert ev.evaluate_source(CRASHING, manifest_for(train_files)).status == "runtime_error"
        ev.close()

    def test_collected_evaluator_stops_its_server(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, smoke_test=False)
        assert ev.evaluate_source(SEED_SOURCE, manifest_for(train_files[:1])).ok
        pid = ev._server.proc.pid
        del ev
        gc.collect()
        assert not os.path.exists(f"/proc/{pid}")  # exited and reaped

    def test_supervisor_times_each_child(self, tmp_path, train_files):
        with Evaluator(tmp_path, smoke_test=False) as ev:
            report = ev.evaluate_source(SEED_SOURCE, manifest_for(train_files))
        for r in report.per_instance:
            assert 0 < r.startup_s < 60
            assert 0 < r.run_s < 60
            assert 10 < r.peak_rss_mb < 4096


class TestChild:
    # an unclosed file fails the test: its ResourceWarning is raised when the file is collected
    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_manifest_without_memory_limit_runs_and_emits_tours(self, tmp_path, train_files, capfd):
        source = tmp_path / "seed.py"
        source.write_text(SEED_SOURCE)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "id": "probe",
            "instance": train_files[0],
            "seed": 1,
            "source_path": str(source),
            "time_limit": 5.0,
            "iteration_limit": 3,
        }))
        assert evalchild.main([str(manifest)]) == 0
        records = [json.loads(line) for line in capfd.readouterr().out.splitlines()]
        assert [r["type"] for r in records] == ["ready", "result"]
        assert records[1]["tours"]


class TestRevalidation:
    def test_fabricated_infeasible_solution_rejected(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, smoke_test=False)
        record = {
            "objective": 1.0,
            "feasible": True,
            "iterations": 5,
            "tours": [[1, 1, 2]],  # duplicate customer
            "unassigned": [],
        }
        status, result = ev._revalidate("inst-000", record, train_files[0])
        assert status == "invalid_output" and result is None

    def test_objective_mismatch_rejected(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, smoke_test=False)
        inst = generate(GenParams(n=15, seed=1, capacity=25))
        tours = [[c] for c in range(1, 16)]
        record = {
            "objective": 123.456,  # wrong on purpose
            "feasible": True,
            "iterations": 5,
            "tours": tours,
            "unassigned": [],
        }
        status, _ = ev._revalidate("inst-000", record, train_files[0])
        assert status == "invalid_output"

    def test_reported_infeasible_rejected(self, tmp_path, train_files):
        ev = Evaluator(tmp_path, smoke_test=False)
        record = {"objective": 1.0, "feasible": False, "iterations": 5}
        status, _ = ev._revalidate("inst-000", record, train_files[0])
        assert status == "invalid_output"


# fails at once on the n=15 instance (inst-002 of ``ladder_files``), and on the
# n=14 one (inst-001) only after a sleep, so the higher index fails first
LATE_AND_EARLY = """\
import time


def select_by_llm_1(sol):
    n = sol.instance.num_customers
    if n == 15:
        raise RuntimeError("fast failure on n=15")
    if n == 14:
        time.sleep(2.0)
        raise RuntimeError("slow failure on n=14")
    return [1]


def sort_by_llm_1(customers, instance):
    pass
"""

# leaves its pid in {pid_dir!r} on every call, and hangs on the smoke
# instance (n=12) only
SMOKE_HANGER = """\
import os
import time


def select_by_llm_1(sol):
    open(os.path.join({pid_dir!r}, str(os.getpid())), "w").close()
    if sol.instance.num_customers == 12:
        time.sleep(3600)
    time.sleep(0.01)
    return [1]


def sort_by_llm_1(customers, instance):
    pass
"""


@pytest.fixture(scope="module")
def ladder_files(tmp_path_factory):
    """Four instances whose customer counts (13..16) tell them apart."""
    root = tmp_path_factory.mktemp("ladder")
    return [
        str(save(generate(GenParams(n=n, seed=n, capacity=25)), root / f"ladder-{n}.txt"))
        for n in (13, 14, 15, 16)
    ]


@pytest.fixture
def children(monkeypatch):
    """The entry ids of the children the evaluator starts, in start order."""
    started = []
    run_child = evaluator._run_child

    def counted(server, artifact, entry_id, *args, **kwargs):
        started.append(entry_id)
        return run_child(server, artifact, entry_id, *args, **kwargs)

    monkeypatch.setattr(evaluator, "_run_child", counted)
    return started


def _summary(report):
    """A report without the supervisor's timings, which differ run to run."""
    return (
        report.status,
        report.build_log,
        [(r.id, r.objective, r.feasible, r.iterations) for r in report.per_instance],
    )


class TestBatch:
    def test_lowest_failing_index_decides_as_in_a_serial_run(self, tmp_path, ladder_files, children):
        m = manifest_for(ladder_files)
        with Evaluator(tmp_path, workers=2, smoke_test=False) as ev:
            concurrent = ev.evaluate_source(LATE_AND_EARLY, m)
        # inst-002 failed first, so inst-003 never started; inst-001 ran on
        assert sorted(children) == ["inst-000", "inst-001", "inst-002"]
        with Evaluator(tmp_path, workers=1, smoke_test=False) as ev:
            serial = ev.evaluate_source(LATE_AND_EARLY, m)
        assert concurrent.status == "runtime_error"
        assert "slow failure on n=14" in concurrent.build_log
        assert [r.id for r in concurrent.per_instance] == ["inst-000"]
        assert _summary(concurrent) == _summary(serial)

    def test_smoke_hang_stops_the_training_runs_beside_it(self, tmp_path, train_files):
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        source = SMOKE_HANGER.format(pid_dir=str(pid_dir))
        # the training runs would go on for 30 s each if nothing stopped them
        m = manifest_for(train_files, per_instance_time=30.0, per_instance_iterations=None)
        smoke_grace = 1.0 * evaluator.RUN_GRACE_FACTOR + evaluator.RUN_GRACE_CONST
        with Evaluator(tmp_path / "cache", workers=2, smoke_test=True) as ev:
            started = time.monotonic()
            report = ev.evaluate_source(source, m)
            elapsed = time.monotonic() - started
        assert report.status == "timeout"
        assert report.build_log.startswith("preflight smoke failed:")
        assert elapsed < smoke_grace + 5.0, elapsed
        pids = [int(name) for name in os.listdir(pid_dir)]
        assert len(pids) >= 2  # the smoke child and at least one training child ran
        assert all(_gone_within(pid, 5) for pid in pids)

    def test_a_failing_candidate_leaves_its_neighbour_unchanged(self, tmp_path, train_files):
        m = manifest_for(train_files)
        with Evaluator(tmp_path / "a", workers=2, smoke_test=True) as ev:
            broken, crashing, seed = ev.evaluate_sources(
                [("def broken(:\n", m), (CRASHING, m), (SEED_SOURCE, m)]
            )
        with Evaluator(tmp_path / "b", workers=2, smoke_test=True) as ev:
            alone = ev.evaluate_source(SEED_SOURCE, m)
        assert broken.status == "compile_error"
        assert crashing.status == "runtime_error"
        assert crashing.build_log.startswith("preflight smoke failed:")
        assert seed.ok
        assert _summary(seed) == _summary(alone)

    @pytest.mark.parametrize("sig", ["SIGKILL", "SIGSTOP"])
    def test_a_server_killer_leaves_its_neighbour_unchanged(self, tmp_path, train_files, sig):
        m, validation = manifest_for(train_files), manifest_for(train_files[:1])
        source = SERVER_KILLER.replace("SIGKILL", sig)
        with Evaluator(tmp_path / "a", workers=2, smoke_test=True) as ev:
            killer, seed = ev.evaluate_sources([(source, m), (SEED_SOURCE, m)])
            # its smoke verdict was not the killer's doing either
            validated = ev.evaluate_source(SEED_SOURCE, validation)
        with Evaluator(tmp_path / "b", workers=2, smoke_test=True) as ev:
            alone = ev.evaluate_source(SEED_SOURCE, m)
        assert killer.status in ("runtime_error", "timeout"), killer.build_log
        assert killer.build_log.startswith("preflight smoke failed:")
        assert _summary(seed) == _summary(alone)
        assert validated.ok

    def test_duplicate_sources_in_a_batch_run_once(self, tmp_path, train_files, children):
        m = manifest_for(train_files)
        with Evaluator(tmp_path, workers=2, smoke_test=True) as ev:
            first, second = ev.evaluate_sources([(SEED_SOURCE, m), (SEED_SOURCE, m)])
        assert first.ok and second is first
        assert sorted(children) == ["inst-000", "inst-001", "smoke"]

    def test_smoke_verdict_is_kept_per_artifact(self, tmp_path, train_files, children):
        training, validation = manifest_for(train_files), manifest_for(train_files[:1])
        with Evaluator(tmp_path, workers=2, smoke_test=True) as ev:
            assert ev.evaluate_source(SEED_SOURCE, training).ok
            assert ev.evaluate_source(CRASHING, training).status == "runtime_error"
            del children[:]
            assert ev.evaluate_source(SEED_SOURCE, validation).ok
            assert children == ["inst-000"]  # passed its smoke run already
            del children[:]
            report = ev.evaluate_source(CRASHING, validation)
            assert children == []  # failed it already
        assert report.status == "runtime_error"
        assert report.build_log.startswith("preflight smoke failed:")

    def test_one_source_on_two_manifests_runs_one_smoke_child(self, tmp_path, train_files, children):
        training, validation = manifest_for(train_files), manifest_for(train_files[:1])
        with Evaluator(tmp_path / "a", workers=2, smoke_test=True) as ev:
            both = ev.evaluate_sources([(SEED_SOURCE, training), (SEED_SOURCE, validation)])
        assert sorted(children) == ["inst-000", "inst-000", "inst-001", "smoke"]
        apart = []
        for name, m in (("b", training), ("c", validation)):
            with Evaluator(tmp_path / name, workers=2, smoke_test=True) as ev:
                apart.append(ev.evaluate_source(SEED_SOURCE, m))
        assert all(r.ok for r in both)
        assert [_summary(r) for r in both] == [_summary(r) for r in apart]

    def test_a_raising_smoke_job_leaves_no_verdict(self, tmp_path, train_files, children, monkeypatch):
        revalidate = Evaluator._revalidate

        def broken(self, entry_id, *args):
            if entry_id == "smoke":
                raise RuntimeError("revalidation broke")
            return revalidate(self, entry_id, *args)

        m = manifest_for(train_files)
        with Evaluator(tmp_path, workers=2, smoke_test=True) as ev:
            monkeypatch.setattr(Evaluator, "_revalidate", broken)
            with pytest.raises(RuntimeError, match="revalidation broke"):
                ev.evaluate_source(SEED_SOURCE, m)
            monkeypatch.setattr(Evaluator, "_revalidate", revalidate)
            del children[:]
            assert ev.evaluate_source(SEED_SOURCE, m).ok
        assert sorted(children) == ["inst-000", "inst-001", "smoke"]  # all of it ran again

    def test_a_raising_evaluation_keeps_its_smoke_verdict(self, tmp_path, train_files, children, monkeypatch):
        revalidate = Evaluator._revalidate

        def broken(self, entry_id, *args):
            if entry_id == "inst-001":
                raise RuntimeError("revalidation broke")
            return revalidate(self, entry_id, *args)

        training, validation = manifest_for(train_files), manifest_for(train_files[:1])
        with Evaluator(tmp_path, workers=2, smoke_test=True) as ev:
            monkeypatch.setattr(Evaluator, "_revalidate", broken)
            with pytest.raises(RuntimeError, match="revalidation broke"):
                ev.evaluate_sources([(SEED_SOURCE, training)])
            monkeypatch.setattr(Evaluator, "_revalidate", revalidate)
            del children[:]
            assert ev.evaluate_source(SEED_SOURCE, validation).ok
            assert children == ["inst-000"]  # passed its smoke run already
            assert ev.evaluate_source(SEED_SOURCE, training).ok  # the failed one ran again

    def test_tracer_call_sites_are_reached(self, tmp_path, train_files, monkeypatch):
        """perfbench's discover tracer wraps these names and fails a traced
        run that never reaches one of them."""
        calls = {}

        def count(owner, name):
            original = getattr(owner, name)
            calls[name] = 0

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(Evaluator, "evaluate_source")
        count(evaluator, "_run_child")
        count(Evaluator, "_revalidate")
        count(evaluator, "check_source")
        m = manifest_for(train_files)
        with Evaluator(tmp_path, workers=2, smoke_test=True) as ev:
            reports = ev.evaluate_sources([(SEED_SOURCE, m), (CHATTY, m)])
        assert all(r.ok for r in reports)
        assert calls["evaluate_source"] >= 2  # once per item at least
        assert calls["_run_child"] == 6  # two smoke runs and four training runs
        assert calls["_revalidate"] == 6  # once per ok result
        assert calls["check_source"] == 2  # once per source

    def test_prefetched_jobs_run_once(self, tmp_path, train_files, children):
        m = manifest_for(train_files)
        with Evaluator(tmp_path / "a", workers=2, smoke_test=True) as ev:
            ev.prefetch([(SEED_SOURCE, m)])
            prefetched, = ev.evaluate_sources([(SEED_SOURCE, m)])
        assert sorted(children) == ["inst-000", "inst-001", "smoke"]
        with Evaluator(tmp_path / "b", workers=2, smoke_test=True) as ev:
            plain = ev.evaluate_source(SEED_SOURCE, m)
        assert prefetched.ok
        assert _summary(prefetched) == _summary(plain)

    def test_reported_evaluation_holds_no_futures(self, tmp_path, train_files):
        m = manifest_for(train_files)
        with Evaluator(tmp_path, workers=2, smoke_test=True) as ev:
            assert ev.evaluate_source(SEED_SOURCE, m).ok
            evaluations = list(ev._evaluations.values())
            assert len(evaluations) == 2  # the smoke gate and the training runs
            assert all(e.jobs == [] and e.done() for e in evaluations)
            assert ev.evaluate_source(SEED_SOURCE, m).ok  # a memo hit

    def test_close_stops_prefetched_jobs(self, tmp_path, train_files):
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        source = SMOKE_HANGER.format(pid_dir=str(pid_dir)).replace("== 12", "> 0")  # hangs everywhere
        ev = Evaluator(tmp_path / "cache", workers=2, smoke_test=False)
        ev.prefetch([(source, manifest_for(train_files, per_instance_time=30.0))])
        deadline = time.monotonic() + 60
        while len(os.listdir(pid_dir)) < 2:
            assert time.monotonic() < deadline
            time.sleep(0.05)
        started = time.monotonic()
        ev.close()
        assert time.monotonic() - started < 10
        assert all(_gone_within(int(pid), 5) for pid in os.listdir(pid_dir))

    def test_one_thread_per_running_job(self, tmp_path, train_files):
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        source = SMOKE_HANGER.format(pid_dir=str(pid_dir)).replace("== 12", "> 0")  # hangs everywhere
        with Evaluator(tmp_path / "cache", workers=2, smoke_test=False) as ev:
            ev.prefetch([(source, manifest_for(train_files, per_instance_time=30.0))])
            deadline = time.monotonic() + 60
            while len(os.listdir(pid_dir)) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            # idle pools of earlier evaluators may still be alive; they run no job
            extra = [
                t.name
                for t in threading.enumerate()
                if t is not threading.main_thread() and not t.name.startswith("routesmith-eval")
            ]
        assert extra == []

    def test_start_is_idempotent_and_only_starts_the_server(self, tmp_path, train_files):
        with Evaluator(tmp_path, smoke_test=False) as ev:
            assert ev._server is None
            ev.start()
            pid = ev._server.proc.pid
            ev.start()
            assert ev._server.proc.pid == pid
            assert ev.evaluate_source(SEED_SOURCE, manifest_for(train_files[:1])).ok
            assert ev._server.proc.pid == pid
