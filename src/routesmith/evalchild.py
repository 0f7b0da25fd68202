"""Evaluation child process: run one instance with candidate operators.

Invocation contract: ``python -m routesmith.evalchild <manifest.json>``.
The manifest names the instance file, seed, limits, and the candidate
source path. An optional ``memory_limit`` (bytes) caps the child's own
address space before any candidate code loads. Protocol records are emitted as JSON lines on stdout:

    {"type": "ready"}                         after import and kernel warm-up
    {"type": "result", "id": ..., "objective": ..., "feasible": ...,
     "iterations": ..., "tours": [[...], ...], "unassigned": [...]}
    {"type": "error", "stage": ..., "message": ...}

Exit code 0 on protocol completion, 3 on a candidate runtime failure.

The evaluator does not start this module once per instance. It starts one
warm server, ``python -m routesmith.evalchild --serve <fd>``, which imports
numpy and the package, loads the compiled kernels and then forks one child
per job. The server never loads candidate code. A job arrives on the
control socket ``fd`` as one message: the manifest path, with the write
ends of the child's stdout and stderr pipes and a per-job reply socket
attached. The child starts a new session, moves the pipes onto fds 1 and 2,
sends its pid on the reply socket, closes every descriptor above 2 and runs
``main`` on the manifest. When the child has exited, the server kills what
is left of its process group and replies its exit code and peak RSS. At the
end of its control input (the evaluator closed it or died) the server kills
every live job's process group and exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m routesmith.evalchild <manifest.json>", file=sys.stderr)
        return 2
    manifest = json.loads(Path(argv[0]).read_text())
    if manifest.get("memory_limit") is not None:
        import resource

        limit = int(manifest["memory_limit"])
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    from . import instances as inst_io
    from . import lns
    from .candidates import CandidateRuntime

    # children run under RLIMIT_AS and never compile; the parent built the kernels
    lns.warm_kernels(build=False)
    instance = inst_io.load(manifest["instance"])
    source = Path(manifest["source_path"]).read_text()
    try:
        pair = CandidateRuntime(source).make_pair()
    except Exception as exc:
        _emit({"type": "error", "stage": "load", "message": f"{type(exc).__name__}: {exc}"})
        return 4

    _emit({"type": "ready"})

    config = lns.LnsConfig(
        time_limit=float(manifest["time_limit"]),
        max_iterations=manifest.get("iteration_limit"),
        seed=int(manifest["seed"]),
    )
    try:
        best, stats = lns.run(instance, pair, config)
    except Exception as exc:
        _emit({"type": "error", "stage": "run", "message": f"{type(exc).__name__}: {exc}"})
        return 3
    if stats.status != "completed":
        _emit({"type": "error", "stage": "run", "message": stats.error or stats.status})
        return 3

    record = {
        "type": "result",
        "id": manifest["id"],
        "objective": best.total_objective,
        "feasible": True,
        "iterations": stats.iterations,
        "tours": [t.customers for t in best.tours],
        "unassigned": sorted(best.unassigned),
    }
    _emit(record)
    return 0


# -- warm server -------------------------------------------------------------


def _exit_code(exc: SystemExit) -> int:
    """The exit status the interpreter would give for ``exc``."""
    if exc.code is None:
        return 0
    if isinstance(exc.code, int):
        return exc.code if 0 <= exc.code <= 255 else 1
    print(exc.code, file=sys.stderr)
    return 1


def _job(manifest_path: str, out_w: int, err_w: int, reply: int) -> None:
    """The forked child: become a fresh session, then run ``main``.

    Never returns: whatever ``main`` or the candidate raises, the child ends
    in ``os._exit`` with an int status and never reaches the server loop.
    """
    code = 1
    try:
        os.setsid()
        # the pid goes out after setsid, so the supervisor's killpg never races it
        os.write(reply, json.dumps({"pid": os.getpid()}).encode())
        signal.set_wakeup_fd(-1)
        for sig in (signal.SIGCHLD, signal.SIGTERM):
            signal.signal(sig, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        os.dup2(out_w, 1)
        os.dup2(err_w, 2)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        code = main([manifest_path])
    except SystemExit as exc:
        code = _exit_code(exc)
    except BaseException:
        import traceback

        traceback.print_exc()
        code = 1
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _reap(live: dict[int, int]) -> None:
    """Reply the exit of every finished job, after killing its stragglers."""
    for pid in list(live):
        if os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
            continue
        # the unreaped child still holds its pid, so the group id is still ours
        _kill_job(pid)
        _, status, usage = os.wait4(pid, 0)
        reply = live.pop(pid)
        done = {"returncode": os.waitstatus_to_exitcode(status), "maxrss_kb": usage.ru_maxrss}
        try:
            os.write(reply, json.dumps(done).encode())
        except OSError:  # the supervisor gave up on this job
            pass
        os.close(reply)


def _kill_job(pid: int) -> None:
    """Kill an unreaped job and its process group (which exists once it ran setsid)."""
    for kill in (os.killpg, os.kill):
        try:
            kill(pid, signal.SIGKILL)
        except OSError:
            pass


def serve(control_fd: int) -> int:
    """Fork one child per job received on ``control_fd`` until its end."""
    import select
    import socket

    # the evaluator owns interrupts; the server ends when its control socket does
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)

    import resource  # noqa: F401  (used by main; imported once, here)

    import numpy  # noqa: F401

    from . import candidates, instances, lns  # noqa: F401

    lns.warm_kernels(build=False)

    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_r, False)
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)

    control = socket.socket(fileno=control_fd)
    live: dict[int, int] = {}  # pid -> the server's end of the job's reply socket
    try:
        while True:
            readable, _, _ = select.select([control, wake_r], [], [])
            if wake_r in readable:
                os.read(wake_r, 4096)  # one byte per signal; a remainder wakes us again
                _reap(live)
            if control not in readable:
                continue
            message, fds, _, _ = socket.recv_fds(control, 4096, 3)
            if not message:
                return 0
            out_w, err_w, reply = fds
            pid = os.fork()
            if pid == 0:
                _job(os.fsdecode(message), out_w, err_w, reply)
            os.close(out_w)
            os.close(err_w)
            live[pid] = reply
    finally:
        for pid in live:
            _kill_job(pid)
        for pid, reply in live.items():
            os.waitpid(pid, 0)
            os.close(reply)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:
        sys.exit(serve(int(sys.argv[2])))
    sys.exit(main())
