"""Cold operations: each runs in a process forked after the imports.

Forking from the benchmark process leaves interpreter start-up and
imports out of the timing, which is what made one-process-per-run
measurements wander.  The child still starts with none of the
process-wide memos an earlier operation would have filled (the parent
never runs the program), so every operation starts cold.

The child sends its JSON result through a pipe and closes it before it
exits; the parent stops the clock when the pipe reaches end of file,
that is, when the result is in hand.
"""

from __future__ import annotations

import io
import json
import os
import signal
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass

#: Children ``run_cold_all`` keeps running at once (the reference
#: machine has two cores).
WIDTH = 2
#: Children started and not yet reaped.
_running: set[int] = set()


@dataclass
class ColdResult:
    ok: bool
    value: dict
    seconds: float
    max_rss_mb: float


def run_cold(fn, *args, trace: bool = False) -> ColdResult:
    """Run ``fn(*args)`` in a forked child and time it to its result.

    ``fn`` returns a JSON-safe dict.  With ``trace`` the child wraps the
    program's layers first (:mod:`tracing`) and adds the span totals to
    the result under ``"trace"``.
    """
    return _finish(_start(fn, args, trace))


def run_cold_all(calls: list[tuple]) -> list[ColdResult]:
    """Run ``fn(*args)`` for each ``(fn, *args)``, ``WIDTH`` at a time.

    For checks made outside the timed operations, where only throughput
    counts.
    """
    results: list[ColdResult] = []
    running: list = []
    for fn, *args in calls:
        if len(running) == WIDTH:
            results.append(_finish(running.pop(0)))
        running.append(_start(fn, args, False))
    results.extend(_finish(handle) for handle in running)
    return results


def _start(fn, args, trace: bool):
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        status = 0
        try:
            recorder = None
            if trace:
                import tracing

                recorder = tracing.Recorder()
                tracing.install_program(recorder)
            with redirect_stdout(io.StringIO()):
                value = fn(*args)
            if recorder is not None:
                value["trace"] = recorder.summary()
            payload = json.dumps({"ok": True, "value": value})
        except BaseException:
            status = 1
            payload = json.dumps(
                {"ok": False, "value": {"error": traceback.format_exc()}}
            )
        with os.fdopen(write_fd, "w") as pipe:
            pipe.write(payload)
        os._exit(status)
    os.close(write_fd)
    _running.add(pid)
    return pid, read_fd, start


def _finish(handle) -> ColdResult:
    pid, read_fd, start = handle
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    seconds = time.perf_counter() - start
    _, status, usage = os.wait4(pid, 0)
    _running.discard(pid)
    try:
        message = json.loads(data)
    except ValueError:
        message = {"ok": False, "value": {"error": f"no result: {data!r}"}}
    ok = bool(message["ok"]) and os.waitstatus_to_exitcode(status) == 0
    if not ok:
        print(f"perfbench: cold operation failed: {message['value']}",
              file=sys.stderr)
    # ru_maxrss is in KiB on Linux
    return ColdResult(ok, message["value"], seconds, usage.ru_maxrss / 1024)


def stop_all() -> None:
    """Kill and reap every child still running (a run cut short)."""
    for pid in _running:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    _running.clear()
