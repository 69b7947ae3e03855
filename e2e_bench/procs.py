"""Starting and stopping the benchmark's subprocesses.

Every helper (the oracle, the batch engine host, the serve daemon) runs in
a session of its own, and the benchmark is a child subreaper, so that the
helper's descendants (the engine's executor workers, multiprocessing's
resource tracker) are re-parented to the benchmark when the helper exits.
:func:`stop_group` then ends and reaps the whole group: no process the
benchmark started outlives it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

#: How long a finished helper's remaining processes get to exit by
#: themselves (the resource tracker unlinks shared memory on its way out)
#: before they are killed.
GRACE_S = 5.0


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process rather than
    to init (Linux ``PR_SET_CHILD_SUBREAPER``; a no-op elsewhere)."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def start(argv, **popen_kw) -> subprocess.Popen:
    """Start ``python3 ARGV...`` as the leader of a new session."""
    return subprocess.Popen([sys.executable, *argv], start_new_session=True, **popen_kw)


def stop_group(proc: subprocess.Popen, timeout_s: float = 0.0) -> None:
    """Wait up to ``timeout_s`` for ``proc`` and up to :data:`GRACE_S` more
    for the rest of its process group to exit, kill what is left of the
    group, and reap the leader and every orphan of the group."""
    group = proc.pid
    try:
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            return
        # Reap members as they exit; stops early once none is left.
        deadline = time.monotonic() + GRACE_S
        while time.monotonic() < deadline:
            try:
                pid, _ = os.waitpid(-group, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                time.sleep(0.01)
    finally:
        try:
            os.killpg(group, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
        while True:
            try:
                os.waitpid(-group, 0)
            except ChildProcessError:
                break
