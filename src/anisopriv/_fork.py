"""Calls run in forked child processes, for the work that the global
interpreter lock would run one thread at a time: `models.train` splits its
runs by seed with these helpers, and `sde.paired_simulate` its two arms.

A child is made with os.fork, sends back its result or its exception through
a pipe, pickled, and exits with os._exit; no `multiprocessing` is used. On
Python 3.12 and later, os.fork warns (DeprecationWarning) in a process with
other threads, such as BLAS threads; the fork goes ahead (this case has not
been run).
"""

from __future__ import annotations

import io
import os
import pickle


def _usable_cpus() -> set[int]:
    """The CPUs this process may run on; one where os.fork or
    os.sched_getaffinity is missing, so that no caller splits."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return {0}
    return os.sched_getaffinity(0)


def _current_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat), or
    None where that is not readable."""
    try:
        with open("/proc/self/stat") as fh:
            return int(fh.read().rpartition(")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _in_processes(cpus: set[int], jobs) -> list:
    """Results of the calls jobs[0](), ..., jobs[-1](): the first runs here,
    each other one in a forked child that sends back its result or its
    exception through a pipe, pickled, and is kept off the CPU this process
    is on. Raises the first failed job's exception, after every child has
    been reaped; children still running then are killed. A child's result or
    exception that cannot be unpickled here raises RuntimeError naming its
    type."""
    cpu = _current_cpu()
    others = cpus - {cpu}
    results = [None] * len(jobs)
    pending = []  # (pid, read end, job index)
    try:
        for i, job in enumerate(jobs[1:], 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(w, others, job)
            os.close(w)
            pending.append((pid, open(r, "rb"), i))
        results[0] = jobs[0]()
        while pending:
            pid, reader, i = pending[0]
            with reader:
                data = reader.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pending[0]
            if code != 0:
                raise RuntimeError(f"child process {pid} ended with exit code {code}")
            stream = io.BytesIO(data)
            ok, what = pickle.load(stream)
            try:
                results[i] = pickle.load(stream)
            except Exception as exc:
                raise RuntimeError(f"child process {pid} sent {what}, which could not be "
                                   f"unpickled: {type(exc).__name__}: {exc}") from None
            if not ok:
                raise results[i]
    finally:
        if pending:  # a job failed; signal is imported here, as it adds 1 ms to import time
            import signal
        for pid, reader, _ in pending:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            reader.close()
            os.waitpid(pid, 0)
    return results


def _child(w: int, cpus: set[int], job):
    """Body of a forked child of _in_processes: run job on the given CPUs
    and write to the pipe's write end w, pickled, (ok, the outcome's type
    name) and then the outcome, job's result (ok True) or exception (ok
    False); never returns."""
    code = 1
    try:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:  # no such CPU: stay where the fork put us
            pass
        try:
            ok, outcome = True, job()
        except BaseException as exc:
            ok, outcome = False, exc
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception:  # an outcome that does not pickle
            ok, outcome = False, RuntimeError(f"{type(outcome).__name__}: {outcome}")
            data = pickle.dumps(outcome)
        what = f"{'a result' if ok else 'an exception'} of type {type(outcome).__name__}"
        with open(w, "wb") as fh:
            fh.write(pickle.dumps((ok, what)))
            fh.write(data)
        code = 0
    finally:
        os._exit(code)
