"""How stacked work is split: into near-equal row blocks (_row_blocks), and
into calls run in forked child processes, for the work that the global
interpreter lock would run one thread at a time: `models.train` splits its
runs by seed with these helpers, and `sde.paired_simulate` its two arms.

A child is made with os.fork, sends back its result or its exception through
a pipe, pickled, and exits with os._exit; no `multiprocessing` is used. It
inherits this process's CPU set, and the kernel places it there. On
Python 3.12 and later, os.fork warns (DeprecationWarning) in a process with
other threads, such as BLAS threads; the fork goes ahead (the tier-1
workflow's Python 3.12 leg runs this case).
"""

from __future__ import annotations

import io
import os
import pickle

# Rows per block of stacked work (Euler paths, or MLP runs times rows per
# run); a larger stack is split into near-equal blocks, so no block of a
# larger ensemble has a single row (numpy sends 1-row products to gemv, whose
# last bits differ from gemm's). On 2 cores with OpenBLAS, over 15 alternating
# runs, mc_kl_bound at d = 8, 10^4 paths, 200 steps and record stride 10 took
# a median 384 ms (quartiles 377-400) in 2048-row blocks and 399 ms (385-420)
# as one block. An estimate_delta of 50 runs of 200-row batches (hidden 10)
# took 1.6-1.8 s in such blocks and 2.5-4 s as one block, which page-faulted
# about 600 times per step as its arrays were mapped and unmapped; 64 runs of
# 32-row batches (hidden 16) were slower in 3 blocks than in one.
_BLOCK_ROWS = 2048


def _row_blocks(n: int, rows: int = 1) -> list[slice]:
    """Near-equal blocks, in order, of a stack of n items (Euler paths, or
    runs) of `rows` rows each; a block has at most _BLOCK_ROWS rows, or one
    item."""
    n_blocks = -(-n // max(1, _BLOCK_ROWS // rows))
    return [slice(i * n // n_blocks, (i + 1) * n // n_blocks) for i in range(n_blocks)]


def _usable_cpus() -> int:
    """How many CPUs this process may run on; 1 where os.fork or
    os.sched_getaffinity is missing, so that no caller splits."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _in_processes(jobs) -> list:
    """Results of the calls jobs[0](), ..., jobs[-1](): the first runs here,
    each other one in a forked child that sends back its result or its
    exception through a pipe, pickled. Raises the first failed job's
    exception, after every child has been reaped; children still running
    then are killed. A child's result or exception that cannot be unpickled
    here raises RuntimeError naming its type."""
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
                _child(w, job)
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


def _child(w: int, job):
    """Body of a forked child of _in_processes: run job and write to the
    pipe's write end w, pickled, (ok, the outcome's type name) and then the
    outcome, job's result (ok True) or exception (ok False); never returns."""
    code = 1
    try:
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
