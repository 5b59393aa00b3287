"""anisopriv benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory. The workload's inputs are generated from the seed, then
repetitions run back to back (a closed loop with one client, in this one
process) for S seconds after one untimed warm-up, with a short speed gauge
between them. The repetition time reported is the median of their wall
times scaled to a reference machine speed by the gauge. Every repetition's outputs are
checked and compared byte for byte with the warm-up's. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). The line before it is the environment record. Generated
inputs, outputs, the result and the spans of a traced run go under
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Set-up is timed as SETUP_PROBES fresh interpreters; the median is reported.
SETUP_PROBES = 7
MIN_REPS = 3
# The speed gauge: GAUGE_ITERS loop turns after a pause of GAUGE_PAUSE_S, in
# which BLAS worker threads left spinning by the workload go to sleep.
# GAUGE_REF_S is about the gauge's median time on the machine the bounds in
# BENCHMARK.json were measured on (a shared 2-vCPU virtual machine, Python
# 3.11, numpy 2.4); timings are reported at that speed.
GAUGE_ITERS = 18_000
GAUGE_PAUSE_S = 0.2
GAUGE_REF_S = 0.08

END_TO_END_UNITS = {"run_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def gauge_s() -> float:
    """Wall time of a fixed task of interpreted loops and small numpy calls,
    the kind of work the workloads do: a gauge of the machine's current
    speed, independent of the package. The machine's speed drifts by tens of
    percent over minutes, whatever runs on it; repetition times divided by
    the gauge measured around them drift less (ten runs per workload spread
    0.05 to 0.09 scaled against 0.05 to 0.18 unscaled)."""
    import numpy as np

    m = np.linspace(0.1, 1.0, 64).reshape(8, 8)
    time.sleep(GAUGE_PAUSE_S)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(GAUGE_ITERS):
        acc += float((m @ m[i % 8]).sum()) + (i * i) % 7
    return time.perf_counter() - t0


def _import_package():
    """Import anisopriv from this checkout's src/, never from elsewhere."""
    if not (SRC / "anisopriv" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no anisopriv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import anisopriv

    if Path(anisopriv.__file__).resolve().parent != SRC / "anisopriv":
        raise SystemExit(f"benchmark: imported anisopriv from {anisopriv.__file__}")


def _setup(name: str, seed: int, workdir: Path):
    import workloads

    prep = workloads.WORKLOADS[name].generate(seed, workdir)
    workloads.validate(prep)
    return prep


def at_reference_speed(times: list[float], gauges: list[float]) -> float:
    """Median of the times, each scaled by GAUGE_REF_S / its gauge time."""
    return statistics.median(t * GAUGE_REF_S / g for t, g in zip(times, gauges))


def _time_setup(args) -> list[float]:
    """Wall time of fresh interpreters doing import, generation and validate.

    These are not scaled by the gauge: set-up is mostly imports, which the
    gauge did not track (ten runs per workload spread 0.14 to 0.21 scaled
    against 0.08 to 0.15 unscaled)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up probe failed:\n{proc.stderr}")
    return times


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas() -> dict:
    import ctypes
    import glob

    import numpy as np

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            threads = fn()
    return {"name": cfg.get("name"), "version": cfg.get("version"), "threads": threads}


def _environment(args, prep, setup_times) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": prep.sizes,
        "work_unit": prep.work_unit,
        "work_per_rep": prep.work,
        "setup_probe_s": setup_times,
        "load": "closed loop, 1 client, 1 process",
    }


class Runner:
    """Runs, checks and times repetitions, counting failed operations.

    An operation is a repetition, an output check or a determinism check.
    """

    def __init__(self, wl, prep):
        self.wl, self.prep = wl, prep
        self.attempted = self.failed = 0
        self.reference = None
        self.errors: list[str] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)
        print(f"benchmark: {what}", file=sys.stderr)

    def once(self) -> float | None:
        """One repetition; returns its wall time, or None if it failed."""
        self.attempted += 1
        gc.collect()  # so that no repetition pays for its predecessor's garbage
        t0 = time.perf_counter()
        try:
            out = self.wl.run(self.prep)
        except Exception as exc:  # a failed repetition is counted, not fatal
            self._fail(f"repetition raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        self.attempted += 2
        try:
            errors = self.wl.check(self.prep, out)
            digest = self.wl.digest(self.prep, out)
        except Exception as exc:
            self._fail(f"output check raised {type(exc).__name__}: {exc}")
            self._fail("determinism check skipped")
            return elapsed
        if errors:
            self._fail(f"output check: {'; '.join(errors)}")
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            self._fail("outputs differ from the first repetition's")
        return elapsed

    def loop(self, seconds: float, tracer=None) -> tuple[list[float], list[float], list[tuple]]:
        """Repetitions back to back until `seconds` have passed (at least
        MIN_REPS), with the speed gauge run between them. Returns the wall
        times of the successful ones, the mean gauge time before and after
        each, and, with a tracer, their (spans, counts)."""
        times, gauges, traces = [], [], []
        start = time.perf_counter()
        reps = 0
        before = gauge_s()
        while reps < MIN_REPS or time.perf_counter() - start < seconds:
            reps += 1
            if tracer is not None:
                tracer.take()
            elapsed = self.once()
            after = gauge_s()
            if elapsed is not None:
                times.append(elapsed)
                gauges.append((before + after) / 2.0)
                if tracer is not None:
                    traces.append(tracer.take())
            before = after
        return times, gauges, traces


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    os.environ.pop("ANISO_THREADS", None)
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workdir = WORK / args.workload
    if args.setup_probe:
        _setup(args.workload, args.seed, workdir / "probe")
        return 0

    setup_times = _time_setup(args)
    shutil.rmtree(workdir / "run", ignore_errors=True)
    (workdir / "run").mkdir(parents=True)
    prep = _setup(args.workload, args.seed, workdir / "run")
    wl = workloads.WORKLOADS[args.workload]
    env = _environment(args, prep, setup_times)
    runner = Runner(wl, prep)
    runner.once()  # warm-up: fills caches, sets the determinism reference

    if args.trace:
        import tracing

        plain, plain_gauges, _ = runner.loop(args.seconds / 2)
        with tracing.Tracer() as tracer:
            traced, traced_gauges, traces = runner.loop(args.seconds / 2, tracer)
        if not plain or not traced:
            raise SystemExit("benchmark: no repetition succeeded")
        per_rep = [tracing.summarize(spans, counts) for spans, counts in traces]
        layer = {m: statistics.median(r[m] for r in per_rep) for m in per_rep[0]}
        layer["trace.overhead_frac"] = (at_reference_speed(traced, traced_gauges)
                                        / at_reference_speed(plain, plain_gauges) - 1.0)
        metrics = {m: {"value": layer[m], "unit": u} for m, u in tracing.METRICS}
        env["reps"] = {"untraced": len(plain), "traced": len(traced)}
        spans, _ = traces[0]
        t0 = spans[0][1]
        (workdir / f"spans-seed{args.seed}.json").write_text(
            json.dumps([[n, s - t0, e - t0, p] for n, s, e, p in spans]))
    else:
        times, gauges, _ = runner.loop(args.seconds)
        if not times:
            raise SystemExit("benchmark: no repetition succeeded")
        run_s = at_reference_speed(times, gauges)
        values = {
            "run_s": run_s,
            "work_per_s": prep.work / run_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END_UNITS.items()}
        env["reps"] = len(times)
        env["wall_run_s"] = statistics.median(times)
        env["rep_s"] = times
        env["gauge_s"] = gauges

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    (workdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "errors": runner.errors, **result}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
