"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Input generation must be a pure function of the seed, and every output
check must reject a deliberately perturbed output.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import anisopriv.sde  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLI_WORKLOADS = ("mc-bound", "exact-tradeoff", "audit")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_a_pure_function_of_the_seed(name, tmp_path):
    wl = WORKLOADS[name]
    a = wl.generate(7, tmp_path / "a")
    b = wl.generate(7, tmp_path / "b")
    c = wl.generate(8, tmp_path / "c")

    def fingerprint(prep):
        if prep.config_path is not None:
            return prep.config_path.read_bytes()
        arrays = [prep.inputs["x0"]]
        for arm in ("a", "b"):
            arrays += [prep.inputs[arm].features, prep.inputs[arm].targets]
        return b"".join(np.ascontiguousarray(x).tobytes() for x in arrays)

    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)
    assert (a.sizes, a.work) == (c.sizes, c.work)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One validated, checked repetition of every workload at seed 3."""
    done = {}
    for name, wl in WORKLOADS.items():
        prep = wl.generate(3, tmp_path_factory.mktemp(name))
        workloads.validate(prep)
        out = wl.run(prep)
        assert wl.check(prep, out) == []
        done[name] = (prep, out)
    return done


def _copy_out(outdir: Path, dest: Path) -> Path:
    shutil.copytree(outdir, dest)
    return dest


def _edit_csv(path: Path, row: int, col: int, fn) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = repr(fn(float(rows[row][col])))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("row, fn", [
    (1, lambda v: 1e-3),          # bound nonzero at t = 0
    (5, lambda v: v * 10.0),      # bound decreases after row 5
    (2, lambda v: v * 0.5),       # bound falls below the exact KL
])
def test_mc_bound_check_rejects_perturbed_bound(outputs, tmp_path, row, fn):
    prep, outdir = outputs["mc-bound"]
    bad = _copy_out(outdir, tmp_path / "out")
    _edit_csv(bad / "bound_curve.csv", row, 1, fn)
    assert WORKLOADS["mc-bound"].check(prep, bad)


def test_mc_bound_check_rejects_curve_off_its_expectation(outputs, tmp_path):
    # 5 % up at the horizon keeps the curve increasing and above the exact
    # KL; only the comparison with the expected bound can catch it.
    prep, outdir = outputs["mc-bound"]
    bad = _copy_out(outdir, tmp_path / "out")
    _edit_csv(bad / "bound_curve.csv", -1, 1, lambda v: v * 1.05)
    errors = WORKLOADS["mc-bound"].check(prep, bad)
    assert len(errors) == 1 and "expected" in errors[0]


@pytest.mark.parametrize("col", [2, 3])
def test_exact_tradeoff_check_rejects_perturbed_column(outputs, tmp_path, col):
    prep, outdir = outputs["exact-tradeoff"]
    bad = _copy_out(outdir, tmp_path / "out")
    _edit_csv(bad / "tradeoff.csv", 3, col, lambda v: v * (1.0 + 1e-7))
    assert WORKLOADS["exact-tradeoff"].check(prep, bad)


def _set_counts(report, per_outer):
    """Give every outer round `per_outer` counts, keeping the identities."""
    wl = WORKLOADS["audit"]
    delta = per_outer / (wl.inner * wl.classes * wl.per_class)
    report["counts_per_outer"] = [per_outer] * wl.outer
    report["delta_per_outer"] = [delta] * wl.outer
    report["delta"] = delta


@pytest.mark.parametrize("edit", [
    lambda r: r["delta_per_outer"].__setitem__(0, r["delta_per_outer"][0] + 1e-3),
    lambda r: r.__setitem__("total_comparisons", r["total_comparisons"] + 1),
    lambda r: r.__setitem__("excluded_rounds", 1),
    lambda r: _set_counts(r, 0),     # consistent, but the models never differ
    lambda r: _set_counts(r, 240),   # consistent, but delta 0.2 per outer round
])
def test_audit_check_rejects_perturbed_report(outputs, tmp_path, edit):
    prep, outdir = outputs["audit"]
    bad = _copy_out(outdir, tmp_path / "out")
    report = json.loads((bad / "audit_report.json").read_text())
    edit(report)
    (bad / "audit_report.json").write_text(json.dumps(report))
    assert WORKLOADS["audit"].check(prep, bad)


@pytest.mark.parametrize("arm, index, value", [
    (0, (4, 10, 2), np.nan),   # a non-finite state
    (1, (0, 0, 0), 1e-3),      # arms differ at t = 0 (added to the entry)
    (1, (49, 20, 3), 1e-3),    # an increment off its noise covariance
])
def test_sgd_check_rejects_perturbed_states(outputs, arm, index, value):
    prep, (ens_a, ens_b) = outputs["sgd-diffusion"]
    arms = [ens_a.states.copy(), ens_b.states.copy()]
    arms[arm][index] = value if np.isnan(value) else arms[arm][index] + value
    bad = [anisopriv.sde.TrajectoryEnsemble(ens_a.times, s, ens_a.seed) for s in arms]
    assert WORKLOADS["sgd-diffusion"].check(prep, bad)


@pytest.mark.parametrize("name", CLI_WORKLOADS)
def test_digest_ignores_only_timing_fields(outputs, tmp_path, name):
    prep, outdir = outputs[name]
    wl = WORKLOADS[name]
    ref = wl.digest(prep, outdir)
    out = _copy_out(outdir, tmp_path / "out")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["timestamp"] = {"utc": "later", "wall_clock_seconds": 123.0}
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert wl.digest(prep, out) == ref
    manifest["seed"] += 1
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert wl.digest(prep, out) != ref


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.METRICS)


def test_timings_are_scaled_by_the_gauge_around_them():
    # At half the reference speed both a repetition and the gauge take twice
    # as long; the scaled median is unchanged.
    times, gauges = [2.0, 4.0, 9.0], [0.16, 0.32, 0.16]
    assert run.at_reference_speed(times, gauges) == pytest.approx(12.5 * run.GAUGE_REF_S)


def test_tracer_restores_every_wrapped_attribute():
    before = [vars(tracing._owner(path))[attr] for _, path, attr, _ in tracing.SITES]
    with tracing.Tracer():
        during = [vars(tracing._owner(path))[attr] for _, path, attr, _ in tracing.SITES]
    after = [vars(tracing._owner(path))[attr] for _, path, attr, _ in tracing.SITES]
    assert all(a is b for a, b in zip(before, after))
    assert not any(a is b for a, b in zip(before, during))


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.run", 0.0, 10.0, -1],
        ["sde.simulate", 1.0, 7.0, 0],
        ["rng.step_normals", 2.0, 5.0, 1],
        ["sde.drift", 5.0, 6.0, 1],
    ]
    m = tracing.summarize(spans, tracing.Counter({"rng.normals_drawn": 12}))
    assert m["cli.self_s"] == 4.0
    assert m["sde.self_s"] == 2.0 + 1.0
    assert m["rng.self_s"] == 3.0
    assert m["rng.step_normals.calls"] == 1 and m["rng.normals_drawn"] == 12
    assert m["sde.drift.s"] == 1.0 and m["ou.exact_state.calls"] == 0
