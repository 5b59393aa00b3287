"""Config-driven CLI: validation paths, run outputs, reproducibility."""

import argparse
import ast
import contextlib
import copy
import csv
import functools
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anisopriv
import anisopriv.sde
from anisopriv import __version__
from anisopriv.cli import _write_csv, _write_json, main
from anisopriv.errors import AnisoError, TrainingDivergedWarning
from anisopriv.linalg import SpdMatrix
from anisopriv.ou import QuadraticProblem, euler_law, gaussian_kl


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def closed_bounds_doc(**over):
    doc = {
        "schema_version": 1,
        "seed": 3,
        "output_dir": "out",
        "experiment": {
            "kind": "closed-bounds",
            "kappa": 1.0, "grad_lip": 1.0,
            "kappa_prime": 1.0, "grad_lip_prime": 1.0,
            "sigma": 1.0, "sigma_prime": 1.0, "lsi0": 2.0,
            "xstar": [0.0], "xstar_prime": [1.0],
        },
    }
    doc.update(over)
    return doc


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.lstrip().startswith("{") else out


def error_paths(doc):
    return [e["path"] for e in doc["errors"]]


CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def shipped_doc(name, **over):
    path = CONFIG_DIR / f"{name}.json"
    doc = json.loads(path.read_text())
    doc["output_dir"] = "out"
    doc["experiment"].update(over)
    return doc


def test_version(capsys):
    code, out = run_cli(capsys, "version")
    assert code == 0
    assert out.strip() == __version__


def test_validate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", closed_bounds_doc())
    code, doc = run_cli(capsys, "validate", cfg)
    assert code == 0
    assert doc["ok"] is True
    assert doc["experiment"] == "closed-bounds"
    assert len(doc["config_hash"]) == 64
    assert doc["derived"] and all(isinstance(d, str) for d in doc["derived"])


def set_at(doc, where, key, value):
    obj = doc
    for k in where:
        obj = obj[k]
    obj[key] = value
    return doc


@pytest.mark.parametrize("where, key, value, path, message", [
    ((), "output_dir", "", "$.output_dir", "must be a nonempty string"),
    (("experiment",), "epsilon", -1, "experiment.epsilon", "must be positive"),
    (("experiment", "scheme"), "sigma2", -1, "experiment.scheme.sigma2", "must be nonnegative"),
    (("experiment", "dataset"), "csv", "data.csv", "experiment.dataset",
     "provide exactly one of csv or synth"),
    (("experiment", "dataset", "synth"), "separation", -1, "experiment.dataset.synth.separation",
     "must be nonnegative"),
], ids=["$", "experiment", "scheme", "dataset", "synth"])
def test_validate_unknown_key_at_each_level(tmp_path, capsys, where, key, value, path, message):
    # the unknown key comes last in its object, and its error first
    doc = set_at(shipped_doc("dp-audit"), where, key, value)
    set_at(doc, where, "bogus", 1)
    code, report = run_cli(capsys, "validate", write_config(tmp_path / "cfg.json", doc))
    assert code == 1
    assert report["errors"] == [
        {"path": ".".join(where or ("$",)) + ".bogus", "message": "unknown key"},
        {"path": path, "message": message},
    ]


@pytest.mark.parametrize("where", [
    ("experiment",), ("experiment", "scheme"), ("experiment", "dataset"),
    ("experiment", "dataset", "synth"),
], ids=["experiment", "scheme", "dataset", "synth"])
def test_validate_non_object(tmp_path, capsys, where):
    doc = set_at(shipped_doc("dp-audit"), where[:-1], where[-1], [1])
    code, report = run_cli(capsys, "validate", write_config(tmp_path / "cfg.json", doc))
    assert code == 1
    assert report["errors"] == [{"path": ".".join(where), "message": "must be an object"}]


@pytest.mark.parametrize("value, message", [
    (..., "missing required field"), (None, "missing required field"),
    ("dp-audit", "must be an object"),
], ids=["missing", "null", "non-object"])
def test_validate_experiment_errors_at_one_path(tmp_path, capsys, value, message):
    # like every nested object, experiment reports at the path its keys hang from
    doc = shipped_doc("dp-audit")
    if value is ...:
        del doc["experiment"]
    else:
        doc["experiment"] = value
    code, report = run_cli(capsys, "validate", write_config(tmp_path / "cfg.json", doc))
    assert code == 1
    assert report["errors"] == [{"path": "experiment", "message": message}]


def test_validate_rejects_noise_on(tmp_path, capsys):
    # noisy training always scales its noise by the minibatch gradient
    doc = shipped_doc("dp-audit", noise_on="step")
    code, report = run_cli(capsys, "validate", write_config(tmp_path / "cfg.json", doc))
    assert code == 1
    assert report["errors"] == [{"path": "experiment.noise_on", "message": "unknown key"}]


def test_validate_missing_required_field(tmp_path, capsys):
    doc = {"experiment": {"kind": "privacy-translate", "lsi_const": 1.0, "lip": 1.0}}
    cfg = write_config(tmp_path / "cfg.json", doc)
    code, out = run_cli(capsys, "validate", cfg)
    assert code == 1
    assert out["errors"] == [
        {"path": "experiment.kl", "message": "missing required field"}
    ]


@pytest.mark.parametrize("seed", [-1, 2**64, True, "7"])
def test_validate_bad_seed(tmp_path, capsys, seed):
    # the config's seed and the synthetic dataset's follow one rule
    doc = shipped_doc("dp-audit")
    doc["seed"] = seed
    doc["experiment"]["dataset"]["synth"]["seed"] = seed
    code, report = run_cli(capsys, "validate", write_config(tmp_path / "cfg.json", doc))
    assert code == 1
    assert report["errors"] == [
        {"path": path, "message": "must be an unsigned 64-bit integer"}
        for path in ("$.seed", "experiment.dataset.synth.seed")
    ]


def test_validate_unknown_kind(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {"experiment": {"kind": "teleport"}})
    code, doc = run_cli(capsys, "validate", cfg)
    assert code == 1
    assert "experiment.kind" in error_paths(doc)


def test_validate_missing_file(tmp_path, capsys):
    code, doc = run_cli(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 1
    assert error_paths(doc) == ["$"]
    assert "not found" in doc["errors"][0]["message"]


def test_validate_invalid_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    code, doc = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "invalid JSON" in doc["errors"][0]["message"]


def invoke(argv):
    """(exit code, stdout, stderr) of main(argv), with argparse's exits caught."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


USAGE_ERRORS = {
    "missing config": (["run"], "anisopriv run: error: the following arguments are required: "
                                "config\n"),
    "unknown command": (["bogus", "x"], "anisopriv: error: argument command: invalid choice: "
                                        "'bogus' "),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exits_1_with_argparse_message(monkeypatch, argv, message):
    # exit 2 means a numerical failure, so a usage error is exit 1, as a bad
    # config is; the stderr text is what a stock argparse parser prints
    code, out, err = invoke(argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: anisopriv") and message in err
    monkeypatch.setattr(anisopriv.cli, "_ArgumentParser", argparse.ArgumentParser)
    stock = anisopriv.cli._parser.__wrapped__()
    assert type(stock) is argparse.ArgumentParser
    monkeypatch.setattr(anisopriv.cli, "_parser", lambda: stock)
    assert invoke(argv) == (2, "", err)


def test_help_exits_0():
    for argv in (["--help"], ["run", "--help"]):
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: anisopriv")


def test_parser_is_built_once_and_reused_by_every_command(tmp_path, monkeypatch):
    # the cached parser gives each command, in any order, the exit code and
    # output of a parser built for it alone
    assert anisopriv.cli._parser() is anisopriv.cli._parser()
    cfg = write_config(tmp_path / "cfg.json", closed_bounds_doc())
    commands = [["run", cfg], ["validate", cfg], ["version"],
                ["validate", str(tmp_path / "nope.json")], *(a for a, _ in USAGE_ERRORS.values())]
    cached = [invoke(argv) for argv in commands]
    assert [c[0] for c in cached] == [0, 0, 0, 1, 1, 1]
    rng = np.random.default_rng(5)
    orders = [commands[::-1], *([commands[i] for i in rng.permutation(6)] for _ in range(3))]
    for order in orders:
        assert [invoke(argv) for argv in order] == [cached[commands.index(a)] for a in order]
    monkeypatch.setattr(anisopriv.cli, "_parser", anisopriv.cli._parser.__wrapped__)
    assert [invoke(argv) for argv in commands] == cached


def test_aniso_threads_env_is_ignored_and_not_recorded(tmp_path, capsys, monkeypatch):
    # ANISO_THREADS is not read any more: it neither fails nor is recorded
    monkeypatch.setenv("ANISO_THREADS", "2")
    cfg = write_config(tmp_path / "cfg.json", closed_bounds_doc())
    code, _ = run_cli(capsys, "run", cfg)
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "threads" not in manifest


def test_run_closed_bounds(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", closed_bounds_doc())
    code, doc = run_cli(capsys, "run", cfg)
    assert code == 0
    assert doc["ok"] is True
    assert doc["output_dir"] == str(tmp_path / "out")

    bounds = json.loads((tmp_path / "out" / "closed_bounds.json").read_text())
    # all-ones regularity with unit optimum gap
    assert bounds["klbound"] == pytest.approx(480.0, rel=1e-12)
    assert bounds["klbound_stationary_start"] == pytest.approx(192.0, rel=1e-12)
    assert bounds["klbound_stationary"] == pytest.approx(2.0, rel=1e-12)

    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_hash"] == doc["config_hash"]
    assert manifest["seed"] == 3
    assert manifest["experiment"] == "closed-bounds"
    assert manifest["versions"]["anisopriv"] == __version__
    assert "threads" not in manifest
    assert set(manifest["timestamp"]) == {"utc", "load_seconds", "wall_clock_seconds"}
    assert all(manifest["timestamp"][k] >= 0.0 for k in ("load_seconds", "wall_clock_seconds"))


@pytest.mark.parametrize("over, path", [
    ({"sigma": 1e300}, "experiment.sigma"),  # sigma**2 overflows
    ({"sigma": 1e-300}, "experiment.sigma"),  # sigma**2 is 0, a division by zero
    ({"sigma": 1e-154}, "experiment.sigma"),  # a bound of inf
    ({"sigma_prime": 1e-154}, "experiment.sigma_prime"),  # sigma_prime**6 is 0
    ({"sigma": 1e-100, "kappa": 1e-200}, "experiment.kappa"),  # the LSI rate is 0
    ({"xstar_prime": [1e300]}, "experiment.xstar_prime"),  # the optimum gap overflows
])
def test_closed_bounds_not_finite_rejected_by_validate(tmp_path, capsys, over, path):
    doc = closed_bounds_doc()
    doc["experiment"].update(over)
    cfg = write_config(tmp_path / "cfg.json", doc)
    for cmd in ("validate", "run"):
        code, report = run_cli(capsys, cmd, cfg)
        assert code == 1
        assert error_paths(report) == [path]
    assert not (tmp_path / "out").exists()


def test_rerun_identical_except_timestamp(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", closed_bounds_doc())
    assert run_cli(capsys, "run", cfg)[0] == 0
    first = (tmp_path / "out" / "closed_bounds.json").read_bytes()
    m1 = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert run_cli(capsys, "run", cfg)[0] == 0
    second = (tmp_path / "out" / "closed_bounds.json").read_bytes()
    m2 = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert first == second
    m1.pop("timestamp")
    m2.pop("timestamp")
    assert m1 == m2


def test_config_hash_ignores_output_dir(tmp_path, capsys):
    a = write_config(tmp_path / "a.json", closed_bounds_doc(output_dir="here"))
    b = write_config(tmp_path / "b.json", closed_bounds_doc(output_dir="there"))
    c = write_config(tmp_path / "c.json", closed_bounds_doc(seed=4))
    _, da = run_cli(capsys, "validate", a)
    _, db = run_cli(capsys, "validate", b)
    _, dc = run_cli(capsys, "validate", c)
    assert da["config_hash"] == db["config_hash"]
    assert da["config_hash"] != dc["config_hash"]


def test_run_resolves_paths_against_config_dir(tmp_path, capsys, monkeypatch):
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    cfg = write_config(cfg_dir / "cfg.json", closed_bounds_doc(output_dir="results"))
    monkeypatch.chdir(elsewhere)
    code, _ = run_cli(capsys, "run", cfg)
    assert code == 0
    assert (cfg_dir / "results" / "closed_bounds.json").is_file()
    assert not (elsewhere / "results").exists()


@pytest.mark.parametrize("output_dir", ["taken", "taken/sub"])
def test_output_dir_on_a_file_rejected_by_validate_and_run(tmp_path, capsys, output_dir):
    # run could not make output_dir a directory: a file holds its path, or a parent's
    (tmp_path / "taken").write_text("a file")
    cfg = write_config(tmp_path / "cfg.json",
                       {**shipped_doc("privacy-translate"), "output_dir": output_dir})
    for cmd in ("validate", "run"):
        code, report = run_cli(capsys, cmd, cfg)
        assert code == 1
        assert report["errors"] == [{"path": "$.output_dir",
                                     "message": "taken is not a directory"}]
    assert (tmp_path / "taken").read_text() == "a file"


def test_run_simulate_writes_ensemble(tmp_path, capsys):
    doc = {
        "seed": 5,
        "experiment": {
            "kind": "simulate",
            "design": [[1.0]], "target": [0.0], "sigma_diag": [1.0],
            "x0": [0.0], "step": 0.25, "horizon": 1.0, "paths": 3,
        },
    }
    cfg = write_config(tmp_path / "cfg.json", doc)
    code, _ = run_cli(capsys, "run", cfg)
    assert code == 0
    lines = (tmp_path / "out" / "ensemble.csv").read_text().splitlines()
    assert lines[0] == "path,time,x0"
    # 3 paths, 5 recorded times each (t=0 through t=1 in steps of 0.25)
    assert len(lines) == 1 + 3 * 5


def test_run_simulate_non_finite_states_is_numerical_failure(tmp_path, capsys):
    # design 1e200 passes validate, but the drift's Gram matrix overflows
    doc = shipped_doc("simulate", design=[[1e200, 0.0], [0.0, 1.5]], paths=4)
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert run_cli(capsys, "validate", cfg)[0] == 0
    code, report = run_cli(capsys, "run", cfg)
    assert code == 2
    assert report["operation"] == "euler"
    assert not (tmp_path / "out" / "ensemble.csv").exists()


def quad_tradeoff_doc(**over):
    exp = {
        "kind": "quad-tradeoff",
        "design": [[1.0, 0.4], [0.0, 2.0]], "target": [0.0, 0.0],
        "target_prime": [0.1, 0.2], "x0": [0.0, 0.0], "time": 1.0,
        "x_range": [0.5, 1.0], "y_range": [0.5, 1.0], "resolution": 2,
    }
    exp.update(over)
    return {"seed": 1, "output_dir": "out", "experiment": exp}


def kl_bound_doc(**over):
    exp = {
        "kind": "kl-bound",
        "design": [[1.0, 0.0], [0.0, 1.0]], "target": [0.0, 0.0],
        "target_prime": [0.1, 0.0], "sigma_diag": [1.0, 1.0], "x0": [0.0, 0.0],
        "step": 0.1, "horizon": 0.2, "paths": 4,
    }
    exp.update(over)
    return {"seed": 1, "output_dir": "out", "experiment": exp}


def test_kl_bound_sigma_prime_equal_to_sigma_is_the_shared_diffusion(tmp_path, capsys):
    # validate describes the path run takes: a sigma_prime equal to sigma is
    # the shared diffusion, with the same bound as no sigma_prime at all
    outputs = []
    for name, over in (("plain", {}), ("equal", {"sigma_prime": [[1.0, 0.0], [0.0, 1.0]]})):
        doc = kl_bound_doc(**over)
        doc["output_dir"] = name
        cfg = write_config(tmp_path / f"{name}.json", doc)
        code, report = run_cli(capsys, "validate", cfg)
        assert code == 0
        assert report["derived"][-1] == "drift-gap mismatch (shared diffusion)"
        assert run_cli(capsys, "run", cfg)[0] == 0
        outputs.append((tmp_path / name / "bound_curve.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_quad_tradeoff_base_config_runs(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", quad_tradeoff_doc())
    assert run_cli(capsys, "validate", cfg)[0] == 0
    assert run_cli(capsys, "run", cfg)[0] == 0
    assert len((tmp_path / "out" / "tradeoff.csv").read_text().splitlines()) == 1 + 4


@pytest.mark.parametrize("make_doc, over, path", [
    # a zero-time covariance is singular, so the exact KL has no Cholesky factor
    (quad_tradeoff_doc, {"time": 0}, "experiment.time"),
    (quad_tradeoff_doc, {"target": [0.0, 0.0, 0.0]}, "experiment.target"),
    (quad_tradeoff_doc, {"target_prime": [0.1, 0.2, 0.3]}, "experiment.target_prime"),
    (quad_tradeoff_doc, {"design_prime": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]},
     "experiment.target_prime"),
    (quad_tradeoff_doc, {"design_prime": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]},
     "experiment.design_prime"),
    (kl_bound_doc, {"target": [0.0, 0.0, 0.0]}, "experiment.target"),
    (kl_bound_doc, {"design": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}, "experiment.target"),
    (kl_bound_doc, {"target_prime": [0.1, 0.0, 0.0]}, "experiment.target_prime"),
    (kl_bound_doc, {"design_prime": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]},
     "experiment.target_prime"),
    # a full-rank 2-column design_prime against a 1-d problem
    (kl_bound_doc, {"design": [[1.0]], "target": [0.0], "sigma_diag": [1.0], "x0": [0.0],
                    "design_prime": [[1.0, 0.0], [0.0, 1.0]], "target_prime": [0.1, 0.0]},
     "experiment.design_prime"),
], ids=["zero-time", "target-vs-design", "target-prime-vs-design", "target-prime-vs-design-prime",
        "design-prime-columns", "kl-bound-target-vs-design", "kl-bound-design-vs-target",
        "kl-bound-target-prime-vs-design", "kl-bound-target-prime-vs-design-prime",
        "kl-bound-design-prime-columns"])
def test_quad_tradeoff_shape_errors_rejected_by_validate(tmp_path, capsys, make_doc, over, path):
    cfg = write_config(tmp_path / "cfg.json", make_doc(**over))
    for cmd in ("validate", "run"):
        code, doc = run_cli(capsys, cmd, cfg)
        assert code == 1
        assert path in error_paths(doc)
    assert not (tmp_path / "out").exists()


def ou_exact_doc(**over):
    exp = {
        "kind": "ou-exact",
        "design": [[1.0, 0.3], [0.0, 1.5]], "target": [0.5, 0.0],
        "sigma": [[1.0, 0.2], [0.2, 0.5]], "x0": [0.0, 0.0], "time": 1.5,
    }
    exp.update(over)
    return {"seed": 1, "output_dir": "out", "experiment": exp}


@pytest.mark.parametrize("make_doc, key", [
    (ou_exact_doc, "design"),
    (kl_bound_doc, "design"),
    (kl_bound_doc, "design_prime"),
    (quad_tradeoff_doc, "design"),
    (quad_tradeoff_doc, "design_prime"),
], ids=["ou-exact-design", "kl-bound-design", "kl-bound-design-prime",
        "quad-tradeoff-design", "quad-tradeoff-design-prime"])
def test_singular_design_rejected_by_validate(tmp_path, capsys, make_doc, key):
    # the Gram matrix of [[1, 1], [1, 1]] is singular, so the exact law has no optimum
    base = write_config(tmp_path / "base.json", make_doc())
    assert run_cli(capsys, "validate", base)[0] == 0
    cfg = write_config(tmp_path / "cfg.json", make_doc(**{key: [[1.0, 1.0], [1.0, 1.0]]}))
    for cmd in ("validate", "run"):
        code, doc = run_cli(capsys, cmd, cfg)
        assert code == 1
        assert f"experiment.{key}" in error_paths(doc)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("make_doc, over, path", [
    (ou_exact_doc, {"sigma": [[1.0, 0.2], [0.3, 0.5]]}, "experiment.sigma"),
    (kl_bound_doc, {"sigma_prime": [[1.0, 0.2], [0.3, 1.0]]}, "experiment.sigma_prime"),
    # 1e300 squared overflows, so the Gram matrix is not finite
    (ou_exact_doc, {"design": [[1e300, 0.0], [0.0, 1.0]]}, "experiment.design"),
    # a noise covariance must be positive definite: eigenvalues 3 and -1
    (functools.partial(shipped_doc, "simulate"), {"sigma": [[1.0, 2.0], [2.0, 1.0]]},
     "experiment.sigma"),
    (ou_exact_doc, {"sigma": [[1.0, 2.0], [2.0, 1.0]]}, "experiment.sigma"),
    (kl_bound_doc, {"sigma_diag": None, "sigma": [[1.0, 2.0], [2.0, 1.0]]}, "experiment.sigma"),
    (functools.partial(shipped_doc, "kl-bound"), {"sigma_prime": [[0.0]]},
     "experiment.sigma_prime"),
    # its Cholesky pivot is below the 1e-14 floor
    (functools.partial(shipped_doc, "kl-bound"), {"sigma_diag": [1e-300]},
     "experiment.sigma_diag"),
], ids=["asymmetric-sigma", "asymmetric-sigma-prime", "overflowing-gram",
        "indefinite-sigma-simulate", "indefinite-sigma-ou-exact", "indefinite-sigma-kl-bound",
        "semidefinite-sigma-prime", "tiny-sigma-diag"])
def test_bad_matrix_values_rejected_by_validate(tmp_path, capsys, make_doc, over, path):
    cfg = write_config(tmp_path / "cfg.json", make_doc(**over))
    for cmd in ("validate", "run"):
        code, doc = run_cli(capsys, cmd, cfg)
        assert code == 1
        assert error_paths(doc) == [path]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, over", [
    ("ou-exact", {"sigma": [[1.7e308, 0.0], [0.0, 0.5]]}),
    ("simulate", {"sigma": [[1.7e308, 0.0], [0.0, 0.5]]}),
    ("kl-bound", {"sigma_diag": [1.7e308]}),
], ids=["ou-exact", "simulate", "kl-bound"])
def test_huge_finite_covariance_runs(tmp_path, capsys, name, over):
    # the covariance is finite, so symmetrizing it must not overflow to inf
    doc = shrunk_shipped_doc(name)
    doc["experiment"].update(over)
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert run_cli(capsys, "validate", cfg)[0] == 0
    code, report = run_cli(capsys, "run", cfg)
    assert code == 0, report
    assert non_finite_outputs(tmp_path / "out") == []


@pytest.mark.parametrize("t", ["inf", 30.0])
def test_ou_exact_law_near_the_largest_float_runs(tmp_path, capsys, t):
    # the law's variance, 1.7e308 / 1.62 at stationarity, is finite, so
    # symmetrizing the law's covariance must not overflow it to inf
    cfg = write_config(tmp_path / "cfg.json", ou_exact_doc(
        design=[[0.9]], target=[0.5], sigma=[[1.7e308]], x0=[0.0], time=t))
    assert run_cli(capsys, "validate", cfg)[0] == 0
    code, report = run_cli(capsys, "run", cfg)
    assert code == 0, report
    # the file's one non-number is the time "inf"
    state = json.loads((tmp_path / "out" / "gaussian_state.json").read_text())
    assert np.isfinite(state["mean"]).all()
    assert 1e307 < np.asarray(state["cov"]).item() < math.inf


@pytest.mark.parametrize("over, path, message", [
    ({"record_stride": 3}, "experiment.record_stride",
     "step count must be divisible by record_stride"),
    ({"horizon": 0.05}, "experiment.horizon", "horizon must be at least one step"),
    ({"horizon": 1.05}, "experiment.horizon", "horizon must be an integer multiple of step"),
    # horizon/step is inf, which has no integer step count
    ({"horizon": 1e308, "step": 0.01}, "experiment.horizon",
     "the step count horizon/step must be below 2**63"),
    # 1e301 steps, recorded at every one of them
    ({"horizon": 1e300}, "experiment.horizon", "the step count horizon/step must be below 2**63"),
    ({"paths": 2**64}, "experiment.paths", "must be a signed 64-bit integer"),
], ids=["stride", "short-horizon", "fractional-horizon", "infinite-step-count",
        "huge-step-count", "paths-2e64"])
def test_sim_config_errors_land_on_their_field(tmp_path, capsys, over, path, message):
    doc = shipped_doc("simulate", step=0.1, horizon=1.0, record_stride=1, paths=4)
    doc["experiment"].update(over)
    cfg = write_config(tmp_path / "cfg.json", doc)
    code, report = run_cli(capsys, "validate", cfg)
    assert code == 1
    assert report["errors"] == [{"path": path, "message": message}]


# Each value rule that a built object states, broken alone in a shipped config:
# (kind, key under experiment, bad value, error path, message).
BUILT_OBJECT_RULES = [
    *[("closed-bounds", key, 0.0, f"experiment.{key}", "must be positive")
      for key in ("kappa", "grad_lip", "kappa_prime", "grad_lip_prime", "sigma", "sigma_prime",
                  "lsi0")],
    ("closed-bounds", "kappa", 2.0, "experiment.kappa", "cannot exceed grad_lip"),
    ("closed-bounds", "kappa_prime", 2.0, "experiment.kappa_prime",
     "cannot exceed grad_lip_prime"),
    ("closed-bounds", "xstar_prime", [1.0, 2.0], "experiment.xstar_prime",
     "length must match xstar"),
    ("simulate", "step", 0.0, "experiment.step", "must be positive"),
    ("kl-bound", "horizon", -1.0, "experiment.horizon", "must be positive"),
    ("simulate", "paths", 0, "experiment.paths", "must be >= 1"),
    ("kl-bound", "record_stride", 0, "experiment.record_stride", "must be >= 1"),
    ("dp-audit", "epsilon", -0.1, "experiment.epsilon", "must be positive"),
    ("dp-audit", "outer_rounds", 0, "experiment.outer_rounds", "must be >= 1"),
    ("dp-audit", "inner_rounds", -1, "experiment.inner_rounds", "must be >= 1"),
    ("dp-audit", "adjacency", "swap", "experiment.adjacency",
     "must be one of ['null', 'remove', 'replace']"),
    ("dp-audit", "scheme.sigma2", -1.0, "experiment.scheme.sigma2", "must be nonnegative"),
    ("membership", "dataset.synth.classes", 1, "experiment.dataset.synth.classes",
     "must be >= 2"),
    ("dp-audit", "dataset.synth.per_class", 0, "experiment.dataset.synth.per_class",
     "must be >= 1"),
    ("dp-audit", "dataset.synth.dim", 0, "experiment.dataset.synth.dim", "must be >= 1"),
    ("membership", "dataset.synth.separation", -3.0, "experiment.dataset.synth.separation",
     "must be nonnegative"),
    ("privacy-translate", "kl", -0.1, "experiment.kl", "must be nonnegative"),
    ("privacy-translate", "lsi_const", 0.0, "experiment.lsi_const", "must be positive"),
    ("privacy-translate", "lip", -1.0, "experiment.lip", "must be positive"),
    ("dp-audit", "lr", 0.0, "experiment.lr", "must be positive"),
    ("membership", "iters", 0, "experiment.iters", "must be >= 1"),
    ("dp-audit", "batch", 0, "experiment.batch", "must be >= 1"),
    ("dp-audit", "hidden", 0, "experiment.hidden", "must be >= 1"),
    ("membership", "hidden", 0, "experiment.hidden", "must be >= 1"),
    ("membership", "activation", "sigmoid", "experiment.activation",
     "must be one of ['relu', 'tanh']"),
    ("membership", "runs", 0, "experiment.runs", "must be >= 1"),
    ("membership", "target_index", -1, "experiment.target_index", "must be >= 0"),
    # the shipped membership dataset has 80 records
    ("membership", "target_index", 80, "experiment.target_index",
     "outside dataset of size 80"),
    *[(kind, key, value, f"experiment.{key}", "must be [lo, hi] with 0 < lo < hi")
      for kind in ("grid-surface", "quad-tradeoff")
      for key, value in (("x_range", [2.0, 1.0]), ("y_range", [0.0, 1.0]))],
    ("grid-surface", "resolution", 1, "experiment.resolution", "must be >= 2"),
    ("quad-tradeoff", "resolution", 1, "experiment.resolution", "must be >= 2"),
    # the parse factors both time-t laws, whose covariances are about S t at a
    # small t, so a law below the pivot floor is refused at time, not in run
    ("quad-tradeoff", "time", 1e-154, "experiment.time", "Cholesky pivot 1.000e-155 <= 1e-14"),
    ("optimize-cov", "gaps", [0.0, 0.0, 0.0], "experiment.gaps",
     "at least one entry must be positive"),
    ("grid-surface", "gaps", [0.0, 0.0], "experiment.gaps", "at least one entry must be positive"),
    ("optimize-cov", "gaps", [-1.0, 1.0, 0.0], "experiment.gaps", "entries must be nonnegative"),
]


def test_quad_tradeoff_small_noise_runs_where_its_laws_factor(tmp_path, capsys):
    # the smallest variance 4e-14 sits near the pivot floor, yet both laws
    # factor at these times, so validate and run both pass
    for i, t in enumerate([1.0, 100.0, "inf"]):
        doc = with_experiment_values("quad-tradeoff", {"x_range": [2e-7, 0.9], "time": t})
        cfg = write_config(tmp_path / f"cfg{i}.json", doc)
        for cmd in ("validate", "run"):
            assert run_cli(capsys, cmd, cfg)[0] == 0, t


def with_experiment_values(name, values):
    """The shrunk shipped config name with each dotted key under experiment set."""
    doc = shrunk_shipped_doc(name)
    for key, value in values.items():
        *where, last = key.split(".")
        set_at(doc, ("experiment", *where), last, value)
    return doc


@pytest.mark.parametrize("kind, key, value, path, message", BUILT_OBJECT_RULES,
                         ids=[f"{kind}-{key}-{value}" for kind, key, value, _, _ in
                              BUILT_OBJECT_RULES])
def test_value_rule_of_a_built_object_lands_on_its_field(tmp_path, capsys, kind, key, value,
                                                         path, message):
    cfg = write_config(tmp_path / "cfg.json", with_experiment_values(kind, {key: value}))
    for cmd in ("validate", "run"):
        code, report = run_cli(capsys, cmd, cfg)
        assert code == 1
        assert report["errors"] == [{"path": path, "message": message}]
    assert not (tmp_path / "out").exists()


def test_two_value_faults_of_one_object_are_both_reported(tmp_path, capsys):
    doc = with_experiment_values("dp-audit", {"epsilon": -1, "outer_rounds": 0})
    code, report = run_cli(capsys, "validate", write_config(tmp_path / "cfg.json", doc))
    assert code == 1
    assert report["errors"] == [
        {"path": "experiment.epsilon", "message": "must be positive"},
        {"path": "experiment.outer_rounds", "message": "must be >= 1"},
    ]


def test_value_rules_wait_for_the_type_reads_of_their_object(tmp_path, capsys):
    # AuditConfig is not built while one of its fields fails its type read, so
    # epsilon's own rule is not checked, nor reported, until outer_rounds reads;
    # an optional integer, string or boolean that fails its read stands in for
    # no value, not for its default
    for kind, values, path, message in [
        ("simulate", {"step": 0, "record_stride": 1e300}, "record_stride",
         "must be an integer"),
        ("dp-audit", {"epsilon": -1, "outer_rounds": "2"}, "outer_rounds", "must be an integer"),
        ("dp-audit", {"epsilon": -1, "adjacency": 5}, "adjacency", "must be a string"),
        ("dp-audit", {"lr": 0, "activation": 5}, "activation", "must be a string"),
        ("membership", {"runs": 0, "null_control": "yes"}, "null_control", "must be a boolean"),
    ]:
        doc = with_experiment_values(kind, values)
        code, report = run_cli(capsys, "validate", write_config(tmp_path / "cfg.json", doc))
        assert code == 1
        assert report["errors"] == [{"path": f"experiment.{path}", "message": message}]


def test_kl_bound_curve_depends_on_neither_paths_nor_seed(tmp_path, capsys):
    # the curve is exact on the Euler grid: paths keeps its rules and is
    # named as ignored, and neither it nor the seed changes a byte
    curves = []
    for name, seed, paths in (("a", 1, 4), ("b", 2, None), ("c", 99, 10**6)):
        doc = kl_bound_doc(design=[[1.0, 0.3], [0.0, 1.5]], paths=paths)
        doc.update(seed=seed, output_dir=name)
        cfg = write_config(tmp_path / f"{name}.json", doc)
        code, report = run_cli(capsys, "validate", cfg)
        assert code == 0
        assert any(d.startswith("paths ignored") for d in report["derived"]) == (paths is not None)
        assert run_cli(capsys, "run", cfg)[0] == 0
        curves.append((tmp_path / name / "bound_curve.csv").read_bytes())
    assert curves[0] == curves[1] == curves[2]
    for paths, message in ((0, "must be >= 1"), (1.5, "must be an integer")):
        cfg = write_config(tmp_path / "bad.json", kl_bound_doc(paths=paths))
        assert run_cli(capsys, "validate", cfg)[1]["errors"] == [
            {"path": "experiment.paths", "message": message}]


def test_kl_bound_chain_that_overflows_is_numerical_failure(tmp_path, capsys):
    # step * w = 4 > 2: the Euler chain's variance grows as 9**n and
    # overflows within 400 steps, which validate cannot see
    doc = kl_bound_doc(design=[[2.0]], target=[0.0], target_prime=[0.1], sigma_diag=[1.0],
                       x0=[0.0], step=1.0, horizon=400.0, paths=None)
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert run_cli(capsys, "validate", cfg)[0] == 0
    code, report = run_cli(capsys, "run", cfg)
    assert code == 2
    assert report["operation"] == "euler_kl_bound"
    assert not (tmp_path / "out" / "bound_curve.csv").exists()
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_kl_bound_at_stride_one_bounds_the_chains_kl(tmp_path, capsys):
    # the shipped config with drifts that agree at x0, so the drift gap grows
    # from 0: on the shipped stride-10 grid the curve reads 0 at t = 0.1, below
    # both KLs. At stride 1 it is the two Euler chains' exact path KL, at or
    # above the KL of their laws after every step.
    doc = shipped_doc("kl-bound", design_prime=[[2.0]], target_prime=[0.0], x0=[0.0],
                      horizon=0.5, record_stride=1)
    assert run_cli(capsys, "run", write_config(tmp_path / "cfg.json", doc))[0] == 0
    curve = np.loadtxt(tmp_path / "out" / "bound_curve.csv", delimiter=",", skiprows=1)
    exp = doc["experiment"]
    s = SpdMatrix(np.diag(exp["sigma_diag"]))
    pa, pb = (QuadraticProblem(exp[b], exp[y], s, exp["x0"])
              for b, y in (("design", "target"), ("design_prime", "target_prime")))
    steps = np.arange(1, curve.shape[0])
    assert np.allclose(curve[1:, 0], steps * exp["step"], rtol=1e-14, atol=0.0)
    kl = gaussian_kl(euler_law(pa, exp["step"], steps), euler_law(pb, exp["step"], steps))
    assert kl[-1] > 0.3
    assert np.all(curve[1:, 1] >= kl * (1.0 - 1e-10))


def synth(**over):
    return {"synth": {"classes": 2, "per_class": 2, "dim": 2, "separation": 3.0, "seed": 20,
                      **over}}


@pytest.mark.parametrize("name, over, path, what", [
    ("simulate", {"paths": 2**40}, "experiment.paths", "the ensemble"),
    ("simulate", {"step": 1e-12, "horizon": 1e2, "record_stride": 1, "paths": 4},
     "experiment.horizon", "the ensemble"),
    ("kl-bound", {"step": 0.01, "horizon": 1e13, "record_stride": 1}, "experiment.horizon",
     "the chain's covariances"),
    ("grid-surface", {"resolution": 2**20}, "experiment.resolution", "the noise grid"),
    ("quad-tradeoff", {"resolution": 2**20}, "experiment.resolution", "the noise grid"),
    ("dp-audit", {"outer_rounds": 2**40}, "experiment.outer_rounds", "the training stack"),
    ("dp-audit", {"hidden": 2**40}, "experiment.hidden", "the training stack"),
    ("membership", {"runs": 2**40}, "experiment.runs", "the training stack"),
    # the training stack and the work are within their caps here, but another
    # array of the run is not, or the synthetic dataset drawn at the parse
    ("dp-audit", {"dataset": synth(per_class=2**40)}, "experiment.dataset.synth.per_class",
     "the synthetic features (classes x per_class x dim) would hold 4398046511104 "),
    ("dp-audit", {"outer_rounds": 1, "inner_rounds": 1, "iters": 2**36, "batch": 1,
                  "hidden": 1, "dataset": synth()},
     "experiment.iters", "the loss log (runs x iters) would hold 137438953472 "),
    ("dp-audit", {"outer_rounds": 1, "inner_rounds": 64, "iters": 32, "batch": 2,
                  "hidden": 1000, "dataset": synth(dim=500)},
     "experiment.hidden", "the noise block (seeds x 32 x parameters) would hold 1030148096 "),
    ("dp-audit", {"outer_rounds": 16000, "inner_rounds": 1, "iters": 32, "batch": 1,
                  "hidden": 1, "scheme": {"kind": "none"},
                  "dataset": synth(per_class=500, dim=1000)},
     "experiment.outer_rounds",
     "the stacked datasets (datasets x records x (features + 1)) would hold 16017001000 "),
], ids=["simulate-paths", "simulate-records", "kl-bound-records", "grid-surface",
        "quad-tradeoff", "dp-audit-rounds", "dp-audit-hidden", "membership-runs",
        "synth-features", "loss-log", "noise-block", "stacked-datasets"])
def test_work_above_the_element_cap_rejected_by_validate(tmp_path, capsys, name, over, path,
                                                         what):
    # each count fits in int64, but the array it asks for does not fit in
    # memory; validate refuses it at the key of the largest factor
    cfg = write_config(tmp_path / "cfg.json", shipped_doc(name, **over))
    for cmd in ("validate", "run"):
        code, report = run_cli(capsys, cmd, cfg)
        assert code == 1
        [error] = report["errors"]
        assert error["path"] == path
        assert error["message"].startswith(what)
        assert f"above the {anisopriv.cli.MAX_ELEMENTS} " in error["message"]
    assert not (tmp_path / "out").exists()


def test_batch_index_block_counts_each_record_count(tmp_path, capsys):
    # under remove adjacency a seed draws batch indices for D and for D', of
    # one record fewer: 2**21 seeds x 2 x 32 x batch 2 is twice the cap, while
    # under replace adjacency the block holds the cap exactly
    over = {"outer_rounds": 1, "inner_rounds": 2**21, "iters": 1, "batch": 2, "hidden": 1,
            "scheme": {"kind": "none"}, "dataset": synth()}
    for adjacency, code in (("replace", 0), ("remove", 1)):
        cfg = write_config(tmp_path / "cfg.json",
                           shipped_doc("dp-audit", adjacency=adjacency, **over))
        assert run_cli(capsys, "validate", cfg)[0] == code
    [error] = run_cli(capsys, "validate", cfg)[1]["errors"]
    assert error["path"] == "experiment.inner_rounds"
    assert error["message"].startswith("the batch-index block ")


def test_element_cap_is_inclusive(tmp_path, capsys):
    # one recorded step after t = 0 in 1-d: paths x 2 x 1 elements. validate
    # only, since a run at the cap would hold a 1 GiB ensemble
    doc = {"experiment": {"kind": "simulate", "design": [[1.0]], "target": [0.0],
                          "sigma_diag": [1.0], "x0": [0.0], "step": 1.0, "horizon": 1.0}}
    cap = anisopriv.cli.MAX_ELEMENTS
    for paths, code in ((cap // 2, 0), (cap // 2 + 1, 1)):
        doc["experiment"]["paths"] = paths
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert run_cli(capsys, "validate", cfg)[0] == code


@pytest.mark.parametrize("name, over, path, what", [
    ("dp-audit", {"iters": 2**62}, "experiment.iters", "the training "),
    ("membership", {"iters": 2**62}, "experiment.iters", "the training "),
    ("simulate", {"step": 2.0**-30, "horizon": 1.0, "record_stride": 2**30, "paths": 1024},
     "experiment.horizon", "the simulation "),
    ("simulate", {"step": 2.0**-15, "horizon": 1.0, "record_stride": 2**15, "paths": 2**25},
     "experiment.paths", "the simulation "),
], ids=["dp-audit-iters", "membership-iters", "simulate-steps", "simulate-paths"])
def test_work_above_the_work_cap_rejected_by_validate(tmp_path, capsys, name, over, path, what):
    # every array fits in memory, but the run would take days; validate refuses
    # it at the key of the largest factor of its work
    cfg = write_config(tmp_path / "cfg.json", shipped_doc(name, **over))
    for cmd in ("validate", "run"):
        code, report = run_cli(capsys, cmd, cfg)
        assert code == 1
        [error] = report["errors"]
        assert error["path"] == path
        assert error["message"].startswith(what)
        assert f"above the {anisopriv.cli._MAX_WORK} that one run may ask for" in error["message"]
    assert not (tmp_path / "out").exists()


def test_work_cap_is_inclusive(tmp_path, capsys):
    # 2**20 steps of 2**20 paths in 1-d, recorded at t = 0 and the horizon, is
    # exactly the cap. validate only, since a run at the cap takes hours
    cap = anisopriv.cli._MAX_WORK
    doc = {"experiment": {"kind": "simulate", "design": [[1.0]], "target": [0.0],
                          "sigma_diag": [1.0], "x0": [0.0], "step": 2.0**-20, "horizon": 1.0,
                          "record_stride": 2**20}}
    for paths, code in ((cap // 2**20, 0), (cap // 2**20 + 1, 1)):
        doc["experiment"]["paths"] = paths
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert run_cli(capsys, "validate", cfg)[0] == code


def test_kl_bound_refuses_unequal_diffusions(tmp_path, capsys):
    # both laws start at the point x0, where the second law has no score; with
    # its score taken one step late, 4000 paths gave a "bound" of 0.00086 at
    # t = 0.1, below the exact KL of 0.0219
    doc = kl_bound_doc(design=[[1.0, 0.3], [0.0, 1.5]], sigma_diag=None,
                       sigma=[[1.0, 0.0], [0.0, 0.5]], sigma_prime=[[0.8, 0.0], [0.0, 0.6]])
    cfg = write_config(tmp_path / "cfg.json", doc)
    for cmd in ("validate", "run"):
        code, report = run_cli(capsys, cmd, cfg)
        assert code == 1
        [error] = report["errors"]
        assert error["path"] == "experiment.sigma_prime"
        assert error["message"].startswith("must equal sigma: ")
        assert "x0" in error["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [2**63, 2**64, -2**63 - 1])
def test_integer_reads_reject_values_outside_int64(tmp_path, capsys, value):
    # a count is an int64 wherever it goes; 2**63 - 1 and -2**63 are its ends
    cfg = write_config(tmp_path / "cfg.json", shipped_doc("dp-audit", hidden=value))
    for cmd in ("validate", "run"):
        code, report = run_cli(capsys, cmd, cfg)
        assert code == 1
        assert report["errors"] == [
            {"path": "experiment.hidden", "message": "must be a signed 64-bit integer"}]
    assert not (tmp_path / "out").exists()
    # the ends of the range pass the read and meet the field's own rule, or
    # for the top end the cap on the training stack it asks for
    top = write_config(tmp_path / "top.json", shipped_doc("dp-audit", hidden=2**63 - 1))
    [error] = run_cli(capsys, "validate", top)[1]["errors"]
    assert error["path"] == "experiment.hidden"
    assert error["message"].startswith("the training stack ")
    bottom = write_config(tmp_path / "bottom.json", shipped_doc("dp-audit", hidden=-2**63))
    assert run_cli(capsys, "validate", bottom)[1]["errors"] == [
        {"path": "experiment.hidden", "message": "must be >= 1"}]


def test_run_overflow_is_numerical_failure(tmp_path, capsys):
    # every noise variance (up to 7.9e307) and every entry of the law is finite,
    # but the error sums two terms near 1.6e308 at the largest grid point
    doc = quad_tradeoff_doc(design=[[0.7071, 0.0], [0.0, 0.7071]], target_prime=[0.1, 0.3],
                            time=100.0, x_range=[0.3, 8.9e153], y_range=[0.3, 8.9e153])
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert run_cli(capsys, "validate", cfg)[0] == 0
    code, report = run_cli(capsys, "run", cfg)
    assert code == 2
    assert report["operation"] == "error_to_opt"


@pytest.mark.parametrize("x_range, message", [
    ([0.5, 1e300], "matrix entries must be finite"),  # x^2 overflows
    ([1e-8, 1.0], "Cholesky pivot 1.000e-16 <= 1e-14"),
], ids=["overflowing", "below-pivot-floor"])
def test_quad_tradeoff_grid_covariance_rejected_by_validate(tmp_path, capsys, x_range, message):
    # the parse builds the grid's noise covariance stack, so it is held to the
    # covariance contract: positive definite, every Cholesky pivot above 1e-14
    cfg = write_config(tmp_path / "cfg.json", quad_tradeoff_doc(x_range=x_range))
    for cmd in ("validate", "run"):
        code, report = run_cli(capsys, cmd, cfg)
        assert code == 1
        assert report["errors"] == [{"path": "experiment.x_range", "message": message}]
    assert not (tmp_path / "out").exists()


def test_run_exits_2_only_for_library_errors(tmp_path, capsys, monkeypatch):
    # an AnisoError is a numerical failure, also when raised by the draw of
    # the normals; any other exception is a bug and propagates
    cfg = write_config(tmp_path / "cfg.json", ou_exact_doc())
    sim = write_config(tmp_path / "sim.json", {"output_dir": "out", "experiment": {
        "kind": "simulate", "design": [[1.0]], "target": [0.0], "sigma_diag": [1.0],
        "x0": [0.0], "step": 0.1, "horizon": 0.5, "paths": 3}})

    def failed_draw(seed, step, shape):
        raise AnisoError("draw failed", operation="step_normals")

    monkeypatch.setattr(anisopriv.sde, "step_normals", failed_draw)
    code, doc = run_cli(capsys, "run", sim)
    assert code == 2
    assert doc["operation"] == "step_normals"

    def bug(*args):
        raise ValueError("a bug")

    monkeypatch.setattr(anisopriv.sde, "step_normals", bug)
    with pytest.raises(ValueError, match="a bug"):
        main(["run", sim])
    monkeypatch.setattr(anisopriv.cli, "exact_state", bug)
    with pytest.raises(ValueError, match="a bug"):
        main(["run", cfg])


@pytest.mark.parametrize("name, over, ok_over", [
    # 80 records; without the control one arm trains on the other 79
    ("membership", {"batch": 80}, {"batch": 80, "null_control": True}),
    # 100 records; remove adjacency trains one arm on 99
    ("dp-audit", {"batch": 100, "adjacency": "remove"}, {"batch": 100}),
], ids=["membership", "dp-audit-remove"])
def test_batch_larger_than_smaller_arm_rejected_by_validate(tmp_path, capsys, name, over,
                                                            ok_over):
    # the same batch is fine when both arms keep every record
    base = write_config(tmp_path / "base.json", shipped_doc(name, **ok_over))
    assert run_cli(capsys, "validate", base)[0] == 0
    cfg = write_config(tmp_path / "cfg.json", shipped_doc(name, **over))
    for cmd in ("validate", "run"):
        code, doc = run_cli(capsys, cmd, cfg)
        assert code == 1
        assert error_paths(doc) == ["experiment.batch"]
    assert not (tmp_path / "out").exists()


# A small two-class dataset in the CSV layout read_dataset_csv expects.
DATA_CSV = """f0,f1,label
0.1,0.2,0
-0.3,0.4,0
0.5,-0.6,0
0.0,0.3,0
2.1,1.9,1
1.8,2.2,1
2.4,2.0,1
1.9,1.7,1
"""


def csv_audit_doc():
    return shipped_doc("dp-audit", dataset={"csv": "data.csv"}, batch=4, iters=5,
                       outer_rounds=1, inner_rounds=2)


def test_dp_audit_reads_csv_dataset(tmp_path, capsys):
    # a trailing blank line is not a record, so it changes no output
    for name, text in (("plain", DATA_CSV), ("blank-line", DATA_CSV + "\n")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "data.csv").write_text(text)
        cfg = write_config(tmp_path / name / "cfg.json", csv_audit_doc())
        assert run_cli(capsys, "validate", cfg)[0] == 0
        assert run_cli(capsys, "run", cfg)[0] == 0
    plain = (tmp_path / "plain" / "out" / "audit_report.json").read_bytes()
    assert plain == (tmp_path / "blank-line" / "out" / "audit_report.json").read_bytes()


@pytest.mark.parametrize("text, message", [
    (DATA_CSV.replace("f0,f1,label", "x,y,label"), "unexpected dataset header"),
    (DATA_CSV.replace(",1\n", ",1.5\n", 1), "line 6: invalid literal for int()"),
    (DATA_CSV.replace(",1\n", ",1.0\n", 1), "line 6: invalid literal for int()"),
    (DATA_CSV.replace("0.1,", "abc,", 1), "line 2: could not convert string to float"),
    (DATA_CSV.replace("-0.3,", "1e400,", 1), "line 3: features must be finite"),
    (DATA_CSV.replace("-0.3,", "inf,", 1), "line 3: features must be finite"),
    (DATA_CSV.replace("0.4,", "nan,", 1), "line 3: features must be finite"),
    (DATA_CSV + "0.5,1\n", "line 10 has 2 fields"),
    ("f0,f1,label\n", "dataset has no records"),
    (DATA_CSV.replace(",1\n", ",9223372036854775808\n", 1), "line 6 has label"),
    (DATA_CSV.replace(",1\n", ",99999999999999999999\n", 1), "line 6 has label"),
    # the csv module refuses a field over 131072 characters
    (DATA_CSV.replace("0.1,", "0." + "1" * 200_000 + ",", 1), "line 2: field larger"),
], ids=["bad-header", "non-integer-label", "float-label", "non-numeric-feature",
        "feature-1e400", "feature-inf", "feature-nan",
        "ragged-row", "header-only", "label-2e63", "label-1e20", "field-200k"])
def test_bad_csv_dataset_rejected_by_validate(tmp_path, capsys, text, message):
    (tmp_path / "data.csv").write_text(text)
    cfg = write_config(tmp_path / "cfg.json", csv_audit_doc())
    for cmd in ("validate", "run"):
        code, doc = run_cli(capsys, cmd, cfg)
        assert code == 1
        assert error_paths(doc) == ["experiment.dataset.csv"]
        assert doc["errors"][0]["message"].startswith(message), doc
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("label", [2**62, 2**63 - 1])
def test_csv_label_with_a_class_count_too_big_to_train_rejected_by_validate(tmp_path, capsys,
                                                                            label):
    # the label fits in int64, but the class count it sets sizes a parameter
    # vector per run that no memory holds
    (tmp_path / "data.csv").write_text(DATA_CSV.replace(",1\n", f",{label}\n", 1))
    cfg = write_config(tmp_path / "cfg.json", csv_audit_doc())
    for cmd in ("validate", "run"):
        code, report = run_cli(capsys, cmd, cfg)
        assert code == 1
        [error] = report["errors"]
        assert error["path"] == "experiment.dataset"
        assert error["message"].startswith("the training stack")
    assert not (tmp_path / "out").exists()


def test_replace_adjacency_on_a_one_record_dataset_rejected_by_validate(tmp_path, capsys):
    # a replace neighbour copies a second record, which this dataset lacks
    (tmp_path / "data.csv").write_text("f0,f1,label\n0.5,1.0,0\n")
    doc = csv_audit_doc()
    doc["experiment"].update(batch=1, scheme={"kind": "none"})
    cfg = write_config(tmp_path / "cfg.json", doc)
    for cmd in ("validate", "run"):
        code, report = run_cli(capsys, cmd, cfg)
        assert code == 1
        assert report["errors"] == [{"path": "experiment.adjacency",
                                     "message": "replace needs a dataset of at least 2 records"}]
    assert not (tmp_path / "out").exists()
    doc["experiment"]["adjacency"] = "null"
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert run_cli(capsys, "run", cfg)[0] == 0


@pytest.mark.parametrize("where, key", [
    (("experiment", "dataset"), "csv"),
    (("experiment", "dataset"), "synth"),
    (("experiment", "scheme"), "sigma2"),
], ids=["synth-and-null-csv", "csv-and-null-synth", "none-and-null-sigma2"])
def test_null_key_in_nested_object_counts_as_absent(tmp_path, capsys, where, key):
    # null is absent: not a second dataset source, nor a sigma2 beside kind "none"
    (tmp_path / "data.csv").write_text(DATA_CSV)
    doc = csv_audit_doc() if key == "synth" else shipped_doc("dp-audit")
    if key == "sigma2":
        doc["experiment"]["scheme"]["kind"] = "none"
    set_at(doc, where, key, None)
    code, report = run_cli(capsys, "validate", write_config(tmp_path / "cfg.json", doc))
    assert code == 0, report


def test_dp_audit_all_trainings_diverged_is_numerical_failure(tmp_path, capsys):
    # every training pair diverges, so no comparison is made and no delta is measured
    doc = shipped_doc("dp-audit", activation="relu", iters=20,
                      scheme={"kind": "anisotropic-param", "sigma2": 1e300})
    cfg = write_config(tmp_path / "cfg.json", doc)
    with pytest.warns(TrainingDivergedWarning):
        code, report = run_cli(capsys, "run", cfg)
    assert code == 2
    assert report["operation"] == "estimate_delta"
    assert not (tmp_path / "out" / "audit_report.json").exists()


def test_all_diverged_dp_audit_reports_under_runtime_warnings_as_errors(tmp_path):
    # the per-round exclusion warning is a UserWarning, so a caller who turns
    # numpy's RuntimeWarnings into errors still gets the exit-2 report
    doc = shipped_doc("dp-audit", activation="relu", iters=20,
                      scheme={"kind": "anisotropic-param", "sigma2": 1e300})
    cfg = write_config(tmp_path / "cfg.json", doc)
    src = str(Path(anisopriv.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "anisopriv.cli",
                           "run", cfg], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["operation"] == "estimate_delta"
    assert "TrainingDivergedWarning" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_diverged_membership_fails_without_numpy_warnings(tmp_path, capsys):
    # the trainings overflow; divergence is reported through the exit code
    # alone, not also through numpy's overflow and invalid-value warnings
    doc = shipped_doc("membership", scheme={"kind": "isotropic-layer", "sigma2": 1e300})
    code, report = run_cli(capsys, "run", write_config(tmp_path / "cfg.json", doc))
    assert code == 2
    assert report["operation"] == "membership_experiment"


def test_optimize_cov_zeta_near_the_largest_float_runs(tmp_path, capsys):
    # the budget times a gap overflows, but the allocation itself is finite
    cfg = write_config(tmp_path / "cfg.json", shipped_doc("optimize-cov", zetas=[1e308]))
    assert run_cli(capsys, "run", cfg)[0] == 0
    assert non_finite_outputs(tmp_path / "out") == []


def test_privacy_translate_huge_eps_runs(tmp_path, capsys):
    # (eps - kl)**2 overflows a float; delta takes its limit 0
    cfg = write_config(tmp_path / "cfg.json", shipped_doc("privacy-translate", eps=[1e308]))
    assert run_cli(capsys, "run", cfg)[0] == 0
    doc = json.loads((tmp_path / "out" / "privacy.json").read_text())
    assert doc["delta_from_eps"] == [[1e308, 0.0]]


DROP = object()

# Fields that only set how long a run takes, shrunk so that every mutant runs fast.
SHRINK = {"paths": 4, "iters": 5, "outer_rounds": 1, "inner_rounds": 1, "runs": 2}


def mutations(obj, where=()):
    """(where, key, value) for every single mutation of obj: drop a key, set it to
    null, append or drop the last entry of a list, and append or drop the last
    row or column of a matrix. value is DROP to delete the key."""
    for key, v in obj.items():
        yield where, key, DROP
        yield where, key, None
        if isinstance(v, dict):
            yield from mutations(v, where + (key,))
        elif isinstance(v, list) and v:
            yield where, key, v + v[-1:]
            yield where, key, v[:-1]
            if isinstance(v[0], list):
                yield where, key, [row + row[-1:] for row in v]
                yield where, key, [row[:-1] for row in v]


def numeric_mutations(obj, where=()):
    """(where, key, value) for every numeric leaf of obj other than the schema
    version, set in turn to zero times itself, its negation, +-1e300, 1e154 and
    1e-154, and an integer leaf also to 2**64; a seed, which sizes no work, is
    set to 2**64, -1 and true instead."""
    for key, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
        if isinstance(v, (dict, list)):
            yield from numeric_mutations(v, where + (key,))
        elif key == "seed":
            for value in (2**64, -1, True):
                yield where, key, value
        elif isinstance(v, (int, float)) and not isinstance(v, bool) and key != "schema_version":
            for value in (v * 0, -v, 1e300, -1e300, 1e154, 1e-154):
                yield where, key, value
            if isinstance(v, int):
                yield where, key, 2**64


def outcome(capsys, cmd, cfg):
    """(exit code, report), or (None, the exception) when main raised."""
    try:
        return run_cli(capsys, cmd, cfg)
    except Exception as exc:
        capsys.readouterr()
        return None, repr(exc)


NON_FINITE = re.compile(r"\b(?:inf|infinity|nan)\b", re.IGNORECASE)


def non_finite_outputs(out_dir):
    """Names of the files in out_dir, manifest.json aside, holding inf or nan."""
    return sorted(f.name for f in Path(out_dir).iterdir()
                  if f.name != "manifest.json" and NON_FINITE.search(f.read_text()))


# Noise-covariance keys: validate builds their matrices, positive definiteness
# and all, so a mutant of one that passes validate has nothing left to fail.
# quad-tradeoff's grid ranges count too, since its parse builds the grid's
# covariance stack; grid-surface's do not, since its trace can overflow.
COVARIANCE_KEYS = {"sigma", "sigma_diag", "sigma_prime", "v0_diag"}
GRID_COVARIANCE_KEYS = {"quad-tradeoff": {"x_range", "y_range"}}


def contract_breaches(tmp_path, capsys, doc, mutants):
    """The mutants of doc that break the exit-code contract, as (field, change,
    validate code, run code, run report). A config that validate rejects is
    rejected by run with the same errors; one that passes validate fails run
    only as a numerical failure named after the failing operation, and not at
    all when the mutant changed a noise covariance. A value validate let
    through that makes main raise is a breach, and so is a successful run that
    writes inf or nan."""
    kind = doc["experiment"]["kind"]
    covariance_keys = COVARIANCE_KEYS | GRID_COVARIANCE_KEYS.get(kind, set())
    bad = []
    for i, (where, key, value) in enumerate(mutants):
        mutant = copy.deepcopy(doc)
        obj = mutant
        for k in where:
            obj = obj[k]
        if value is DROP:
            del obj[key]
        else:
            obj[key] = value
        (tmp_path / str(i)).mkdir()
        cfg = write_config(tmp_path / str(i) / "cfg.json", mutant)
        code_v, report_v = outcome(capsys, "validate", cfg)
        code_r, report_r = outcome(capsys, "run", cfg)
        if code_v == 1:
            ok = code_r == 1 and report_r["errors"] == report_v["errors"]
        else:
            ok = code_v == 0 and (code_r == 0 or (
                code_r == 2 and report_r["operation"] != kind
                and not covariance_keys & {*where, key}))
            if ok and code_r == 0:
                ok = not non_finite_outputs(report_r["output_dir"])
        if not ok:
            change = "dropped" if value is DROP else json.dumps(value)
            bad.append((".".join(map(str, where + (key,))), change, code_v, code_r, report_r))
    return bad


def shrunk_shipped_doc(name):
    doc = shipped_doc(name)
    exp = doc["experiment"]
    exp.update({k: v for k, v in SHRINK.items() if k in exp})
    return doc


SHIPPED = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("name", SHIPPED)
def test_shape_mutations_of_shipped_configs_fail_validate_or_run_cleanly(tmp_path, capsys,
                                                                         name):
    doc = shrunk_shipped_doc(name)
    assert contract_breaches(tmp_path, capsys, doc, mutations(doc)) == []


@pytest.mark.parametrize("name", SHIPPED)
def test_numeric_mutations_of_shipped_configs_fail_validate_or_run_cleanly(tmp_path, capsys,
                                                                           name):
    # zeroed, negated and extreme values: validate rejects what would overflow
    doc = shrunk_shipped_doc(name)
    assert contract_breaches(tmp_path, capsys, doc, numeric_mutations(doc)) == []


# What the structural fuzzer puts in place of a node: every JSON type, the
# ends of the int64 and float ranges, the time string "inf" and nested lists.
FUZZ_VALUES = [None, True, -1, 0, 2**64, 1e308, -1e308, "x", "inf", [], {}, [[1.0]],
               [[1.0], [2.0, 3.0]]]


def nodes(obj, where=()):
    """(container path, key or index) of every node under obj."""
    for key, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield where, key
        if isinstance(v, (dict, list)):
            yield from nodes(v, where + (key,))


def container(doc, where):
    for k in where:
        doc = doc[k]
    return doc


def cli_report(cmd, cfg):
    """(exit code, report): main's stdout must be exactly one JSON document."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([cmd, cfg])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("name", SHIPPED)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_structural_fuzz_of_shipped_configs_keeps_the_exit_code_contract(name, data):
    # one to three edits: replace a node, delete a key or add an unknown one.
    # The 600 fixed examples add about 4 s to tier-1 on 2 cores.
    doc = shrunk_shipped_doc(name)
    values = st.sampled_from(FUZZ_VALUES).map(copy.deepcopy)
    for _ in range(data.draw(st.sampled_from([1, 1, 2, 3]), label="edits")):
        located = list(nodes(doc))
        keyed = [(w, k) for w, k in located if isinstance(container(doc, w), dict)]
        edit = data.draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if edit == "add":
            objs = [()] + [w + (k,) for w, k in located if isinstance(container(doc, w)[k], dict)]
            where = data.draw(st.sampled_from(objs), label="object")
            container(doc, where)["fuzz_key"] = data.draw(values)
        elif edit == "delete":
            where, key = data.draw(st.sampled_from(keyed), label="deleted")
            del container(doc, where)[key]
        else:
            where, key = data.draw(st.sampled_from(located), label="replaced")
            container(doc, where)[key] = data.draw(values)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp) / "cfg.json", doc)
        code, _ = cli_report("validate", cfg)
        assert code in (0, 1)
        if code == 0:
            assert cli_report("run", cfg)[0] in (0, 2)


# Cells of the CSV fuzzer's dataset files, as bytes: numbers, nan and inf,
# huge integers (at and beyond the int64 ends, and past int()'s 4300 digits),
# NUL, a byte that is not UTF-8, quotes, and fields over the csv module's
# limit of 131072 characters.
CSV_CELLS = [b"1" * 200_000, b"\xff", b"\x00", b"9223372036854775808", b"nan", b"inf",
             b"-9223372036854775809", b"1" + b"0" * 20, b"9" * 5000, b"-inf", b"1e400", b"",
             b"1\x00", b"\xc3", b'"1\n2"', b'"0"', b'a"b', b"x", b"0", b"1", b"2", b"-1",
             b"0.5", b"-2.5e3", b"1e-320", b"007", b" 1", b"1_0"]
# Cells inside the int64 range: its ends and 2**62. A huge label sets a class
# count whose training stack passes the element cap, which validate refuses.
CSV_INT64_CELLS = CSV_CELLS + [b"9223372036854775807", b"-9223372036854775808",
                               b"4611686018427387904"]
CSV_HEADERS = [b"f0,f1,label", b"f0,label", b"label", b"f0,f1", b"f1,f0,label", b"F0,f1,label",
               b"f0, f1,label", b"", b"f0,f1,label,f3", b'"f0",f1,label', b"\xef\xbb\xbff0,label",
               b"f0,f1,label\x00"]


@st.composite
def dataset_files(draw):
    """A dataset CSV file: a header, well-formed or not, then up to five
    well-formed rows as wide as the header, with up to two faults: a cell
    replaced by a fuzz cell, a ragged row or a blank line. Lines end in \\n
    or \\r\\n."""
    good_header = st.sampled_from([b"f0,f1,label", b"f0,label", b"f0,f1,f2,label"])
    header = draw(st.one_of(good_header, good_header, st.sampled_from(CSV_HEADERS)))
    width = header.count(b",") + 1
    good = st.sampled_from([b"0.25", b"-1.5", b"3", b"1e-3"])
    rows = [[*(draw(good) for _ in range(width - 1)), draw(st.sampled_from([b"0", b"1", b"2"]))]
            for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        at = draw(st.integers(0, len(rows) - 1))
        row = rows[at]
        fault = draw(st.sampled_from(["cell", "cell", "ragged", "blank"]))
        if fault == "blank":
            rows.insert(at, [])
        elif fault == "ragged":
            row[:] = row[:-1] if draw(st.booleans()) else row + row[-1:]
        elif row:
            col = draw(st.integers(0, len(row) - 1))
            row[col] = draw(st.sampled_from(CSV_INT64_CELLS))
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    return end.join([header, *(b",".join(row) for row in rows)]) + draw(st.sampled_from([end, b""]))


@pytest.mark.parametrize("name", ["dp-audit", "membership"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_csv_dataset_fuzz_keeps_the_exit_code_contract(name, data):
    # the shrunk shipped config on a generated dataset file, with a batch of
    # one to three rows and each adjacency or target. The 200 fixed examples
    # add about 1.4 s to tier-1 on 2 cores, and the two fuzzers about 5 s.
    doc = shrunk_shipped_doc(name)
    exp = doc["experiment"]
    exp.update(dataset={"csv": "data.csv"}, batch=data.draw(st.integers(1, 3), label="batch"))
    if name == "dp-audit":
        exp["adjacency"] = data.draw(st.sampled_from(["replace", "remove", "null"]))
    else:
        exp.update(target_index=data.draw(st.integers(0, 2), label="target"),
                   null_control=data.draw(st.booleans(), label="null_control"))
    text = data.draw(dataset_files(), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "data.csv").write_bytes(text)
        cfg = write_config(Path(tmp) / "cfg.json", doc)
        code, _ = cli_report("validate", cfg)
        assert code in (0, 1)
        if code == 0:
            assert cli_report("run", cfg)[0] in (0, 2)


# The library constructors that cli imports.
CONSTRUCTORS = ["SpdMatrix", "ConstantSpd", "QuadraticProblem", "QuadraticDrift", "SimConfig",
                "GradientGap", "NoiseGrid", "AuditConfig", "MembershipConfig", "Training",
                "ConcentrationParams", "RegularityParams", "synth_blobs", "read_dataset_csv"]
# The input classes that check themselves in __post_init__, which runs however
# they are built: by name from any module, or by dataclasses.replace.
CHECKED_INPUTS = ["QuadraticProblem", "QuadraticDrift", "SimConfig", "GradientGap", "NoiseGrid",
                  "AuditConfig", "MembershipConfig", "Training", "ConcentrationParams",
                  "RegularityParams"]


@pytest.mark.parametrize("name", SHIPPED)
def test_run_builds_no_library_object(tmp_path, capsys, monkeypatch, name):
    # the parse builds every object the run uses, so no rule is checked twice
    # and a config that passes validate cannot fail run on its inputs. SpdMatrix
    # is refused at its cli name only, since exact_state builds the law's
    # covariance as a result; ConstantSpd has no __post_init__, so only its cli
    # name can catch it.
    cfg = anisopriv.cli._load(write_config(tmp_path / "cfg.json", shrunk_shipped_doc(name)))
    assert cfg is not None, capsys.readouterr().out

    def refuse(what):
        def built(*args, **kw):
            raise AssertionError(f"run built {what}")
        return built

    for ctor in CONSTRUCTORS:
        monkeypatch.setattr(anisopriv.cli, ctor, refuse(ctor))
    for cls in CHECKED_INPUTS:
        monkeypatch.setattr(getattr(anisopriv, cls), "__post_init__", refuse(cls))
    os.makedirs(cfg.output_dir)
    cfg.run(cfg.output_dir)
    assert os.listdir(cfg.output_dir)


# Imports the package and runs each config, then fails if scipy was loaded.
NO_SCIPY_SCRIPT = """
import sys
from anisopriv.cli import main
for cfg in sys.argv[1:]:
    assert main(["run", cfg]) == 0, cfg
assert "scipy" not in sys.modules, "scipy was imported"
"""


def test_runtime_does_not_import_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy is a test oracle. A fresh
    # interpreter runs the configs whose analytic paths use Cholesky solves:
    # whitening and the Gaussian KL.
    cfgs = []
    for name, over in [
        ("kl-bound", {"paths": 4, "horizon": 0.2}),
        ("quad-tradeoff", {"resolution": 2}),
        ("ou-exact", {}),
        ("closed-bounds", {}),
    ]:
        doc = shipped_doc(name, **over)
        doc["output_dir"] = f"out/{name}"
        cfgs.append(write_config(tmp_path / f"{name}.json", doc))
    src = str(Path(anisopriv.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, *cfgs], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "kl-bound" / "exact_kl.csv").exists()


def test_writers_round_trip_floats_and_refuse_non_finite(tmp_path, capsys, monkeypatch):
    values = [0.1 + 0.2, 1e-300, -0.0, 5e-324, np.float64(1.7976931348623157e308)]
    path = tmp_path / "a.csv"
    _write_csv(path, ["i", "name", "x"],
               [np.arange(len(values)), [f"r{i}" for i in range(len(values))], values])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "name", "x"]
    for i, (row, v) in enumerate(zip(rows[1:], values, strict=True)):
        assert row[:2] == [str(i), f"r{i}"]
        assert struct.pack("<d", float(row[2])) == struct.pack("<d", v)  # bit for bit

    for write, name, bad in ((_write_csv, "b.csv", [["x"], [[1.0, math.inf]]]),
                             (_write_json, "c.json", [{"x": [1.0, {"y": math.nan}]}])):
        with pytest.raises(AnisoError) as exc:
            write(tmp_path / name, *bad)
        assert exc.value.operation == "write"
        assert name in str(exc.value)
        assert not (tmp_path / name).exists()
    # the rows stream into a temporary file, which a refusal removes, leaving
    # an earlier file at the path as it was
    before = path.read_bytes()
    with pytest.raises(AnisoError):
        _write_csv(path, ["x"], [np.where(np.arange(1000) == 500, math.nan, np.arange(1000.0))])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    # in a run, a value that is not finite is exit 2, without the file or a manifest
    monkeypatch.setattr(anisopriv.cli, "membership_advantage", lambda kl: math.nan)
    cfg = write_config(tmp_path / "cfg.json", shipped_doc("privacy-translate"))
    code, report = run_cli(capsys, "run", cfg)
    assert code == 2 and report["operation"] == "write"
    assert list((tmp_path / "out").iterdir()) == []


def reference_csv(path, header, columns):
    """The CSV writer as it was before it took columns: csv.writer over rows
    of Python cells, floats formatted at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([v if isinstance(v, (int, str)) else f"{v:.17g}" for v in row]
                     for row in zip(*(np.asarray(c).ravel().tolist() for c in columns)))


EXTREME_FLOATS = [-0.0, 5e-324, -2.5e-323, 2.2250738585072009e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 2.0**53 + 2, 1e16, 1e-5, 123456789.0]
CELLS = {"int": (st.integers(-2**63, 2**63 - 1), np.int64),
         "str": (st.sampled_from(["D", "Dprime", "r0", "x0"]), str),
         "float": (st.floats(allow_nan=False, allow_infinity=False)
                   | st.sampled_from(EXTREME_FLOATS), float)}


@st.composite
def csv_columns(draw):
    """One to four columns of ints, strings or floats, all 1-D of one length,
    or all (n, m) views: full, broadcast along either axis, or transposed."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    two_d = draw(st.booleans())
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        cells, dtype = CELLS[draw(st.sampled_from(sorted(CELLS)))]
        layout = draw(st.sampled_from(["full", "rows", "cols", "transposed"])) if two_d else "1d"
        shape = {"1d": (n,), "full": (n, m), "rows": (1, m), "cols": (n, 1),
                 "transposed": (m, n)}[layout]
        size = math.prod(shape)
        base = np.array(draw(st.lists(cells, min_size=size, max_size=size)),
                        dtype=dtype).reshape(shape)
        full = (n,) if layout == "1d" else (n, m)
        columns.append(base.T if layout == "transposed" else np.broadcast_to(base, full))
    return columns


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(columns=csv_columns())
def test_write_csv_matches_the_row_writer_it_replaced(columns):
    # the 200 fixed examples add about 1 s to tier-1 on 2 cores
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        _write_csv(got, header, columns)
        reference_csv(want, header, columns)
        assert got.read_bytes() == want.read_bytes()


def test_only_cli_and_models_import_csv_or_json():
    # the output format is decided in cli alone; models reads dataset CSVs
    package = Path(anisopriv.__file__).resolve().parent
    importers = set()
    for module in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in ("csv", "json") for name in names):
                importers.add(module.name)
    assert importers <= {"cli.py", "models.py"}
    assert "cli.py" in importers
