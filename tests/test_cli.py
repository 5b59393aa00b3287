"""Config-driven CLI: validation paths, run outputs, reproducibility."""

import ast
import copy
import csv
import functools
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anisopriv
import anisopriv.sde
from anisopriv import __version__
from anisopriv.cli import _write_csv, _write_json, main
from anisopriv.errors import AnisoError, TrainingDivergedWarning

# main runs under np.errstate, so no CLI run in this file may emit a numpy warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


def test_validate_unknown_top_level_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", closed_bounds_doc(bogus=1))
    code, doc = run_cli(capsys, "validate", cfg)
    assert code == 1
    assert "$.bogus" in error_paths(doc)


def test_validate_unknown_experiment_key(tmp_path, capsys):
    base = closed_bounds_doc()
    base["experiment"]["bogus_key"] = 1
    cfg = write_config(tmp_path / "cfg.json", base)
    code, doc = run_cli(capsys, "validate", cfg)
    assert code == 1
    assert "experiment.bogus_key" in error_paths(doc)


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
    cfg = write_config(tmp_path / "cfg.json", closed_bounds_doc(seed=seed))
    code, doc = run_cli(capsys, "validate", cfg)
    assert code == 1
    assert "$.seed" in error_paths(doc)


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


def test_thread_env_lands_in_manifest(tmp_path, capsys, monkeypatch):
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
    assert set(manifest["timestamp"]) == {"utc", "wall_clock_seconds"}


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


def test_run_overflow_is_numerical_failure(tmp_path, capsys):
    # x = 1e300 passes validate, but the grid's noise variance x^2 overflows
    cfg = write_config(tmp_path / "cfg.json", quad_tradeoff_doc(x_range=[0.5, 1e300]))
    assert run_cli(capsys, "validate", cfg)[0] == 0
    code, doc = run_cli(capsys, "run", cfg)
    assert code == 2
    assert doc["operation"] == "SpdMatrix"


def test_run_exits_2_only_for_library_errors(tmp_path, capsys, monkeypatch):
    # an AnisoError is a numerical failure, also when raised on the helper thread
    # that draws the normals; any other exception is a bug and propagates
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


@pytest.mark.parametrize("text", [
    DATA_CSV.replace("f0,f1,label", "x,y,label"),
    DATA_CSV.replace(",1\n", ",1.5\n", 1),
    DATA_CSV + "0.5,1\n",
    "f0,f1,label\n",
], ids=["bad-header", "non-integer-label", "ragged-row", "header-only"])
def test_bad_csv_dataset_rejected_by_validate(tmp_path, capsys, text):
    (tmp_path / "data.csv").write_text(text)
    cfg = write_config(tmp_path / "cfg.json", csv_audit_doc())
    for cmd in ("validate", "run"):
        code, doc = run_cli(capsys, cmd, cfg)
        assert code == 1
        assert error_paths(doc) == ["experiment.dataset.csv"]
    assert not (tmp_path / "out").exists()


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
    """(where, key, value) for every numeric leaf of obj other than seeds and the
    schema version, set in turn to zero times itself, its negation, +-1e300,
    1e154 and 1e-154."""
    for key, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
        if isinstance(v, (dict, list)):
            yield from numeric_mutations(v, where + (key,))
        elif (isinstance(v, (int, float)) and not isinstance(v, bool)
              and key not in ("seed", "schema_version")):
            for value in (v * 0, -v, 1e300, -1e300, 1e154, 1e-154):
                yield where, key, value


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
COVARIANCE_KEYS = {"sigma", "sigma_diag", "sigma_prime", "v0_diag"}


def contract_breaches(tmp_path, capsys, doc, mutants):
    """The mutants of doc that break the exit-code contract, as (field, change,
    validate code, run code, run report). A config that validate rejects is
    rejected by run with the same errors; one that passes validate fails run
    only as a numerical failure named after the failing operation, and not at
    all when the mutant changed a noise covariance. A value validate let
    through that makes main raise is a breach, and so is a successful run that
    writes inf or nan."""
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
                code_r == 2 and report_r["operation"] != doc["experiment"]["kind"]
                and not COVARIANCE_KEYS & {*where, key}))
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


# The library constructors that cli imports.
CONSTRUCTORS = ["SpdMatrix", "ConstantSpd", "QuadraticProblem", "QuadraticDrift", "SimConfig",
                "GradientGap", "AuditConfig", "ConcentrationParams", "RegularityParams",
                "synth_blobs", "read_dataset_csv"]


@pytest.mark.parametrize("name", SHIPPED)
def test_run_builds_no_library_object(tmp_path, capsys, monkeypatch, name):
    # the parse builds every object the run uses, so no rule is checked twice
    # and a config that passes validate cannot fail run on its inputs
    cfg = anisopriv.cli._load(write_config(tmp_path / "cfg.json", shrunk_shipped_doc(name)))
    assert cfg is not None, capsys.readouterr().out

    def constructor(*args, **kw):
        raise AssertionError("run built a library object")

    for ctor in CONSTRUCTORS:
        monkeypatch.setattr(anisopriv.cli, ctor, constructor)
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
    # whitening, the Gaussian score (unequal diffusions) and the Gaussian KL.
    cfgs = []
    for name, over in [
        ("kl-bound", {"paths": 4, "horizon": 0.2, "sigma_prime": [[0.8]]}),
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
    _write_csv(path, ["i", "name", "x"], [[i, f"r{i}", v] for i, v in enumerate(values)])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "name", "x"]
    for i, (row, v) in enumerate(zip(rows[1:], values, strict=True)):
        assert row[:2] == [str(i), f"r{i}"]
        assert struct.pack("<d", float(row[2])) == struct.pack("<d", v)  # bit for bit

    for write, name, bad in ((_write_csv, "b.csv", [["x"], [[1.0], [math.inf]]]),
                             (_write_json, "c.json", [{"x": [1.0, {"y": math.nan}]}])):
        with pytest.raises(AnisoError) as exc:
            write(tmp_path / name, *bad)
        assert exc.value.operation == "write"
        assert name in str(exc.value)
        assert not (tmp_path / name).exists()

    # in a run, a value that is not finite is exit 2, without the file or a manifest
    monkeypatch.setattr(anisopriv.cli, "membership_advantage", lambda kl: math.nan)
    cfg = write_config(tmp_path / "cfg.json", shipped_doc("privacy-translate"))
    code, report = run_cli(capsys, "run", cfg)
    assert code == 2 and report["operation"] == "write"
    assert list((tmp_path / "out").iterdir()) == []


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
