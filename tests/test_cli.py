"""Config-driven CLI: validation paths, run outputs, reproducibility."""

import json

import pytest

from anisopriv import __version__
from anisopriv.cli import main


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


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_invalid_thread_env(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv("ANISO_THREADS", raw)
    cfg = write_config(tmp_path / "cfg.json", closed_bounds_doc())
    code, doc = run_cli(capsys, "validate", cfg)
    assert code == 1
    assert "env.ANISO_THREADS" in error_paths(doc)


def test_thread_env_lands_in_manifest(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ANISO_THREADS", "2")
    cfg = write_config(tmp_path / "cfg.json", closed_bounds_doc())
    code, _ = run_cli(capsys, "run", cfg)
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["threads"] == 2


def test_run_closed_bounds(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ANISO_THREADS", raising=False)
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
    assert manifest["threads"] is None
    assert set(manifest["timestamp"]) == {"utc", "wall_clock_seconds"}


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


def test_run_non_spd_sigma_is_numerical_failure(tmp_path, capsys):
    doc = {
        "experiment": {
            "kind": "ou-exact",
            "design": [[1.0, 0.0], [0.0, 1.0]], "target": [0.0, 0.0],
            "sigma": [[1.0, 2.0], [2.0, 1.0]], "x0": [0.0, 0.0], "time": 1.0,
        }
    }
    cfg = write_config(tmp_path / "cfg.json", doc)
    code, out = run_cli(capsys, "run", cfg)
    assert code == 2
    assert out["ok"] is False
    assert out["operation"] == "cholesky"


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


def quad_tradeoff_doc(**over):
    exp = {
        "kind": "quad-tradeoff",
        "design": [[1.0, 0.4], [0.0, 2.0]], "target": [0.0, 0.0],
        "target_prime": [0.1, 0.2], "x0": [0.0, 0.0], "time": 1.0,
        "x_range": [0.5, 1.0], "y_range": [0.5, 1.0], "resolution": 2,
    }
    exp.update(over)
    return {"seed": 1, "output_dir": "out", "experiment": exp}


def test_quad_tradeoff_base_config_runs(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", quad_tradeoff_doc())
    assert run_cli(capsys, "validate", cfg)[0] == 0
    assert run_cli(capsys, "run", cfg)[0] == 0
    assert len((tmp_path / "out" / "tradeoff.csv").read_text().splitlines()) == 1 + 4


@pytest.mark.parametrize("over, path", [
    # a zero-time covariance is singular, so the exact KL has no Cholesky factor
    ({"time": 0}, "experiment.time"),
    ({"target": [0.0, 0.0, 0.0]}, "experiment.target"),
    ({"target_prime": [0.1, 0.2, 0.3]}, "experiment.target_prime"),
    ({"design_prime": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}, "experiment.target_prime"),
    ({"design_prime": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]}, "experiment.design_prime"),
], ids=["zero-time", "target-vs-design", "target-prime-vs-design", "target-prime-vs-design-prime",
        "design-prime-columns"])
def test_quad_tradeoff_shape_errors_rejected_by_validate(tmp_path, capsys, over, path):
    cfg = write_config(tmp_path / "cfg.json", quad_tradeoff_doc(**over))
    for cmd in ("validate", "run"):
        code, doc = run_cli(capsys, cmd, cfg)
        assert code == 1
        assert path in error_paths(doc)
    assert not (tmp_path / "out").exists()
