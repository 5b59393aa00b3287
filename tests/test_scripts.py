"""The scripts under scripts/ that call the library run against its current API."""

import csv
import importlib.util
import pathlib

import numpy as np

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def test_bound_curves_script_writes_a_dominating_bound(tmp_path, capsys):
    out = tmp_path / "bounds"
    script = load_script("bound_curves")
    assert script.run(["--horizon", "0.5", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    head_b, bound = read_columns(out / "bound_curve.csv")
    head_k, kl = read_columns(out / "exact_kl.csv")
    assert head_b == ["time", "bound"] and head_k == ["time", "kl"]
    assert np.array_equal(bound[:, 0], kl[:, 0])
    assert bound[0, 1] == 0.0 and bound[-1, 0] == 0.5
    # equal diffusions and designs: the mismatch is the constant target gap 0.1
    assert np.allclose(bound[:, 1], 0.005 * bound[:, 0], rtol=1e-12)
    assert np.all(bound[:, 1] >= kl[:, 1])


def test_audit_sweep_script_null_control_is_exactly_zero(capsys):
    # at epsilon 1e-300 any rounding difference between the twins of the
    # control would count; the replace arm shows the threshold does count
    script = load_script("audit_sweep")
    argv = ["--rounds", "2", "--iters", "20", "--per-class", "10", "--sigma2", "1e-2",
            "--epsilon", "1e-300"]
    assert script.run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("control (identical pair): delta=0.0 [")
    sigma2, delta = lines[2].split()[:2]
    assert float(sigma2) == 1e-2 and float(delta) > 0.0
