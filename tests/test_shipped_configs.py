"""Every shipped example config validates, runs, reruns byte-identically, and
reproduces the checked-in output digests.

The digest table, tests/golden_digests.json, holds the SHA-256 of every
output but manifest.json. Floating-point results may differ in the last
bits under another numpy or BLAS build, so the table records the versions it
was made with. To re-bless it after a deliberate change of outputs:

    PYTHONPATH=src python tests/test_shipped_configs.py
"""

import hashlib
import json
import pathlib
import shutil
import tempfile

import numpy as np
import pytest

from anisopriv.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "scripts" / "configs"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_digests.json"


def outputs(out_dir):
    """Output bytes by relative path; manifest.json carries timings, so it is left out."""
    return {
        str(f.relative_to(out_dir).as_posix()): f.read_bytes()
        for f in sorted(out_dir.rglob("*"))
        if f.is_file() and f.name != "manifest.json"
    }


def copy_configs(dest):
    """Copy the configs to dest/configs; they write to ../out/<kind>, inside dest."""
    cfg_dir = dest / "configs"
    cfg_dir.mkdir()
    for cfg in sorted(CONFIG_DIR.glob("*.json")):
        shutil.copy(cfg, cfg_dir / cfg.name)
    return cfg_dir


def run_all(cfg_dir):
    for cfg in sorted(cfg_dir.glob("*.json")):
        assert main(["validate", str(cfg)]) == 0, cfg.name
        assert main(["run", str(cfg)]) == 0, cfg.name
    return outputs(cfg_dir.parent / "out")


def versions():
    """numpy and BLAS versions, the build facts the digests depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {"numpy": np.__version__, "blas": blas_version}


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    cfg_dir = copy_configs(tmp_path_factory.mktemp("shipped"))
    return cfg_dir, run_all(cfg_dir)


def test_shipped_configs_run_and_rerun_identically(first_run):
    cfg_dir, first = first_run
    kinds = {cfg.stem for cfg in CONFIG_DIR.glob("*.json")}
    assert {name.split("/")[0] for name in first} == kinds
    second = run_all(cfg_dir)
    assert second.keys() == first.keys()
    changed = [name for name in first if first[name] != second[name]]
    assert changed == []


def test_shipped_outputs_match_golden_digests(first_run):
    _, got = first_run
    table = json.loads(GOLDEN.read_text())
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in got.items()}
    assert digests.keys() == table["digests"].keys()
    changed = sorted(name for name in digests if digests[name] != table["digests"][name])
    assert changed == [], (
        f"{changed} differ from the table blessed with numpy {table['numpy']} and "
        f"BLAS {table['blas']}; this run has numpy {versions()['numpy']} and "
        f"BLAS {versions()['blas']}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = run_all(copy_configs(pathlib.Path(tmp)))
    table = {**versions(),
             "digests": {name: hashlib.sha256(data).hexdigest() for name, data in got.items()}}
    GOLDEN.write_text(json.dumps(table, indent=2) + "\n")
    print(f"wrote {len(got)} digests to {GOLDEN}")
