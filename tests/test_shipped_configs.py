"""Every shipped example config validates, runs, and reruns byte-identically."""

import pathlib
import shutil

from anisopriv.cli import main

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "configs"


def outputs(out_dir):
    """Output bytes by relative path; manifest.json carries timings, so it is left out."""
    return {
        str(f.relative_to(out_dir)): f.read_bytes()
        for f in sorted(out_dir.rglob("*"))
        if f.is_file() and f.name != "manifest.json"
    }


def test_shipped_configs_run_and_rerun_identically(tmp_path, capsys):
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert configs
    # the configs write to ../out/<kind>, which must resolve inside tmp_path
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    for cfg in configs:
        shutil.copy(cfg, cfg_dir / cfg.name)

    def run_all():
        for cfg in sorted(cfg_dir.glob("*.json")):
            assert main(["validate", str(cfg)]) == 0, cfg.name
            assert main(["run", str(cfg)]) == 0, cfg.name
        capsys.readouterr()
        return outputs(tmp_path / "out")

    first = run_all()
    assert {name.split("/")[0] for name in first} == {cfg.stem for cfg in configs}
    second = run_all()
    assert second.keys() == first.keys()
    changed = [name for name in first if first[name] != second[name]]
    assert changed == []
