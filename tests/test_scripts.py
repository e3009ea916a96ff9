"""The experiment scripts under scripts/ run end to end on a short grid."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, extra, header", [
    ("bell_entropy_sweep", (),
     "tau,entropy_s=0.0,entropy_s=0.25,entropy_s=0.5,entropy_s=0.75,entropy_s=1.0"),
    ("collective_vs_sector", ("--z", "2"), "tau,exact_z2,collective_z2,gap_z2"),
    ("ghz_decay_profile", (), "tau,c1,c2,c3,c4,c5,entropy"),
    ("collective_vs_sector", ("--z", "60"), "tau,exact_z60,collective_z60,gap_z60"),
])
def test_script_writes_its_csv(tmp_path, name, extra, header):
    out = tmp_path / f"{name}.csv"
    assert load(name).main(["--steps", "3", "--out", str(out), *extra]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 4
