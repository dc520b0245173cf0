"""Smoke tests: each figure script in scripts/ runs end to end on tiny inputs."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# script name -> (arguments, one file it writes); {tmp} is the output directory
CASES = {
    "cfl_maps": (
        ["--gy", "1.0", "--gx", "1.0", "--theta", "0", "--outdir", "{tmp}"],
        "cfl_huynh_p4_gy10.csv",
    ),
    "iota_cfl": (["--p", "2", "--points", "2", "--angles", "0", "-o", "{tmp}/iota.csv"], "iota.csv"),
    "jitter_quality": (["--dims", "2", "--jitters", "0:0.1:0.1", "-o", "{tmp}/q.csv"], "q.csv"),
    # one value, not a range
    "jitter_quality:single": (["--dims", "2", "--jitters", "0.3", "-o", "{tmp}/q.csv"], "q.csv"),
    "polar_dispersion": (
        ["--orders", "2", "--theta", "0", "--outdir", "{tmp}"],
        "polar_huynh_p2_uniform.csv",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_runs(name, tmp_path, capsys):
    argv, written = CASES[name]
    script = name.split(":")[0]
    spec = importlib.util.spec_from_file_location(script, SCRIPTS / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.run([a.format(tmp=tmp_path) for a in argv]) == 0
    assert (tmp_path / written).read_text().count("\n") >= 2  # header and a row
