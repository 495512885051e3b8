"""The demos run end to end and write the files they promise."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WRITES = {"bouncer_momentum_distribution.py": "bouncer_momentum.csv",
          "kink_tail_scaling.py": "kink_tails.csv"}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    written = {p.name for p in tmp_path.iterdir()}
    assert written == ({WRITES[demo.name]} if demo.name in WRITES else set())
    if demo.name in WRITES:
        assert len((tmp_path / WRITES[demo.name]).read_text().splitlines()) > 1
