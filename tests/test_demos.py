"""Each script under demos/ runs to the end and prints its verdicts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# one line each script must print
DEMOS = {
    "certificates.py": "Groebner membership over GF(7): pass",
    "construct_and_verify.py": "  property=mds3 verdict=pass tuples=1190",
    "list_decoding.py": "  property=mds3 verdict=fail tuples=69 witness=0,1;2,3;4,5",
    "tensor_recovery.py": "  property=mr-tensor(m=3,n=5,a=1,b=2) verdict=pass tuples=32768",
}


@pytest.mark.parametrize("script", sorted(p.name for p in ROOT.glob("demos/*.py")))
def test_demo_runs_and_prints_its_verdict(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert DEMOS[script] in proc.stdout.splitlines()
