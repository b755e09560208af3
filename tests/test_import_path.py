"""`import spin5` leaves the registry module unloaded until it is used."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import spin5
import spin5.cli
assert "spin5.verify" not in sys.modules, "import spin5 loaded the registry"
from spin5 import run_checks
assert run_checks is sys.modules["spin5.verify"].run_checks
missing = [name for name in spin5.__all__ if not hasattr(spin5, name)]
assert missing == [], missing
"""


def run_python(*args):
    env = {k: v for k, v in os.environ.items() if k != "SPIN5_EPS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


def test_registry_loads_on_first_use():
    proc = run_python("-c", PROBE)
    assert proc.returncode == 0, proc.stderr


def test_verify_all_runs_from_a_cold_process():
    proc = run_python("-m", "spin5.cli", "verify-all", "--samples", "1")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
