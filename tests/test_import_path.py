"""Import side effects: the registry loads on first use, and only the
console entry point touches the environment."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def run_python(*args, threads=None):
    """Run python on src/ with OPENBLAS_NUM_THREADS unset, or set to threads."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPIN5_EPS", "OPENBLAS_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
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


# Records OPENBLAS_NUM_THREADS at the moment numpy is first imported, runs
# the console entry on one analyze-spinor request, then reports both.
ENTRY_PROBE = """
import io, os, sys

seen = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Watch())
import spin5_entry
assert "numpy" not in sys.modules, "importing the entry module loaded numpy"
sys.argv = ["spin5", "analyze-spinor", "--json"]
sys.stdin = io.StringIO('{"spinor": [[1, 0], [0, 0], [0, 0], [0, 0]]}')
code = spin5_entry.main()
print("THREADS", seen, os.environ.get("OPENBLAS_NUM_THREADS"), code)
"""


@pytest.mark.parametrize("threads, expected", [(None, "1"), ("2", "2")])
def test_entry_sets_blas_threads_only_when_unset(threads, expected):
    proc = run_python("-c", ENTRY_PROBE, threads=threads)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert last == f"THREADS [{expected!r}] {expected} 0"


def test_import_spin5_leaves_the_environment_alone():
    probe = ("import os\n"
             "before = dict(os.environ)\n"
             "import spin5, spin5.cli, spin5.verify\n"
             "assert dict(os.environ) == before\n"
             "assert 'OPENBLAS_NUM_THREADS' not in os.environ\n")
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr


def test_console_script_names_the_entry_module():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"spin5": "spin5_entry:main"}
