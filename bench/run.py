"""Benchmark entry point for spin5.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; spin5 is imported from its src/.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones.  See bench/README.md.

The timed figures are host-normalised; see worker.py and README.md.

This process only orchestrates and needs the standard library alone.
The work happens in bench/worker.py processes, one client at a time:
SETUP_PROBES fresh workers that stop once set up, then the worker that
runs the timed phase.  Each worker's time from start to READY, scaled by
the host speed it measured right after, is one set-up sample, and
setup_s is their median.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"

#: Workload -> the latency percentile reported as latency_tail_ms: the
#: highest one with at least ten samples beyond it at the run length in
#: BENCHMARK.json.  verify_all has three or four ops a run; with fewer
#: than forty samples no percentile is a tail, so it reports the median.
TAIL_PERCENTILE = {
    "plane_survey": 98.0,
    "torsion_field": 99.0,
    "cli_oneshot": 75.0,
    "verify_all": 50.0,
}
SETUP_PROBES = 4
FLOOR_PAIRS = 5
#: Limit for any one child process, well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "peak_rss_mib": "MiB",
                    "setup_s": "s"}
VERIFY_IDS = (
    "01-clifford-relations", "02-clifford-volume",
    "03-clifford-vector-action", "04-clifford-form-action",
    "05-clifford-contraction", "06-clifford-action-table", "07-frames-reeb",
    "08-frames-splitting", "09-frames-eigenvalues",
    "10-frames-eigenspace-labels", "11-su2-spinor-orbit",
    "12-su2-annihilator", "13-su2-equivalence", "14-su2-separation",
    "15-su2-basis-construction", "16-su2-admissibility-tests",
    "17-su2-splitting", "18-su2-brackets", "19-su2-action-targets",
    "20-quaternionic-conjugation", "21-quaternionic-global-triple",
    "22-quaternionic-adapted-triple", "23-quaternionic-complex-structure",
    "24-quaternionic-hopf-formula", "25-quaternionic-hopf-fiber",
    "26-quaternionic-anticommutation", "27-quaternionic-nonexistence",
    "28-quaternionic-distribution-triple", "29-quaternionic-quadruplet",
    "30-spin-equivariance", "31-spin-act-admissible", "32-spin-stabilizer",
    "33-spin-conjugacy", "34-spin-conjugation-direction",
    "35-spin-quaternion-commute", "36-torsion-roundtrip",
    "37-torsion-dimension-audit", "38-torsion-invariance",
    "39-torsion-beta-law", "40-torsion-omega-split", "41-torsion-intrinsic",
    "42-io-roundtrip", "43-io-determinism",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for span in tracer.SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_us"] = "us"
    units["cli.numpy_floor_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    for check_id in VERIFY_IDS:
        units[f"verify.{check_id}.ms"] = "ms"
    return units


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with q% at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie beyond the nearest-rank q percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def child_env(root: Path) -> dict:
    """Environment of every process the benchmark starts.

    BLAS is held to one thread: the program's matrices are at most 80x16,
    where a second OpenBLAS thread only spins, doubling CPU time on a
    2-core host without making the work faster.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH_DIR)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Child:
    """A child process with a hard time limit; always waited for."""

    def __init__(self, cmd: list[str], env: dict, cwd: Path):
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                                     cwd=cwd, text=True)
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.timer.start()

    def finish(self) -> tuple[int, str]:
        try:
            out = self.proc.stdout.read()
            return self.proc.wait(), out
        finally:
            self.timer.cancel()
            self.proc.stdout.close()


def start_worker(root: Path, env: dict, args,
                 probe: bool) -> tuple[float, float, str]:
    """Start a worker.

    Returns the seconds until it printed READY, the host-speed scale it
    printed next, and the rest of its stdout.
    """
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--probe"] if probe else [])
    t0 = time.perf_counter()
    child = Child(cmd, env, root)
    first = child.proc.stdout.readline()
    ready = time.perf_counter() - t0
    code, rest = child.finish()
    scale, _, rest = rest.partition("\n")
    if first.strip() != "READY" or not scale.startswith("SCALE ") or code:
        raise RuntimeError(f"worker for {args.workload} exited {code} "
                           f"before finishing")
    return ready, float(scale.split()[1]), rest


def cold_ms(root: Path, env: dict, code: str) -> float:
    t0 = time.perf_counter()
    child = Child([sys.executable, "-c", code], env, root)
    status, _ = child.finish()
    if status != 0:
        raise RuntimeError(f"python -c {code!r} exited {status}")
    return 1000.0 * (time.perf_counter() - t0)


def end_to_end(workload: str, data: dict, setups: list[float]) -> dict:
    """The five end-to-end figures of an untraced run."""
    run = data["run"]
    lat_ms = [1000.0 * t for t in run["latencies"]]
    q = TAIL_PERCENTILE[workload]
    if q > 50.0 and beyond(len(lat_ms), q) < 10:
        print(f"bench: only {beyond(len(lat_ms), q)} samples beyond p{q:g}",
              file=sys.stderr)
    return {
        "ops_per_s": len(lat_ms) / run["wall"],
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": percentile(lat_ms, q),
        "peak_rss_mib": data["peak_rss_kib"] / 1024.0,
        "setup_s": statistics.median(setups),
    }


def per_layer(data: dict, floor_ms: float, import_ms: float) -> dict:
    values = {}
    for span, (calls, self_us) in data["layers"].items():
        values[f"{span}.calls"] = calls
        values[f"{span}.self_us"] = self_us
    values["cli.numpy_floor_ms"] = floor_ms
    values["cli.import_ms"] = import_ms
    check_ms = data.get("check_ms", {})
    for check_id in VERIFY_IDS:
        times = check_ms.get(check_id)
        values[f"verify.{check_id}.ms"] = (statistics.median(times)
                                           if times else 0.0)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "spin5" / "__init__.py").is_file():
        print("bench: run from the root of a spin5 checkout (no "
              "src/spin5 here)", file=sys.stderr)
        return 2
    env = child_env(root)
    # One CPU for this process and every child, so the reference kernel
    # and the ops it normalises run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.trace:
        floors, imports = [], []
        for _ in range(FLOOR_PAIRS):
            floors.append(cold_ms(root, env, "import numpy"))
            imports.append(cold_ms(root, env, "import spin5"))
        floor_ms = statistics.median(floors)
        import_ms = statistics.median(imports) - floor_ms
        _, _, rest = start_worker(root, env, args, probe=False)
        data = json.loads(rest.strip().splitlines()[-1])
        phases = [data["untraced"], data["traced"]]
        values = per_layer(data, floor_ms, import_ms)
        units = per_layer_units()
        rates = [len(p["latencies"]) / p["wall"] for p in phases]
        print(f"tracing overhead: {rates[0]:.4g} ops/s untraced, "
              f"{rates[1]:.4g} ops/s traced "
              f"({100.0 * (rates[0] / rates[1] - 1.0):+.1f}% time per op); "
              f"{data['spans']} spans in {data['trace_file']}")
    else:
        setups, scaled = [], []
        for probe in [True] * SETUP_PROBES + [False]:
            ready, scale, rest = start_worker(root, env, args, probe)
            setups.append(ready)
            scaled.append(ready * scale)
        data = json.loads(rest.strip().splitlines()[-1])
        phases = [data["run"]]
        values = end_to_end(args.workload, data, scaled)
        units = END_TO_END_UNITS
        run = data["run"]
        print(f"unscaled: {len(run['raw_latencies']) / run['raw_wall']:.4g} "
              f"ops/s, p50 "
              f"{1000.0 * statistics.median(run['raw_latencies']):.4g} ms, "
              f"set-up {statistics.median(setups):.4g} s; reference kernel "
              f"median {1e6 * run['ref_median_s']:.0f} us")

    errors = [e for p in phases for e in p["errors"]]
    for message in errors[:5]:
        print(f"bench: oracle: {message}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
