"""One benchmark process: set up a workload, then run it for a while.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--probe]

run.py starts this with PYTHONPATH pointing at the checkout's src/.  The
worker imports spin5, builds its inputs, runs one untimed warm-up op and
prints READY, then the host-speed scale of the moment.  With --probe it
stops there, so the time from start to READY is one set-up sample.
Otherwise it runs whole rounds of ops until they have taken the given time
and prints one JSON line with the figures.  With --trace 1 the first half
of the time runs untraced and the second half traced, which gives the
per-op layer figures and the tracing overhead.

Times are measured on a shared host whose speed swings by up to 1.9x
for seconds to minutes at a time.  So a fixed reference kernel is timed
between ops, and every op time is also reported scaled to a host that
runs the kernel in REF_NOMINAL_S (see README.md, "Host noise").
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spin5
import oracles
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


#: Time of one reference sample on a host running at the speed the
#: normalised figures are quoted at (near the median on the machine in
#: README.md).
REF_NOMINAL_S = 0.6e-3
#: Reference samples are taken at least this far apart: before each
#: round, before an op that starts later than this after the last sample,
#: and between the checks of a registry run.
REF_EVERY_S = 0.25
_REF_MATRIX = np.random.default_rng(0).standard_normal((8, 5))


def reference_seconds() -> float:
    """Median of three timings of a fixed small-matrix kernel.

    The kernel (SVD and least squares on an 8x5 matrix, ten times) has
    the make-up of the program's own numerics, so it slows down with the
    host as they do; it never changes with the program.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(10):
            np.linalg.svd(_REF_MATRIX)
            np.linalg.lstsq(_REF_MATRIX, _REF_MATRIX[:, 0], rcond=None)
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


class HostReference:
    """Time series of reference samples, used to normalise op times."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(reference_seconds())
        self.times.append(time.perf_counter())

    def maybe_sample(self) -> None:
        now = time.perf_counter()
        if not self.times or now - self.times[-1] > REF_EVERY_S:
            self.sample()

    def scale(self, starts, ends) -> np.ndarray:
        """REF_NOMINAL_S over the local reference time, per op.

        The local time is the median of the samples from the last one
        before the op to the first one after it.  A wider window smears
        ops next to a change of host speed into the tail.
        """
        times = np.asarray(self.times)
        samples = np.asarray(self.samples)
        lo = np.searchsorted(times, np.asarray(starts))
        hi = np.searchsorted(times, np.asarray(ends))
        return np.array([REF_NOMINAL_S
                         / np.median(samples[max(0, a - 1):b + 1])
                         for a, b in zip(lo, hi)])


def run_phase(wl, seconds: float, first_round: int, spans=None) -> dict:
    """Run whole rounds until their ops have taken `seconds`; check them.

    Each op's latency is also given host-normalised by wl.host.scale().
    The oracle checks run between rounds, outside all timings.  With a
    tracer, each op's spans carry the op's number.
    """
    host = wl.host
    first_sample = len(host.samples)
    raw: list[float] = []
    starts: list[float] = []
    good: list[bool] = []
    attempted = failed = 0
    errors: list[str] = []
    r = first_round
    while r == first_round or sum(raw) < seconds:
        ops = wl.round(r)
        r += 1
        done = []
        host.sample()
        for op in ops:
            host.maybe_sample()
            if spans is not None:
                spans.op = attempted + len(done)
            start = time.perf_counter()
            try:
                out, ok = op.run(), True
            except Exception as exc:  # noqa: BLE001 - counted, then reported
                out, ok = exc, False
            raw.append(time.perf_counter() - start)
            starts.append(start)
            good.append(ok)
            done.append((op, out, ok))
        for op, out, ok in done:
            attempted += 1
            if not ok:
                failed += 1
                if failed <= 3:
                    print(f"failed {op.kind}: {type(out).__name__}: {out}",
                          file=sys.stderr)
                continue
            try:
                op.check(out)
            except (oracles.OracleError, KeyError, ValueError, TypeError,
                    StopIteration) as exc:
                errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    host.sample()
    raw_a = np.array(raw)
    scaled = raw_a * host.scale(starts, np.array(starts) + raw_a)
    ok_a = np.array(good)
    return {"latencies": scaled[ok_a].tolist(),
            "raw_latencies": raw_a[ok_a].tolist(),
            "attempted": attempted, "failed": failed, "errors": errors,
            "wall": float(scaled.sum()), "raw_wall": float(raw_a.sum()),
            "next_round": r,
            "ref_median_s": float(np.median(host.samples[first_sample:]))}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    out_dir = ROOT / ".bench_out"
    work_dir = out_dir / f"{args.workload}-{args.seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    laws = oracles.Laws(np.stack([spin5.gamma(k) for k in range(1, 6)]))
    wl = workloads.make(args.workload, spin5, laws, args.seed, work_dir)
    wl.host = HostReference()
    wl.warmup().run()
    print("READY", flush=True)
    # The host speed right after set-up, so that run.py can normalise the
    # set-up time like the op times.
    print(f"SCALE {REF_NOMINAL_S / reference_seconds()!r}", flush=True)
    if args.probe:
        return 0

    result: dict = {}
    if args.trace:
        half = args.seconds / 2.0
        result["untraced"] = run_phase(wl, half, 1)
        host = result["untraced"]["wall"] / result["untraced"]["raw_wall"]
        result["check_ms"] = {k: [host * t for t in v] for k, v
                              in getattr(wl, "check_ms", {}).items()}
        spans = tracing.Tracer()
        if args.workload == "cli_oneshot":
            wl.tracer = spans
        else:
            spans.install()
        first = result["untraced"]["next_round"]
        traced = run_phase(wl, half, first, spans)
        result["traced"] = traced
        ops = traced["attempted"]
        host = traced["wall"] / traced["raw_wall"]
        result["layers"] = {name: [calls / ops, host * self_ns / 1e3 / ops]
                            for name, (calls, self_ns)
                            in spans.totals().items()}
        result["spans"] = len(spans)
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        spans.dump(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        result["run"] = run_phase(wl, args.seconds, 1)
    who = (resource.RUSAGE_CHILDREN if args.workload == "cli_oneshot"
           else resource.RUSAGE_SELF)
    result["peak_rss_kib"] = resource.getrusage(who).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - a set-up failure ends the run
        traceback.print_exc()
        sys.exit(1)
