"""One workload in one process; run.py starts it and reads its last stdout line.

Modes:
  setup    import numpy and bounded_agents and build the inputs, nothing else;
  measure  setup, one warm-up pass, then timed passes for --seconds, each
           bracketed by runs of the calibration loop (calibrate.py);
  trace    setup, one warm-up pass, then untraced and traced passes in turn;
  blas1    as trace, traced passes only (run.py sets OPENBLAS_NUM_THREADS=1).

Every pass is checked. The warm-up pass is checked and counted as attempted
but not timed into the result, because the first solves in a fresh process
include BLAS start-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MAX_FAILURE_NOTES = 5


def setup(workload: str, seed: int, work_dir: Path):
    """Import the package and build the inputs; returns (workload, seconds)."""
    start = perf_counter()
    import numpy  # noqa: F401  (timed: part of what every user pays)
    import bounded_agents  # noqa: F401
    import workloads

    w = workloads.WORKLOADS[workload](seed, work_dir)
    return w, perf_counter() - start


def blas_info() -> dict:
    import numpy

    info = {"numpy": numpy.__version__, "blas": "unknown", "blas_version": "unknown"}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas["name"], blas["version"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        pass
    return info


class Tally:
    """Operations attempted and failed across every pass of this process."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures: list[str]):
        self.attempted += attempted
        self.failures += failures

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failure_notes": self.failures[:MAX_FAILURE_NOTES]}


def run_checked(w, log, tally: Tally, spans=None) -> float:
    import workloads

    gc.collect()
    wall, attempted, failures = workloads.run_pass(w, log, spans)
    tally.add(attempted, failures)
    return wall


def measure(w, log, seconds: float) -> dict:
    """Timed passes, with the calibration loop run before the first and after
    each; ``cal_s[i]`` and ``cal_s[i + 1]`` bracket pass ``i``."""
    from calibrate import calibrate, rescale

    tally = Tally()
    calibrate(w.calibration)  # warms the loop up, like the warm-up pass below
    first = run_checked(w, log, tally)
    walls, cals = [], [calibrate(w.calibration)]
    start = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - start < seconds:
        walls.append(run_checked(w, log, tally))
        cals.append(calibrate(w.calibration))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"first_pass_s": first, "pass_s": walls, "calibration": w.calibration,
            "cal_s": cals, "ref_pass_s": rescale(w.calibration, walls, cals),
            "peak_rss_mb": peak_kb / 1024.0, **tally.report(), **blas_info()}


def trace(w, log, seconds: float, untraced: bool, spans_path: Path) -> dict:
    import tracer

    tally = Tally()
    tr = tracer.Tracer()
    run_checked(w, log, tally)
    plain, traced, layers, first_spans = [], [], [], []
    start = perf_counter()
    while (len(traced) < MIN_TRACED_PASSES or (untraced and len(plain) < MIN_TRACED_PASSES)
           or perf_counter() - start < seconds):
        if untraced and len(plain) <= len(traced):
            plain.append(run_checked(w, log, tally))
            continue
        tr.reset()
        wall = run_checked(w, log, tally, tr)
        traced.append(wall)
        layers.append(tracer.layer_metrics(tr.spans, wall))
        if len(traced) == 1:
            first_spans = list(tr.spans)
    write_spans(first_spans, spans_path)
    metrics = {k: statistics.fmean(m[k] for m in layers) for k in layers[0]}
    if untraced:
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {"layers": metrics, "traced_pass_s": traced, "untraced_pass_s": plain,
            **tally.report(), **blas_info()}


def write_spans(spans, path: Path) -> None:
    """The first traced pass's spans as CSV: index, name, start, end, parent."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        t0 = spans[0][1] if spans else 0.0
        for i, s in enumerate(spans):
            fh.write(f"{i},{s[0]},{s[1] - t0:.9f},{s[2] - t0:.9f},{s[3]}\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "blas1"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    args = ap.parse_args()

    work_dir = args.work_dir / f"{args.mode}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        w, setup_s = setup(args.workload, args.seed, work_dir)
        import bounded_agents

        src = Path(__file__).resolve().parent.parent / "src"
        if Path(bounded_agents.__file__).resolve().parent.parent != src:
            print(f"bounded_agents imported from {bounded_agents.__file__}, not {src}",
                  file=sys.stderr)
            return 3
        result = {"setup_s": setup_s}
        if args.mode != "setup":
            import workloads

            log = workloads.ResidualLog()
            log.install()
            if args.mode == "measure":
                result.update(measure(w, log, args.seconds))
            else:
                spans_path = args.work_dir / f"spans-{args.workload}-{args.mode}.csv"
                result.update(trace(w, log, args.seconds, args.mode == "trace", spans_path))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
