"""Benchmark of bounded_agents: three workloads, timed end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload ladder_scaling --seed 0 --seconds 10 --trace 0

Each workload runs in its own Python process (worker.py) on the package
under ./src, so its peak RSS and BLAS threads belong to it alone. With
--trace 0 the result holds the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run. Every metric is printed by name with
its unit, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Details, including the
environment block and each pass's time, go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("paper_reproduce", "ladder_scaling", "policy_search")
SETUP_RUNS = 6  # set-up-only processes per run, after one discarded warm-up
CHILD_TIMEOUT_S = 300
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if name.endswith((".calls", ".failed", ".spans", "evals_per_search")):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("rounds_per_s"):
        return "1/s"
    if ".ms_per_call." in name:
        return "ms"
    if name.endswith(("_s", "_s.blas1")):
        return "s"
    raise ValueError(f"no unit for metric {name}")


def git_commit(root: Path) -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child(mode: str, args, extra_env: dict | None = None) -> dict:
    """Run worker.py in its own process and return its result object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra_env or {})
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def environment(result: dict) -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "blas": result["blas"],
        "blas_version": result["blas_version"],
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(ROOT),
    }


def end_to_end(setup_samples: list[float], measured: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_ref_s": statistics.median(measured["ref_pass_s"]),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def per_layer(traced: dict, blas1: dict | None) -> dict[str, float]:
    metrics = dict(traced["layers"])
    metrics["markov_exact.stationary.self_s.blas1"] = (
        blas1["layers"]["markov_exact.stationary.self_s"] if blas1 else 0.0)
    return metrics


def run_untraced(args) -> tuple[dict, dict, list[str]]:
    child("setup", args)  # warms the file cache and bytecode; not counted
    setup_samples = [child("setup", args)["setup_s"] for _ in range(SETUP_RUNS)]
    measured = child("measure", args)
    setup_samples.append(measured["setup_s"])
    metrics = end_to_end(setup_samples, measured)
    s1, _, s3 = statistics.quantiles(setup_samples, n=4)
    passes = len(measured["pass_s"])
    r1, _, r3 = statistics.quantiles(measured["ref_pass_s"], n=4)
    w1, w2, w3 = statistics.quantiles(measured["pass_s"], n=4)
    c1, c2, c3 = statistics.quantiles(measured["cal_s"], n=4)
    notes = [
        f"setup_s: median of {len(setup_samples)} set-ups, q1 {s1:.4f} s, q3 {s3:.4f} s",
        f"wall_ref_s: median of {passes} passes, q1 {r1:.4f} s, q3 {r3:.4f} s; "
        f"each pass rescaled by the {measured['calibration']} calibration loop run "
        f"before and after it",
        f"wall_s: median of {passes} passes {w2:.6g} s, q1 {w1:.4f} s, q3 {w3:.4f} s; "
        f"untimed warm-up pass {measured['first_pass_s']:.4f} s",
        f"{measured['calibration']} calibration loop: median of {passes + 1} runs "
        f"{c2:.6g} s, q1 {c1:.4f} s, "
        f"q3 {c3:.4f} s",
        "peak_rss_mb: ru_maxrss of the measuring process",
    ]
    details = {"setup_samples_s": setup_samples, **measured}
    return metrics, details, notes


def run_traced(args) -> tuple[dict, dict, list[str]]:
    traced = child("trace", args)
    blas1 = None
    if args.workload == "ladder_scaling":
        half = argparse.Namespace(**{**vars(args), "seconds": args.seconds / 2})
        blas1 = child("blas1", half, {"OPENBLAS_NUM_THREADS": "1"})
    metrics = per_layer(traced, blas1)
    notes = [f"traced passes {len(traced['traced_pass_s'])}, untraced passes "
             f"{len(traced['untraced_pass_s'])}; per-layer values are means per traced pass"]
    details = {**traced, "blas1": blas1}
    if blas1:
        details["attempted"] += blas1["attempted"]
        details["failed"] += blas1["failed"]
        details["failure_notes"] += blas1["failure_notes"]
    return metrics, details, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "bounded_agents" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'bounded_agents'}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, details, notes = runner(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = environment(details)
    attempted, failed = details["attempted"], details["failed"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {unit_of(name)}")
    print(f"{'failed_frac':44s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    for note in notes + details["failure_notes"]:
        print("  " + note)
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "environment": env, "metrics": metrics,
                    "details": details}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
