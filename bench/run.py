"""The repository benchmark: cold and warm factorization paths, measured
end to end (untraced runs) and layer by layer (traced runs).

Usage, from the repository root::

    python3 bench/run.py --workload seq-mcnc --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --seed 0 --check --out results.json
    python3 bench/run.py --seed 0 --runs 10 --out spread.json

Each run prints every metric by name with its unit and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  Untraced
runs report the end-to-end metrics of ``BENCHMARK.json``, traced runs
the per-layer ones.

Without ``--workload`` every workload runs.  ``--runs N`` repeats them
round-robin with seeds ``seed, seed+1, ...`` (so slow machine drift
spreads evenly over workloads) and summarizes each metric's median and
inter-quartile range.  ``--check`` runs the untraced and the traced run
of each workload (unless ``--trace`` is given) and exits 1 unless every
answer was correct and every traced run's accounting closure is within
±5%.  ``--out`` writes every run plus the summary as JSON, the input of
``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from common import (  # noqa: E402
    ROOT,
    SRC,
    WORK_DIR,
    Speed,
    child_env,
    load_spec,
    metric_units,
    percentile,
    quartiles,
    result_object,
    spread,
)
import workloads  # noqa: E402

#: In-process launches per untraced run; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
CLOSURE_TOLERANCE = 0.05


class LaunchError(RuntimeError):
    pass


def run_inproc(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run an in-process workload in a fresh child process.

    Set-up is spawn until the child has imported the workload's modules;
    untraced runs launch :data:`SETUP_LAUNCHES` children, time each, and
    run the workload in the last.
    """
    script = str(BENCH_DIR / "inproc.py")
    setups: List[float] = []
    measured: List[float] = []
    launches = SETUP_LAUNCHES if not trace else 1
    result = None
    for n in range(launches):
        speed = Speed(all_cores=True)
        speed.sample(force=True)
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, script], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            speed.sample(force=True)
            measured.append(t1 - t0)
            setups.append((t1 - t0) * speed.factor(t0, t1))
            if line.strip() == "ready" and n == launches - 1:
                cfg = {"workload": workload, "seed": seed,
                       "seconds": seconds, "trace": trace}
                proc.stdin.write(json.dumps(cfg) + "\n")
                proc.stdin.close()
                lines = proc.stdout.read().strip().splitlines()
                result = json.loads(lines[-1]) if lines else None
        if proc.returncode != 0 or line.strip() != "ready":
            raise LaunchError(f"{script} exited with {proc.returncode}")
    if not trace:
        result["metrics"]["setup_s"] = percentile(setups, 50)
        result["measured"]["setup_s"] = percentile(measured, 50)
    return result


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: ``correct``, ``attempted``, ``failed``,
    ``metrics`` (name -> value) and the first few error messages."""
    if workload in workloads.IN_PROCESS:
        result = run_inproc(workload, seed, seconds, trace)
    else:
        from serving import run_served

        WORK_DIR.mkdir(exist_ok=True)
        work = WORK_DIR / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
        work.mkdir()
        try:
            result = run_served(workload, seed, seconds, trace, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                WORK_DIR.rmdir()
            except OSError:
                pass
    result["correct"] = result["failed"] == 0
    result.update(workload=workload, seed=seed, trace=int(trace))
    return result


def declared(spec: dict, trace: bool) -> List[str]:
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def render(run: dict, units: Dict[str, str]) -> List[str]:
    head = f"{run['workload']} seed={run['seed']} trace={run['trace']}"
    lines = [f"# {head}: attempted={run['attempted']} failed={run['failed']}"]
    for err in run.get("errors", ()):
        lines.append(f"#   error: {err}")
    lines.append("#   measured (not speed-scaled): " + "  ".join(
        f"{k}={v:.6g}" for k, v in run["measured"].items()))
    for name, value in run["metrics"].items():
        lines.append(f"{head}  {name} = {value:.6g} {units[name]}")
    return lines


def closure_ok(run: dict) -> bool:
    if not run["trace"]:
        return True
    return abs(run["metrics"]["closure"] - 1.0) <= CLOSURE_TOLERANCE


def summarize(runs: List[dict]) -> Dict[str, Dict[str, dict]]:
    """Per workload and metric: median, quartiles, spread, sample count."""
    groups: Dict[tuple, List[float]] = {}
    for run in runs:
        for name, value in run["metrics"].items():
            key = (run["workload"], "trace" if run["trace"] else "e2e", name)
            groups.setdefault(key, []).append(value)
    out: Dict[str, Dict[str, dict]] = {}
    for (workload, kind, name), values in sorted(groups.items()):
        q1, med, q3 = quartiles(values)
        out.setdefault(workload, {})[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": spread(values), "n": len(values),
        }
    return out


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: the repro package is missing under {SRC}; run the "
              "benchmark from a full checkout", file=sys.stderr)
        return 2
    # The served workloads' client generates and checks circuits itself.
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="measured seconds per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                    help="1: traced run (per-layer metrics); 0: untraced "
                         "(end-to-end metrics, the default)")
    ap.add_argument("--runs", type=int, default=1,
                    help="round-robin repetitions with seeds seed, seed+1, ...")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on any wrong answer or closure outside ±5%%; "
                         "runs both modes unless --trace is given")
    ap.add_argument("--out", help="write every run and the summary as JSON")
    args = ap.parse_args(argv)

    names = args.workload or list(workloads.WORKLOADS)
    if args.trace is not None:
        modes = [bool(args.trace)]
    else:
        modes = [False, True] if args.check else [False]
    units = metric_units(spec)
    runs: List[dict] = []
    for r in range(args.runs):
        for name in names:
            for trace in modes:
                run = run_once(name, args.seed + r, args.seconds, trace)
                missing = set(declared(spec, trace)) - set(run["metrics"])
                if missing:
                    raise KeyError(f"{name} did not report {sorted(missing)}")
                runs.append(run)
                print("\n".join(render(run, units)), flush=True)

    summary = summarize(runs)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"schema": "repro-bench/1", "seconds": args.seconds,
                       "runs": runs, "summary": summary}, fh, indent=1)
    if args.runs > 1:
        for workload, metrics in summary.items():
            for name, s in metrics.items():
                print(f"# {workload}  {name}: median {s['median']:.6g} "
                      f"{units[name]}  spread {s['spread']:.3f}  n={s['n']}")

    correct = all(run["correct"] for run in runs)
    if len(runs) == 1:
        run = runs[0]
        final = result_object(run["correct"], run["attempted"], run["failed"],
                              run["metrics"], units)
    else:
        final = {"correct": correct,
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "metrics": {}}
    print(json.dumps(final), flush=True)
    if args.check and not (correct and all(closure_ok(r) for r in runs)):
        print("check failed: wrong answers or closure outside ±5%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
