"""Compare two benchmark result files under ``BENCHMARK.json``'s bounds.

Usage, from the repository root::

    python3 bench/compare.py BASE.json CHANGE.json

Both files come from ``bench/run.py --out``, ideally with ``--runs``
of at least 5 over the same seeds.  For every workload and end-to-end
metric the verdict is

- ``within``: the change's median is no worse than the base's by more
  than the metric's bound;
- ``regressed``: it is worse by more than the bound;
- ``unresolved``: the run-to-run spread (inter-quartile range over the
  median, the larger of the two sides) exceeds the bound, so the
  runs cannot tell — unless every change run beats every base run.

Operation counts (per-layer metrics in ``count``) and ``lc_ratio`` are
deterministic in the seed, so for every seed run on both sides they must
be identical.  Exits 1 when anything regressed or differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import load_spec, spread  # noqa: E402

EXACT_E2E = ("lc_ratio",)


def verdict(base: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, relative worsening of the change's median)."""
    mb, mc = statistics.median(base), statistics.median(change)
    if better == "lower":
        worse = (mc - mb) / mb if mb else 0.0
        always_better = max(change) < min(base)
    else:
        worse = (mb - mc) / mb if mb else 0.0
        always_better = min(change) > max(base)
    if max(spread(base), spread(change)) > bound and not always_better:
        return "unresolved", worse
    return ("regressed" if worse > bound else "within"), worse


def by_run(doc: dict) -> Dict[Tuple[str, int, int], Dict[str, float]]:
    return {(r["workload"], r["seed"], r["trace"]): r["metrics"]
            for r in doc["runs"]}


def compare(base: dict, change: dict, spec: dict) -> Tuple[List[str], bool]:
    lines: List[str] = []
    ok = True
    base_runs, change_runs = by_run(base), by_run(change)
    workloads = sorted({k[0] for k in base_runs} & {k[0] for k in change_runs})
    lines.append(f"{'workload':<11} {'metric':<18} {'base':>11} {'change':>11} "
                 f"{'worse':>7} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [v[name] for k, v in base_runs.items() if k[0] == w and name in v]
            c = [v[name] for k, v in change_runs.items() if k[0] == w and name in v]
            if not b or not c:
                continue
            v, worse = verdict(b, c, m["better"], m["bound"])
            ok &= v != "regressed"
            lines.append(
                f"{w:<11} {name:<18} {statistics.median(b):>11.5g} "
                f"{statistics.median(c):>11.5g} {100 * worse:>6.1f}% "
                f"{max(spread(b), spread(c)):>7.3f} {m['bound']:>6.2f}  {v}")
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    exact += list(EXACT_E2E)
    differs = []
    for key in sorted(set(base_runs) & set(change_runs)):
        for name in exact:
            vb = base_runs[key].get(name)
            vc = change_runs[key].get(name)
            if vb is not None and vc is not None and vb != vc:
                differs.append(f"{key[0]} seed={key[1]} trace={key[2]} "
                               f"{name}: {vb!r} -> {vc!r}")
    if differs:
        ok = False
        lines.append("deterministic metrics differ:")
        lines.extend("  " + d for d in differs)
    else:
        lines.append("deterministic metrics (counts, lc_ratio): identical "
                     "on every seed run on both sides")
    return lines, ok


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        change = json.load(fh)
    lines, ok = compare(base, change, load_spec())
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
