"""Compare two sets of benchmark runs, a parent and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files that `bench/run.py --out DIR`
writes. Untraced runs are grouped by workload and paired by seed. For
every workload and end-to-end metric it prints each side's median and
quartiles, the pairs the change won, and a verdict by the bounds in
BENCHMARK.json:

- gain: the change wins at least 9/10 of the pairs and its median beats
  the parent's by more than the parent's interquartile spread;
- regression: the change's median is worse than the parent's by more
  than the metric's bound;
- unresolved: the parent's own spread is wider than the bound, and not
  every change run beats every parent run;
- within bound: anything else.

It also prints each side's failed/attempted share per workload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory) -> dict:
    """workload -> seed -> result, for the untraced result files."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") == 0:
            runs.setdefault(result["workload"], {})[result["seed"]] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better: str, bound: float):
    """Verdict and pairs won for two equal-length lists of paired values."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    mp, mc = median(parent), median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (mp - mc)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "gain", wins
    if -gain > bound * abs(mp):
        return "regression", wins
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if (q3 - q1) > bound * abs(mp) and not all_better:
        return "unresolved", wins
    return "within bound", wins


def compare(parent_dir, change_dir, spec) -> list:
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    lines = []
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        lines.append(f"{workload}: {len(seeds)} paired seeds")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            att = sum(r["attempted"] for r in runs.values())
            fail = sum(r["failed"] for r in runs.values())
            bad = sum(1 for r in runs.values() if not r["correct"])
            share = fail / att if att else 0.0
            lines.append(f"  {side}: failed/attempted {fail}/{att} = {share:.6f}, incorrect runs {bad}/{len(runs)}")
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [p_runs[s]["metrics"][name]["value"] for s in seeds]
            cv = [c_runs[s]["metrics"][name]["value"] for s in seeds]
            word, wins = verdict(pv, cv, m["better"], m["bound"])
            (pq1, pq3), (cq1, cq3) = quartiles(pv), quartiles(cv)
            lines.append(
                f"  {name:12s} [{m['unit']}] parent {median(pv):.6g} ({pq1:.6g}..{pq3:.6g})"
                f"  change {median(cv):.6g} ({cq1:.6g}..{cq3:.6g})"
                f"  won {wins}/{len(seeds)}  bound {m['bound']}: {word}"
            )
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="directory of the parent's result files")
    p.add_argument("change", help="directory of the change's result files")
    args = p.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    print("\n".join(compare(args.parent, args.change, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
