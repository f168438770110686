"""Compare benchmark results of a parent commit and a change.

Usage: python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one ``<workload>.jsonl`` file per workload, one line
per run: the last stdout line of ``perfbench/run.py``.  Line i of the
parent and line i of the change form pair i, so collect them alternately,
switching which side runs first, for example from two checkouts:

    for i in $(seq 1 10); do
      for side in parent change; do  # swap the order on odd i
        (cd $side && python3 perfbench/run.py --workload W --seed $((100+i)) \\
           --seconds 30 --trace 0 | tail -n 1) >> results/$side/W.jsonl
      done
    done

For every end-to-end metric of BENCHMARK.json on every workload, the verdict
follows the benchmark's rules:
  worse       the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  improved    the change wins at least 9 pairs in 10 (ties count for neither)
              and the medians differ by more than the parent's interquartile
              spread;
  unresolved  neither, and the run-to-run spread of either side is wider
              than the bound, unless every change run beats every parent run;
  unchanged   otherwise.
Failed ops are compared too: more failed ops in the change is worse.
The exit code is 1 when any verdict is worse.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import List

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")


def _load(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _spread(values: List[float]) -> float:
    """Interquartile distance."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: List[float], change: List[float], higher: bool, bound: float) -> str:
    def better(a, b):
        return a > b if higher else a < b

    mp, mc = statistics.median(parent), statistics.median(change)
    scale = abs(mp)
    if better(mp, mc) and abs(mc - mp) > bound * scale:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    if better(mc, mp) and wins >= 0.9 * len(pairs) and abs(mc - mp) > _spread(parent):
        return "improved"
    all_better = all(better(c, p) for c in change for p in parent)
    noisy = max(_spread(parent) / scale if scale else 0.0,
                _spread(change) / abs(mc) if mc else 0.0) > bound
    if noisy and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    worse = False
    print(f"{'workload':13s} {'metric':15s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>7s}  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        files = [os.path.join(d, f"{workload}.jsonl") for d in argv]
        if not all(os.path.exists(f) for f in files):
            continue
        parent, change = (_load(f) for f in files)
        n = min(len(parent), len(change))
        parent, change = parent[:n], change[:n]
        for metric in bench["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            p = [r["metrics"][name]["value"] for r in parent]
            c = [r["metrics"][name]["value"] for r in change]
            v = verdict(p, c, higher, metric["bound"])
            worse |= v == "worse"
            wins = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
            print(f"{workload:13s} {name:15s} {_describe(p):>34s} {_describe(c):>34s} "
                  f"{wins:>3d}/{n:<3d}  {v}")
        fp = sum(r["failed"] for r in parent)
        fc = sum(r["failed"] for r in change)
        v = "worse" if fc > fp else ("improved" if fc < fp else "unchanged")
        worse |= v == "worse"
        print(f"{workload:13s} {'failed ops':15s} {fp:>34d} {fc:>34d} {'':>7s}  {v}")
    return 1 if worse else 0


def _describe(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}" if values else "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
