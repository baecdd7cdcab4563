"""Per-workload metric deltas between two sets of benchmark results.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one or more ``perfbench/run.py``
runs, concatenated (for example one traced run per workload). Runs are
grouped by workload and trace mode; several runs of one group are reduced
to their per-metric median. For each group present in both files the
script prints every metric's base value, new value, delta and the ratio
new/base with its base, so a change can show in which layer its saving
sits. Output digests are compared per workload and seed: the exit code is
1 when two runs at an equal seed disagree, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path):
    """{(workload, trace): [detail, ...]} from one results file."""
    groups = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if not line.startswith('{"detail"'):
                continue
            detail = json.loads(line)["detail"]
            groups[(detail["workload"], detail["trace"])].append(detail)
    return groups


def medians(details):
    names = details[0]["metrics"]
    return {name: (statistics.median(d["metrics"][name]["value"] for d in details),
                   details[0]["metrics"][name]["unit"]) for name in names}


def digests(details):
    return {d["seed"]: d["digest"] for d in details}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = load(argv[0]), load(argv[1])
    mismatched = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        b, n = medians(base[key]), medians(new[key])
        print(f"\n== {workload} ({'traced, per layer' if trace else 'end to end'}; "
              f"runs: base {len(base[key])}, new {len(new[key])})")
        print(f"{'metric':40s} {'unit':>8s} {'base':>14s} {'new':>14s} "
              f"{'delta':>14s} {'new/base':>9s}")
        for name, (bv, unit) in b.items():
            if name not in n:
                continue
            nv = n[name][0]
            if bv == nv == 0:  # a layer neither side's workload runs
                continue
            ratio = f"{nv / bv:9.3f}" if bv else f"{'-':>9s}"
            print(f"{name:40s} {unit:>8s} {bv:14.4f} {nv:14.4f} {nv - bv:+14.4f} {ratio}")
        bd, nd = digests(base[key]), digests(new[key])
        for seed in sorted(set(bd) & set(nd)):
            same = bd[seed] == nd[seed]
            mismatched |= not same
            print(f"digest at seed {seed}: {'identical' if same else 'DIFFERENT'}")
    only = sorted(set(base) ^ set(new))
    if only:
        print(f"\nin one file only: {only}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
