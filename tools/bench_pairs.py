#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench, run from two checkout copies.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out FILE \\
        --run sweep_long:11110704:10 [--run WORKLOAD:SEED:PAIRS ...] \\
        [--control DIR --control-run WORKLOAD:SEED:PAIRS] \\
        [--traced WORKLOAD:SEED] [--claim METRIC:WORKLOAD:RATIO] \\
        [--seconds 20] [--describe TEXT]

Each DIR is a copy of a checkout, with its own ``src/`` and ``perfbench/``.
A run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in that directory, and a pair is one run on each side: pair i
runs the parent first when i is even and the change first when i is odd.
``--control`` names a second copy of the parent; ``--control-run`` pairs
the parent against it by the same protocol (an A/A control), which shows
the spread two checkouts of identical code read on this machine.
``--traced`` adds one ``--trace 1`` run per side and records its per-layer
medians. ``--claim`` checks a claimed gain on every run of its workload:
the change's median at least RATIO times the parent's (in the metric's
better direction), the change better in at least nine tenths of the pairs,
and the medians further apart than the parent's interquartile range.
Each run's minor page faults (the ``ru_minflt`` growth of
``getrusage(RUSAGE_CHILDREN)`` across its subprocess, set-up included) are
recorded per side as ``minor_faults``.

The end-to-end metrics and their better direction come from the
``BENCHMARK.json`` next to ``tools/``. The output file is rewritten after
every run, so an interrupted campaign keeps the pairs it finished. A run
whose benchmark exits non-zero or prints no result stops the campaign.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = ["python3", "perfbench/run.py"]
WIN_SHARE = 0.9  # a claimed gain needs the change better in this share of its pairs


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="copy of the parent checkout")
    p.add_argument("--change", required=True, help="copy of the changed checkout")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--run", action="append", default=[], type=_spec(3),
                   metavar="WORKLOAD:SEED:PAIRS")
    p.add_argument("--control", help="second copy of the parent checkout, for an A/A control")
    p.add_argument("--control-run", type=_spec(3), metavar="WORKLOAD:SEED:PAIRS")
    p.add_argument("--traced", type=_spec(2), metavar="WORKLOAD:SEED")
    p.add_argument("--claim", action="append", default=[], type=_claim,
                   metavar="METRIC:WORKLOAD:RATIO")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--describe", default="", help="what the change does, for the file")
    args = p.parse_args(argv)
    if bool(args.control) != bool(args.control_run):
        p.error("--control and --control-run go together")
    if not args.run and not args.control_run and not args.traced:
        p.error("nothing to run")
    return args


def _spec(fields):
    """argparse type: WORKLOAD:SEED[:PAIRS] as (workload, seed[, pairs])."""
    def parse(text):
        parts = text.split(":")
        if len(parts) != fields or not all(parts):
            raise argparse.ArgumentTypeError(f"expected {fields} fields split by ':', got {text!r}")
        try:
            numbers = [int(x) for x in parts[1:]]
        except ValueError:
            raise argparse.ArgumentTypeError(f"seed and pairs must be integers: {text!r}") from None
        if any(x < 0 for x in numbers) or fields == 3 and numbers[1] < 1:
            raise argparse.ArgumentTypeError(f"seed must be >= 0 and pairs >= 1: {text!r}")
        return (parts[0], *numbers)
    return parse


def _claim(text):
    parts = text.split(":")
    try:
        metric, workload, ratio = parts[0], parts[1], float(parts[2])
    except (IndexError, ValueError):
        raise argparse.ArgumentTypeError(f"expected METRIC:WORKLOAD:RATIO, got {text!r}") from None
    if len(parts) != 3 or ratio <= 0:
        raise argparse.ArgumentTypeError(f"expected METRIC:WORKLOAD:RATIO > 0, got {text!r}")
    return metric, workload, ratio


def benchmark_once(checkout, workload, seed, seconds, trace):
    """One perfbench run in ``checkout``: (result line, detail line, minor
    page faults of the run's process)."""
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"], faults


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(parent, change, better):
    """Per metric: medians, interquartile ranges, their ratio and the pairs
    in which the change reads strictly better."""
    out = {}
    for name, higher in better.items():
        p, c = parent[name], change[name]
        pm, cm = statistics.median(p), statistics.median(c)
        wins = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
        out[name] = {"parent_median": round(pm, 4), "parent_iqr": round(quartile_spread(p), 4),
                     "change_median": round(cm, 4), "change_iqr": round(quartile_spread(c), 4),
                     "change_over_parent": round(cm / pm, 4) if pm else None,
                     "change_wins": wins}
    return out


def run_pairs(sides, workload, seed, pairs, seconds, better, record):
    """``pairs`` alternating pairs of runs of the two (label, checkout)
    ``sides``, filling ``record`` in place; yields the machine facts of
    the benchmark after every pair."""
    values = {label: {name: [] for name in better} for label, _ in sides}
    faults = {label: [] for label, _ in sides}
    digests, ok = set(), True
    record.update(workload=workload, seed=seed, pairs=0)
    for i in range(pairs):
        for label, checkout in (sides if i % 2 == 0 else sides[::-1]):
            result, detail, minflt = benchmark_once(checkout, workload, seed, seconds, trace=0)
            faults[label].append(minflt)
            ok = ok and result["correct"] and result["failed"] == 0
            digests.add(detail["digest"])
            for name in better:
                values[label][name].append(round(result["metrics"][name]["value"], 4))
        (a, _), (b, _) = sides
        record.update(pairs=i + 1, digest_identical=len(digests) == 1,
                      digest=sorted(digests)[0] if len(digests) == 1 else sorted(digests),
                      summary=summarize(values[a], values[b], better),
                      parent=values[a], change=values[b], ok=ok and len(digests) == 1,
                      minor_faults={"parent": faults[a], "change": faults[b]})
        yield detail["machine"]


def traced(sides, workload, seed, seconds):
    """One traced run per side; its per-layer metric values."""
    out = {"workload": workload, "seed": seed,
           "command": " ".join(RUN + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "1"])}
    for label, checkout in sides:
        result, _, _ = benchmark_once(checkout, workload, seed, seconds, trace=1)
        out[label] = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
    return out


def check_claims(claims, runs, better):
    out = []
    for metric, workload, ratio in claims:
        higher = better[metric]
        for run in runs:
            if run["workload"] != workload:
                continue
            s = run["summary"][metric]
            gain = s["change_over_parent"] if higher else 1 / s["change_over_parent"]
            apart = abs(s["change_median"] - s["parent_median"]) > s["parent_iqr"]
            out.append({"metric": metric, "workload": workload, "seed": run["seed"],
                        "required_ratio": ratio, "gain": round(gain, 4),
                        "wins": s["change_wins"], "pairs": run["pairs"],
                        "medians_apart_beyond_parent_iqr": apart,
                        "met": bool(gain >= ratio and s["change_wins"] >= WIN_SHARE * run["pairs"]
                                    and apart and run["ok"])})
    return out


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] == "higher" for m in json.load(fh)["end_to_end"]}
    for metric, _, _ in args.claim:
        if metric not in better:
            sys.exit(f"bench_pairs: unknown metric {metric!r}")
    command = " ".join(RUN + ["--workload W --seed S --seconds", f"{args.seconds:g}",
                              "--trace 0"])
    doc = {
        "change": args.describe,
        "command": command,
        "protocol": ("alternating parent/change runs, parent first in even pairs (pair index "
                     "0, 2, ...); same machine, benchmark code and settings on both sides, each "
                     "side a copy of its src/ and perfbench/; quartiles by statistics.quantiles("
                     "method='inclusive'); change_wins counts pairs in which the change reads "
                     "strictly better"),
        "machine": {},  # as the benchmark reports it
        "runs": [],
    }

    def save():
        tmp = args.out + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, args.out)

    def campaign(sides, spec, record):
        for machine in run_pairs(sides, *spec, args.seconds, better, record):
            doc["machine"] = {k: machine[k] for k in ("machine", "nproc", "python", "numpy")}
            doc["claims"] = check_claims(args.claim, doc["runs"], better)
            save()

    sides = [("parent", args.parent), ("change", args.change)]
    for spec in args.run:
        doc["runs"].append({})
        campaign(sides, spec, doc["runs"][-1])
    if args.control_run:
        doc["aa_control"] = {
            "sides": {"parent": "parent", "change": "second copy of the parent"},
            "note": "the same protocol with the parent's files in a second copy on the "
                    "'change' side: the spread two checkouts of identical code show"}
        campaign([("parent", args.parent), ("change", args.control)], args.control_run,
                 doc["aa_control"])
    if args.traced:
        doc["traced_per_request"] = traced(sides, *args.traced, args.seconds)
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
