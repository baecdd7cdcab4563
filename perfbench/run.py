"""Host-time benchmark of polarsc: one workload per run, one closed-loop client.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.
A single process sends the next request only when the previous one has
returned, and starts no threads of its own. Every output is checked; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it,
``{"detail": ...}``, holds the output digest, the set-up checks, the raw
(unscaled) times, the latency-tail percentile and the machine facts.

Times are rescaled to a reference machine speed (see ``SpeedProbe``).
``--trace 0`` reports the end-to-end metrics. ``--trace 1`` replays every
request twice, untraced and traced, and reports per-layer medians (see
``spans.py``); its times are inflated by the tracing and are not end to
end. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 11110704
HELD_OUT_SEED = 20111107  # kept out of tuning; for confirming later claims
SETUP_REPS = 5            # set-up is measured this many times; median reported
MIN_REQUESTS = 12         # so the latency tail has 10 samples beyond it
DIGEST_REQUESTS = 4       # requests 0..3 enter the run digest at every seed
TAIL_BEYOND = 10
PROBE_REF_S = 0.004       # probe time that defines the reference speed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import polarsc; print(time.perf_counter() - t)")

E2E_UNITS = {"frames_per_s": "frames/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB", "ok_ops_ratio": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def import_package():
    """Put the checkout's ``src/`` first on the path and import from it."""
    if not os.path.isfile(os.path.join(SRC, "polarsc", "__init__.py")):
        sys.exit(f"perfbench: no polarsc source under {SRC}")
    sys.path.insert(0, SRC)
    import polarsc
    if not os.path.abspath(polarsc.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: polarsc imported from {polarsc.__file__}, not {SRC}")


def machine_facts():
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "loadavg": list(os.getloadavg()),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


class SpeedProbe:
    """Tracks the speed of a shared machine whose neighbours slow it down by
    tens of percent for minutes at a time.

    The probe is a fixed mix of the three kinds of work the package spends
    its time in: numpy calls on 32-element arrays, integer arithmetic in
    Python, and small-object and dict traffic. ``around(fn)`` runs the
    probe, then ``fn``, then the probe again, and returns ``fn``'s result
    with the factor PROBE_REF_S over the mean probe time. A host time times
    that factor is the time on a machine where the probe takes PROBE_REF_S.
    The factors are in the detail line, and the raw times too.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        self._a = np.arange(32.0)
        self._b = self._a[::-1].copy()
        self.factors = []
        self._measure()  # the first pass runs colder than the rest

    def _measure(self):
        np, a, b = self._np, self._a, self._b
        t0 = time.perf_counter()
        for _ in range(150):
            np.clip(np.minimum(np.abs(a), np.abs(b)) * np.where(a < 0, -1, 1) + b, -31, 31)
        acc = 0
        for i in range(15000):
            acc = (acc + ((i & 7) ^ (i >> 3))) & 1023
        slots, sums = {}, []
        for i in range(3000):
            pair = _Pair(i, i + 1)
            slots[i & 63] = pair
            sums.append(pair.a + pair.b)
        return time.perf_counter() - t0

    def around(self, fn):
        before = self._measure()
        result = fn()
        factor = PROBE_REF_S / ((before + self._measure()) / 2)
        self.factors.append(factor)
        return result, factor


def import_seconds():
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout)


def serve(wl, ctx, inputs):
    """One timed request; returns (output or None, seconds, error or None)."""
    t0 = time.perf_counter()
    try:
        out = wl.request(ctx, inputs)
    except Exception as exc:  # a request that raises is a failed operation
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - t0, None


def judge(wl, ctx, inputs, index, out, error):
    """Problems of one request, and its digest ("failed" when it raised)."""
    if error is not None:
        return [error], "failed"
    try:
        return wl.check(ctx, inputs, index, out), wl.digest(out)
    except Exception as exc:  # an output the checker cannot read is wrong
        return [f"check raised {type(exc).__name__}: {exc}"], "failed"


def set_up(wl, seed, probe):
    """Import the package in a fresh interpreter, build the workload and run
    its warm-up request, SETUP_REPS times; then the untimed set-up checks.
    Returns (ctx, setup_s, facts, problems)."""
    from workloads import closed_forms, digest, digests_agree, noiseless, self_test, sub_seed
    warm_seed = sub_seed(seed, 1)
    raw, scaled, warm_digests, problems = [], [], [], []

    def one_setup():
        took = import_seconds()
        t0 = time.perf_counter()
        ctx = wl.build()
        inputs = wl.prepare(ctx, warm_seed)
        out, _, error = serve(wl, ctx, inputs)
        return took + time.perf_counter() - t0, ctx, inputs, out, error

    for _ in range(SETUP_REPS):
        (took, ctx, inputs, out, error), scale = probe.around(one_setup)
        raw.append(took)
        scaled.append(took * scale)
        found, dig = judge(wl, ctx, inputs, 0, out, error)
        problems += [f"warm-up: {p}" for p in found]
        warm_digests.append(dig)
    if not digests_agree(warm_digests):
        problems.append(f"warm-up digests differ across set-ups: {warm_digests}")
    modelled, found = closed_forms(ctx.spec, sub_seed(seed, 2))
    problems += found
    problems += noiseless(ctx.spec, wl.archs, sub_seed(seed, 3))
    if out is not None:
        problems += self_test(wl, ctx, inputs, out)
    facts = {
        "raw_setup_s": raw,
        "warmup_digest": warm_digests[0],
        "modelled": modelled,
        "modelled_digest": digest(modelled),
    }
    return ctx, statistics.median(scaled), facts, problems


def latency_tail(samples_ms):
    """Highest percentile with TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond)."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    idx = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


class Tally:
    """Digests, problems and failures of the requests of one run."""

    def __init__(self):
        self.digests, self.problems, self.failed = [], [], 0

    def add(self, index, digest_, problems):
        self.digests.append(digest_)
        if problems:
            self.failed += 1
            self.problems += [f"request {index}: {p}" for p in problems]


def run_untraced(wl, ctx, seed, seconds, probe):
    """Returns ([(raw_s, scaled_s)] per request, Tally)."""
    from workloads import sub_seed
    times, tally = [], Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < MIN_REQUESTS:
        inputs = wl.prepare(ctx, sub_seed(seed, 0, i))
        (out, took, error), scale = probe.around(lambda: serve(wl, ctx, inputs))
        times.append((took, took * scale))
        found, dig = judge(wl, ctx, inputs, i, out, error)
        tally.add(i, dig, found)
        i += 1
    return times, tally


def run_traced(wl, ctx, seed, seconds, probe):
    """Each request runs untraced and traced, alternating which goes first;
    both outputs must agree. Returns (per-request records, Tally)."""
    from spans import Tracer
    from workloads import sub_seed
    tracer = Tracer()
    records, tally = [], Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < DIGEST_REQUESTS:
        inputs = wl.prepare(ctx, sub_seed(seed, 0, i))
        plain_first = i % 2 == 1

        def both():
            if plain_first:
                plain = serve(wl, ctx, inputs)
            with tracer.request():
                traced = serve(wl, ctx, inputs)
            if not plain_first:
                plain = serve(wl, ctx, inputs)
            return plain, traced

        ((out, plain_s, error), (t_out, traced_s, t_error)), scale = probe.around(both)
        record = tracer.snapshot(scale)
        record["total_ms"] = traced_s * scale * 1e3
        record["overhead"] = traced_s / plain_s
        records.append(record)
        found, dig = judge(wl, ctx, inputs, i, out, error)
        t_found, t_dig = judge(wl, ctx, inputs, i, t_out, t_error)
        found += [f"traced: {p}" for p in t_found]
        if t_dig != dig:
            found.append("traced output differs from the untraced output")
        tally.add(i, dig, found)
        i += 1
    return records, tally


def layer_metrics(records, modelled):
    from spans import LAYER_METRICS, layer_unit
    from workloads import ARCHS

    def value(rec, name):
        if name == "trace.overhead_ratio":
            return rec["overhead"]
        if name == "archsim.sim_cycles_per_s":
            run_ms = rec["incl_ms"].get("archsim.run", 0.0)
            return rec["sim_cycles"] / (run_ms / 1e3) if run_ms else 0.0
        if name.endswith(".calls"):
            return rec["calls"].get(name[: -len(".calls")], 0)
        return rec["self_ms"].get(name[: -len(".self_ms")], 0.0)

    metrics = {}
    for name in LAYER_METRICS:
        parts = name.split(".")
        if parts[0] == "archsim" and parts[-1] in ARCHS:
            v = modelled[parts[-1]][parts[1]]
        else:
            # counts repeat exactly across requests; median_low keeps them whole
            median = statistics.median_low if name.endswith(".calls") else statistics.median
            v = median(value(rec, name) for rec in records)
        metrics[name] = {"value": v, "unit": layer_unit(name)}
    return metrics


def self_time_shares(records, target):
    """Median self time of each layer as a share of the median traced
    request, grouped into the workload's target layers and one group per
    other module; the rest is the benchmark's own glue."""
    total = statistics.median(r["total_ms"] for r in records)
    layers = sorted({k for r in records for k in r["self_ms"]})
    shares = {k: statistics.median(r["self_ms"].get(k, 0.0) for r in records) / total
              for k in layers}
    groups = {"target": 0.0}
    for k, s in shares.items():
        key = "target" if k.startswith(target) else k.split(".")[0]
        groups[key] = groups.get(key, 0.0) + s
    groups["untraced_glue"] = 1.0 - sum(groups.values())
    largest = max(groups, key=groups.get)
    return {"layers": shares, "groups": groups, "target": list(target),
            "target_is_largest": largest == "target"}


def end_to_end_metrics(wl, times, setup_s, tally, detail):
    raw_ms = [r * 1e3 for r, _ in times]
    lat_ms = [s * 1e3 for _, s in times]
    tail_ms, tail_pct, beyond = latency_tail(lat_ms)
    attempted = len(times)
    detail.update(latency_samples=attempted, latency_tail_pct=tail_pct,
                  latency_tail_beyond=beyond, raw_latency_p50_ms=statistics.median(raw_ms),
                  raw_latency_tail_ms=latency_tail(raw_ms)[0])
    values = {
        "frames_per_s": wl.frames_per_request * attempted / (sum(lat_ms) / 1e3),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_ratio": (attempted - tally.failed) / attempted,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def main(argv=None):
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS, digest
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    probe = SpeedProbe()
    ctx, setup_s, setup_facts, setup_problems = set_up(wl, args.seed, probe)
    if args.trace:
        records, tally = run_traced(wl, ctx, args.seed, args.seconds, probe)
        attempted = len(records)
    else:
        times, tally = run_untraced(wl, ctx, args.seed, args.seconds, probe)
        attempted = len(times)

    detail = {
        "workload": wl.name,
        "trace": args.trace,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "requests": attempted,
        "frames_per_request": wl.frames_per_request,
        "digest": digest([setup_facts["warmup_digest"], setup_facts["modelled_digest"]]
                         + tally.digests[:DIGEST_REQUESTS]),
        "digest_requests": DIGEST_REQUESTS,
        "failed_ops_ratio": tally.failed / attempted,
        "problems": [p[:300] for p in (setup_problems + tally.problems)[:20]],
        "setup": setup_facts,
        "speed_factor": {"median": statistics.median(probe.factors),
                         "min": min(probe.factors), "max": max(probe.factors)},
        "machine": machine_facts(),
    }
    if args.trace:
        metrics = layer_metrics(records, setup_facts["modelled"])
        detail["self_time_share"] = self_time_shares(records, wl.target)
    else:
        metrics = end_to_end_metrics(wl, times, setup_s, tally, detail)
    detail["metrics"] = metrics

    correct = not setup_problems and tally.failed == 0
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
