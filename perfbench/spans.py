"""Per-layer tracing for the polarsc benchmark, done from outside the package.

While a traced request runs, the package's public entry points are replaced
by timing wrappers on the module (or class) where their callers look them
up; afterwards the originals are restored. Nothing under ``src/`` changes,
and untraced requests run the package untouched.

A span's self time is its duration minus the time of the spans it encloses.
``llr.f``, ``llr.g`` and ``igc.selection_bits`` are counted but not timed,
because a timer around every tree node would cost more than the node; their
time stays in the enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

from polarsc import archsim, channel, igc, llr
from workloads import ARCHS, MODES

LAYER_METRICS = (
    ["code.encode.calls", "code.encode.self_ms",
     "channel.trial_rng.calls", "channel.trial_rng.self_ms", "channel.ber_sweep.self_ms",
     "llr.quantize.self_ms"]
    + [f"llr.sc_decode_batch.{m}.self_ms" for m in MODES]
    + ["llr.f.calls", "llr.g.calls", "llr.sc_decode.self_ms",
       "schedule.build.calls", "schedule.build.self_ms",
       "igc.push.calls", "igc.push.self_ms", "igc.selection_bits.calls",
       "archsim.run.calls", "archsim.run.self_ms", "archsim.sim_cycles_per_s",
       "archsim.verify_equivalence.self_ms",
       "gates.merged_pe.calls", "gates.merged_pe.self_ms"]
    + [f"archsim.{stat}.{arch}" for stat in ("cycles", "buffer_peak", "pe_activations")
       for arch in ARCHS]
    + ["trace.overhead_ratio"]
)


def layer_unit(name):
    if name.endswith(".calls") or ".pe_activations." in name:
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if ".cycles." in name:
        return "cycles"
    if ".buffer_peak." in name:
        return "pairs"
    return "ratio"


def _named(name):
    return lambda args, kwargs: name


def _by_mode(args, kwargs):
    mode = kwargs["mode"] if "mode" in kwargs else args[2]
    return f"llr.sc_decode_batch.{mode}"


class Tracer:
    """Self time, inclusive time and call count per layer, for one request
    at a time."""

    def __init__(self):
        self._reset()

    def _reset(self):
        self._stack = []  # per open span, the time its child spans took
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.sim_cycles = 0

    def _span(self, name_of, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            self.calls[name] += 1
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - t0
                self.self_s[name] += took - self._stack.pop()
                self.incl_s[name] += took
                if self._stack:
                    self._stack[-1] += took
            if after is not None:
                after(result)
            return result
        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_run(self, result):
        self.sim_cycles += result.cycles_elapsed

    def _plan(self):
        """(owner, attribute, wrap) for every traced entry point."""
        span, count = self._span, self._count
        plan = [
            (channel, "ber_sweep", lambda f: span(_named("channel.ber_sweep"), f)),
            (channel, "trial_rng", lambda f: span(_named("channel.trial_rng"), f)),
            (channel, "encode", lambda f: span(_named("code.encode"), f)),
            (archsim, "verify_equivalence",
             lambda f: span(_named("archsim.verify_equivalence"), f)),
            (archsim, "run", lambda f: span(_named("archsim.run"), f, self._after_run)),
            (archsim, "build_conventional", lambda f: span(_named("schedule.build"), f)),
            (archsim, "build_lookahead", lambda f: span(_named("schedule.build"), f)),
            (archsim, "merged_pe", lambda f: span(_named("gates.merged_pe"), f)),
            (igc.PartialSumState, "push", lambda f: span(_named("igc.push"), f)),
            (igc.PartialSumState, "selection_bits",
             lambda f: count("igc.selection_bits", f)),
            (llr, "sc_decode", lambda f: span(_named("llr.sc_decode"), f)),
            (llr, "f_exact", lambda f: count("llr.f", f)),
            (llr, "f_minsum", lambda f: count("llr.f", f)),
            (llr, "g_update", lambda f: count("llr.g", f)),
        ]
        for owner in (channel, archsim):
            plan.append((owner, "quantize", lambda f: span(_named("llr.quantize"), f)))
            plan.append((owner, "sc_decode_batch", lambda f: span(_by_mode, f)))
        return plan

    @contextlib.contextmanager
    def request(self):
        """Trace one request: counters start from zero, wrappers are in
        place inside the block and removed when it exits."""
        self._reset()
        originals = []
        try:
            for owner, attr, wrap in self._plan():
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, wrap(fn))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def snapshot(self, scale=1.0):
        """Plain-dict copy of the counters of the last traced request, with
        times in milliseconds multiplied by ``scale``."""
        return {
            "self_ms": {k: v * scale * 1e3 for k, v in self.self_s.items()},
            "incl_ms": {k: v * scale * 1e3 for k, v in self.incl_s.items()},
            "calls": dict(self.calls),
            "sim_cycles": self.sim_cycles,
        }
