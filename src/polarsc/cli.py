"""Command-line surface tying the toolkit together.

Subcommands: encode, decode, timechart, activity, simulate, ber, cost,
igc-trace. Output is JSON or CSV (UTF-8, comma separator, header row, \\n
line endings) to stdout or --out; simulate writes JSON only. Exit codes:
0 success, 1 invalid parameters, 2 internal equivalence failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import archsim, channel, cost, igc, llr, schedule
from .code import make_code_spec, encode as encode_bits
from .errors import EquivalenceError, InvalidParameterError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_EQUIVALENCE = 2

_MODE_MAP = {
    "exact": llr.MODE_EXACT,
    "minsum": llr.MODE_MINSUM,
    "minsum-q": llr.MODE_MINSUM_Q,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # equivalence failures, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidParameterError(message)


def _write_file(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc.strerror}") from exc


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, payload, header, rows):
    """Write ``payload`` as indented JSON, or ``header`` and ``rows`` as a CSV
    table, as --format asks, to --out or else stdout."""
    text = json.dumps(payload, indent=2) if args.format == "json" else _csv_text(header, rows)
    if args.out is not None:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _parse_bits(text):
    try:
        bits = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InvalidParameterError(f"bad bit list: {exc}") from exc
    if any(b not in (0, 1) for b in bits):
        raise InvalidParameterError("bit lists may only contain 0 and 1")
    return bits


def _parse_float(text):
    try:
        return float(text)
    except ValueError as exc:
        raise InvalidParameterError(f"bad number: {text!r}") from exc


def _parse_floats(text):
    return [_parse_float(tok) for tok in text.replace(",", " ").split()]


def _bits_or_random(text, seed, size):
    """The bits of ``text``, or else trial 0's ``size`` random bits of ``seed``."""
    rng = channel.trial_rng(seed, 0)  # checks the seed even when bits are given
    if text is None:
        return rng.integers(0, 2, size=size).tolist()
    return _parse_bits(text)


def _load_llrs(args):
    """The LLRs of --llrs, or else of the file that --in names."""
    if args.llrs is not None:
        return _parse_floats(args.llrs)
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    except (OSError, UnicodeError) as exc:
        raise InvalidParameterError(f"cannot read {args.infile}: {exc}") from exc
    if not text.startswith("["):
        return _parse_floats(text)
    try:
        return [float(v) for v in json.loads(text)]
    except (ValueError, TypeError) as exc:
        raise InvalidParameterError(f"bad JSON number list in {args.infile}: {exc}") from exc


def _spec_from_args(args):
    k = args.n // 2 if args.k is None else args.k
    return make_code_spec(args.n, k, design_erasure=args.erasure)


def _cmd_encode(args):
    spec = _spec_from_args(args)
    message = _bits_or_random(args.message, args.seed, spec.k_info)
    codeword = encode_bits(message, spec)
    payload = {
        "spec": spec.to_json_dict(),
        "message": [int(b) for b in message],
        "codeword": [int(b) for b in codeword],
    }
    _emit(args, payload, ("index", "bit"), [(i + 1, int(b)) for i, b in enumerate(codeword)])


def _cmd_decode(args):
    spec = _spec_from_args(args)
    llrs = np.asarray(_load_llrs(args))
    mode = _MODE_MAP[args.mode]
    llr.qmax(args.q)
    llr.require_scale(args.scale)
    q = args.q if mode == llr.MODE_MINSUM_Q else None
    if q is not None:
        llrs = llr.quantize(llrs, q, args.scale)
    trace = llr.sc_decode(llrs, spec, mode, q=q)
    rows = [
        (i + 1, int(u), float(v))
        for i, (u, v) in enumerate(zip(trace.u_hat, trace.decision_llrs))
    ]
    _emit(args, trace.to_json_dict(), ("index", "u_hat", "decision_llr"), rows)


def _cmd_timechart(args):
    conventional = args.arch == schedule.CONVENTIONAL
    chart = (schedule.build_conventional if conventional else schedule.build_lookahead)(args.n)
    _emit(args, chart.to_json_dict(), ("cycle", "stage", "pe_type", "active_pes"),
          chart.to_rows())


def _cmd_activity(args):
    table = archsim.parallel_activity_table(args.n)
    _emit(args, table.to_json_dict(), ("stream", "cycle", "active_pes"), table.to_rows())


def _cmd_simulate(args):
    ebn0_db = _parse_float(args.ebn0)
    if args.trace is not None and args.trials > 1:
        raise InvalidParameterError("--trace records a single run; use it with --trials 1")
    spec = _spec_from_args(args)
    config = archsim.SimConfig(
        spec=spec, q=args.q, architecture=args.arch,
        record_trace=args.trace is not None,
    )
    if args.trials != 1:  # verify_equivalence rejects a count below 1
        report = archsim.verify_equivalence(
            config, trials=args.trials, seed=args.seed,
            ebn0_db=ebn0_db, scale=args.scale,
        )
        _emit(args, report.to_json_dict(), None, None)
        if not report.passed:
            raise EquivalenceError(
                f"{report.mismatches} of {report.trials} trials diverged"
            )
        return
    cfg = channel.ChannelConfig(kind=channel.BPSK_AWGN, ebn0_db=ebn0_db, master_seed=args.seed)
    frames = len(config.schedule[0])  # one per stream: the campaign's trial 0
    _, float_llrs = channel.draw_trials(spec, cfg, frames)
    q_llrs = llr.quantize(float_llrs, args.q, args.scale)
    result = archsim.run(config, list(q_llrs))
    reference, ref_llrs = llr.sc_decode_batch(q_llrs, spec, llr.MODE_MINSUM_Q, q=args.q)
    _, first = archsim.divergence(np.stack(result.decisions), np.stack(result.decision_llrs),
                                  reference, ref_llrs, frames)
    if first is not None:
        raise EquivalenceError(f"stream {first['stream'] + 1} diverged from the functional decoder")
    if args.trace is not None:
        _write_file(args.trace, _csv_text(archsim.TRACE_HEADER, result.trace))
    _emit(args, result.to_json_dict(), None, None)


def _cmd_ber(args):
    spec = _spec_from_args(args)
    modes = [_MODE_MAP[m] for m in args.mode] if args.mode else []
    archs = args.arch or []
    if not modes and not archs:
        modes = [llr.MODE_MINSUM]
    points = _parse_floats(args.ebn0)
    if not points:
        raise InvalidParameterError(f"--ebn0 needs at least one number, got {args.ebn0!r}")
    kind = channel.NOISELESS if args.noiseless else channel.BPSK_AWGN
    results = channel.ber_sweep(
        spec, modes, archs, points, trials=args.trials, seed=args.seed,
        channel_kind=kind, q=args.q, scale=args.scale,
    )
    header = ("mode", "architecture", "q", "ebn0_db", "trials", "bit_errors",
              "frame_errors", "ber", "fer")
    rows = [
        (r.mode, r.architecture, r.q if r.q is not None else "", r.ebn0_db,
         r.trials, r.bit_errors, r.frame_errors, r.ber, r.fer)
        for r in results
    ]
    _emit(args, [r.to_json_dict() for r in results], header, rows)


def _cmd_cost(args):
    designs = {
        "proposed": [cost.PROPOSED],
        "reference": [cost.LINE_REFERENCE],
        "both": [cost.PROPOSED, cost.LINE_REFERENCE],
    }[args.design]
    reports = [cost.component_counts(d, args.n, args.q) for d in designs]
    rows = [(r.design, line, value) for r in reports for line, value in r.to_rows()]
    _emit(args, [r.to_json_dict() for r in reports], ("design", "line", "value"), rows)


def _cmd_igc_trace(args):
    state = igc.PartialSumState(args.n)  # validates N before any bit is drawn
    bits = _bits_or_random(args.bits, args.seed, args.n)
    if len(bits) != args.n:
        raise InvalidParameterError(f"need exactly {args.n} decision bits")
    rows = []
    for k, bit in enumerate(bits, start=1):
        state.push(int(bit), k)
        stage = igc.refreshed_stage(k, args.n)
        if stage >= 1:
            sel = state.selection_bits(stage)
            rows.append((k, stage, "".join(str(int(b)) for b in sel)))
    payload = {
        "network": igc.build_network(args.n).to_json_dict(),
        "updates": [{"decision_index": k, "stage": s, "bits": b} for k, s, b in rows],
    }
    _emit(args, payload, ("decision_index", "stage", "bits"), rows)


def _add_common(p, n_default=8, formats=("json", "csv")):
    p.add_argument("--n", type=int, default=n_default, help="code length N")
    p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=formats, default="json")


def _add_code(p):
    p.add_argument("--k", type=int, default=None, help="information bits K (default N/2)")
    p.add_argument("--erasure", type=float, default=0.5,
                   help="design erasure probability for the frozen set")


def _add_quant(p):
    p.add_argument("--q", type=int, default=6, help="quantizer width in bits")
    p.add_argument("--scale", type=float, default=1.0, help="quantizer scale factor")


def build_parser():
    parser = _Parser(prog="polarsc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a message (random if omitted)")
    _add_common(p)
    _add_code(p)
    p.add_argument("--message", type=str, default=None, help="comma-separated bits")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="functional SC decode of channel LLRs")
    _add_common(p)
    _add_code(p)
    _add_quant(p)
    p.add_argument("--mode", choices=tuple(_MODE_MAP), default="minsum")
    llrs = p.add_mutually_exclusive_group(required=True)
    llrs.add_argument("--llrs", type=str, default=None, help="comma-separated channel LLRs")
    llrs.add_argument("--in", dest="infile", type=str, default=None,
                      help="file with LLRs (JSON array or whitespace separated)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("timechart", help="emit a decoding time chart")
    _add_common(p)
    p.add_argument("--arch", choices=(schedule.CONVENTIONAL, schedule.LOOKAHEAD),
                   default=schedule.LOOKAHEAD)
    p.set_defaults(func=_cmd_timechart)

    p = sub.add_parser("activity", help="two-stream PE activity table")
    _add_common(p)
    p.set_defaults(func=_cmd_activity)

    p = sub.add_parser("simulate", help="cycle-accurate run with equivalence check")
    _add_common(p, formats=("json",))
    _add_code(p)
    _add_quant(p)
    p.add_argument("--arch", choices=schedule.ARCHITECTURES, default=schedule.LOOKAHEAD)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1,
                   help="> 1 runs a randomized equivalence campaign")
    p.add_argument("--ebn0", type=str, default="0",
                   help="Eb/N0 in dB of the BPSK/AWGN channel for any --trials "
                        "(300 or more reproduces a noiseless channel)")
    p.add_argument("--trace", type=str, default=None,
                   help="write a trace CSV here (needs --trials 1)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ber", help="Monte-Carlo BER/FER sweep")
    _add_common(p, n_default=128)
    _add_code(p)
    _add_quant(p)
    p.add_argument("--mode", action="append", choices=tuple(_MODE_MAP), default=None)
    p.add_argument("--arch", action="append", choices=schedule.ARCHITECTURES,
                   default=None)
    p.add_argument("--ebn0", type=str, default="0,1,2,3", help="comma list of dB points")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noiseless", action="store_true")
    p.set_defaults(func=_cmd_ber)

    p = sub.add_parser("cost", help="hardware consumption comparison tables")
    _add_common(p, n_default=1024)
    p.add_argument("--q", type=int, default=6)
    p.add_argument("--design", choices=("proposed", "reference", "both"), default="both")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("igc-trace", help="partial-sum network update trace")
    _add_common(p)
    p.add_argument("--bits", type=str, default=None, help="decision bits to push")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_igc_trace)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:  # the rest goes to devnull, so exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before all output was written", file=sys.stderr)
        return EXIT_INVALID
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except EquivalenceError as exc:
        print(f"equivalence failure: {exc}", file=sys.stderr)
        return EXIT_EQUIVALENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
