"""Generated command lines: whatever the flags, ``cli.main`` answers with an
exit code and an ``error:`` line, never a traceback, a warning or a NaN.

Every subcommand has a valid command line with small sizes. Each edge value
of each of its flags is tried once in that line; then hypothesis draws
combinations of flags, each value from the flag's edge list or from a
strategy, in the QuickCheck style (Claessen & Hughes, ICFP 2000). So most
values meet a run that would otherwise succeed, and no run takes the larger
defaults of ``ber``.
"""

import contextlib
import io
import re
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polarsc import cli

_NUMBER = st.floats(allow_nan=True, allow_infinity=True).map(repr)
_LIST = st.lists(st.one_of(_NUMBER, st.integers(-3, 3).map(str)), max_size=9).map(",".join)
_BITS = st.lists(st.integers(-1, 2).map(str), max_size=9).map(",".join)

# per flag: edge values, then a strategy for the rest
FLAGS = {
    "--n": (["0", "1", "2", "3", "-8", "8.0", "x", "", "4", "8", "16"],
            st.integers(-4, 33).map(str)),
    "--k": (["0", "1", "2", "4", "8", "9", "-1", "x", ""], st.integers(-2, 17).map(str)),
    "--erasure": (["0.5", "0", "1", "-0.1", "nan", "inf", "x", ""], _NUMBER),
    "--q": (["0", "1", "2", "6", "54", "55", "-3", "x", ""], st.integers(-2, 60).map(str)),
    "--scale": (["0", "-1", "nan", "inf", "1e300", "1e308", "1e-320", "0.5", ""], _NUMBER),
    "--seed": (["0", "7", "-1", "x", "", str(2**64)], st.integers(-2, 2**70).map(str)),
    "--trials": (["0", "1", "2", "3", "-1", "x", ""], st.integers(-3, 4).map(str)),
    "--ebn0": (["nan", "1,,2", "1e308", "0x10", "", ",", "3", "-4000", "4000", "inf"],
               _LIST),
    "--message": (["", "1,0", "1,1,0,0", "1 0 1 1", "2", "x", "1.0", "1,0,1,1,0,0,1,0"],
                  _BITS),
    "--bits": (["", "1,0,1,1", "1,0,1,1,0,0,1,0", "2", "x", "-1"], _BITS),
    "--llrs": (["", "1,2,3,4", "1e308,-1e308,1,1", "nan,1,2,3", "inf,-inf,1,2",
                "1e400,-1e400,0,0,0,0,0,0", "1,2,3,4,5,6,7,8", "x"], _LIST),
    # the content of the --in file; None leaves it missing, bytes are not UTF-8
    "--in": (["[1,2,3,4]", "1 2 3 4", '["a"]', "", "[1e400, 0, 0, 0]", "[1e308,1e308,-1,1]",
              None, b"\xff\xfe"], _LIST),
    "--mode": (["exact", "minsum", "minsum-q", "x"], st.nothing()),
    "--arch": (["conventional", "lookahead", "parallel2", "x"], st.nothing()),
    "--format": (["json", "csv", "x"], st.nothing()),
    "--design": (["proposed", "reference", "both", "x"], st.nothing()),
    "--noiseless": ([None], st.nothing()),
    # output paths; "missing" names a directory that does not exist
    "--out": (["out.txt", "missing/out.txt"], st.nothing()),
    "--trace": (["trace.csv", "missing/trace.csv"], st.nothing()),
}

COMMON = ["--n", "--out", "--format"]
CODE = ["--k", "--erasure"]
QUANT = ["--q", "--scale"]
# per subcommand: a valid command line that the drawn flags override, then
# the flags it takes
SUBCOMMANDS = {
    "encode": ({"--n": "8"}, COMMON + CODE + ["--message", "--seed"]),
    "decode": ({"--n": "4", "--llrs": "1,-2,3,-4"},
               COMMON + CODE + QUANT + ["--mode", "--llrs", "--in"]),
    "timechart": ({"--n": "8"}, COMMON + ["--arch"]),
    "activity": ({"--n": "8"}, COMMON),
    "simulate": ({"--n": "8", "--trials": "1"},
                 COMMON + CODE + QUANT + ["--arch", "--seed", "--trials", "--ebn0", "--trace"]),
    "ber": ({"--n": "8", "--trials": "2", "--ebn0": "1"},
            COMMON + CODE + QUANT + ["--mode", "--arch", "--ebn0", "--trials", "--seed",
                                     "--noiseless"]),
    "cost": ({"--n": "8"}, COMMON + ["--q", "--design"]),
    "igc-trace": ({"--n": "8"}, COMMON + ["--bits", "--seed"]),
}

VALUES = {flag: st.one_of(st.sampled_from(edges), other) for flag, (edges, other) in FLAGS.items()}
NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _line(command, drawn):
    """The subcommand's valid command line with the ``drawn`` flags in place."""
    base = SUBCOMMANDS[command][0]
    if "--in" in drawn and "--llrs" not in drawn:
        base = {}  # read the LLRs from the file alone
    return {**base, **drawn}


def _check(tmp_path, command, flags):
    argv = [command]
    for flag, value in flags.items():
        if flag == "--noiseless":
            argv.append(flag)
            continue
        if flag in ("--out", "--trace"):
            value = str(tmp_path / value)
        elif flag == "--in":
            path = tmp_path / "in.txt"
            path.unlink(missing_ok=True)
            if isinstance(value, bytes):
                path.write_bytes(value)
            elif value is not None:
                path.write_text(value, encoding="utf-8")
            value = str(path)
        argv.append(f"{flag}={value}")  # "=" keeps a value such as "-1" a value
    written = [tmp_path / "out.txt", tmp_path / "trace.csv"]
    for path in written:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            raise AssertionError(f"{argv}: {exc!r} escaped main") from exc
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 0:
        texts = [out.getvalue()] + [p.read_text(encoding="utf-8") for p in written if p.exists()]
        assert not any(NOT_FINITE.search(t) for t in texts), argv


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_every_edge_value_of_every_flag(tmp_path, command):
    for flag in SUBCOMMANDS[command][1]:
        for value in FLAGS[flag][0]:
            _check(tmp_path, command, _line(command, {flag: value}))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    flags = draw(st.lists(st.sampled_from(SUBCOMMANDS[command][1]), max_size=4))
    return command, _line(command, {flag: draw(VALUES[flag]) for flag in flags})


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines())
def test_flag_combinations(tmp_path, line):
    _check(tmp_path, *line)
