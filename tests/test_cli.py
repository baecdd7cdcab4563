"""Command-line surface: subcommands, formats, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CMD = [sys.executable, "-m", "polarsc"]
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(CMD + list(args), capture_output=True, text=True, env=env)


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestEncode:
    def test_fixed_message_json(self):
        out = run_cli("encode", "--n", "4", "--k", "2", "--message", "1,1")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["codeword"] == [0, 1, 0, 1]
        assert payload["spec"]["frozen"] == [1, 2]

    def test_csv_format(self):
        out = run_cli("encode", "--n", "4", "--k", "2", "--message", "1,1",
                      "--format", "csv")
        rows = parse_csv(out.stdout)
        assert rows[0] == ["index", "bit"]
        assert [r[1] for r in rows[1:]] == ["0", "1", "0", "1"]

    def test_bad_message_exits_1(self):
        out = run_cli("encode", "--n", "4", "--k", "2", "--message", "1,2")
        assert out.returncode == 1


class TestDecode:
    def test_inline_llrs(self):
        out = run_cli("decode", "--n", "4", "--k", "2", "--mode", "minsum",
                      "--llrs", "50,-50,50,-50")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["mode"] == "minsum"
        assert len(payload["u_hat"]) == 4

    def test_quantized_mode(self):
        out = run_cli("decode", "--n", "8", "--k", "4", "--mode", "minsum-q",
                      "--q", "5", "--llrs", "9,-9,9,9,-9,9,9,9")
        payload = json.loads(out.stdout)
        assert payload["q"] == 5

    def test_missing_input_exits_1(self):
        assert run_cli("decode", "--n", "4", "--k", "2").returncode == 1


class TestTimechart:
    def test_lookahead_csv(self):
        out = run_cli("timechart", "--n", "8", "--arch", "lookahead",
                      "--format", "csv")
        rows = parse_csv(out.stdout)
        assert rows[0] == ["cycle", "stage", "pe_type", "active_pes"]
        assert len(rows) == 8  # header + 7 cycles
        assert rows[1] == ["1", "1", "Merged_fg", "4"]

    def test_conventional_length(self):
        out = run_cli("timechart", "--n", "16", "--arch", "conventional")
        payload = json.loads(out.stdout)
        assert len(payload["cycles"]) == 30


class TestActivity:
    def test_table_csv(self):
        out = run_cli("activity", "--n", "8", "--format", "csv")
        rows = parse_csv(out.stdout)
        assert rows[0] == ["stream", "cycle", "active_pes"]
        c1 = [r[2] for r in rows[1:] if r[0] == "C1"]
        assert c1 == ["4", "0", "2", "1", "1", "2", "1", "1"]


class TestSimulate:
    def test_single_frame(self):
        out = run_cli("simulate", "--n", "8", "--k", "4", "--arch", "lookahead",
                      "--seed", "3")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["cycles"] == 7
        assert len(payload["u_hat"][0]) == 8

    def test_campaign_and_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        out = run_cli("simulate", "--n", "8", "--k", "4", "--arch", "parallel2",
                      "--seed", "1", "--ebn0", "1.0", "--trace", str(trace))
        assert out.returncode == 0
        rows = parse_csv(trace.read_text())
        assert rows[0] == ["cycle", "stream", "stage", "pe_index", "op",
                           "inputs", "outputs", "select_bit"]
        assert len(rows) > 1

    def test_equivalence_campaign(self):
        out = run_cli("simulate", "--n", "16", "--k", "8", "--arch", "lookahead",
                      "--seed", "5", "--trials", "10", "--ebn0", "1.0")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["passed"] is True

    def test_json_is_the_only_format(self):
        out = run_cli("simulate", "--n", "8", "--format", "csv")
        assert out.returncode == 1
        assert out.stderr.startswith("usage:")
        assert "invalid choice: 'csv'" in out.stderr
        out = run_cli("simulate", "--n", "8", "--format", "json")
        assert out.returncode == 0
        assert json.loads(out.stdout)["cycles"] == 7

    @pytest.mark.parametrize("arch", ["conventional", "lookahead", "parallel2"])
    @pytest.mark.parametrize("seed, ebn0", [(0, None), (7, "0"), (3, "1.5"), (11, "-2")])
    def test_single_run_is_the_campaigns_trial_0(self, capsys, arch, seed, ebn0):
        # one channel rule: a single run decodes the frames of a campaign's
        # first trial, at 0 dB when --ebn0 is not given
        from polarsc import cli, make_code_spec, quantize
        from polarsc.archsim import SimConfig, decode_frames
        from polarsc.channel import BPSK_AWGN, ChannelConfig, trial_chunks

        argv = ["simulate", "--n", "16", "--k", "8", "--arch", arch, "--seed", str(seed)]
        assert cli.main(argv + ([] if ebn0 is None else ["--ebn0", ebn0])) == cli.EXIT_OK
        u_hat = json.loads(capsys.readouterr().out)["u_hat"]
        spec = make_code_spec(16, 8)
        config = SimConfig(spec=spec, q=6, architecture=arch)
        streams = len(config.schedule[0])
        cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=float(ebn0 or 0), master_seed=seed)
        _, _, llrs = next(trial_chunks(spec, [cfg], 1, per_trial=streams))
        assert u_hat == decode_frames(config, quantize(llrs, 6))[0].tolist()

    def test_trace_with_a_campaign_rejected(self, tmp_path):
        trace = tmp_path / "trace.csv"
        out = run_cli("simulate", "--n", "16", "--trials", "3", "--trace", str(trace))
        assert out.returncode == 1
        assert out.stderr.startswith("error:")
        assert "--trace" in out.stderr and "--trials" in out.stderr
        assert not trace.exists()


class TestBer:
    def test_noiseless_zero_errors(self):
        out = run_cli("ber", "--n", "16", "--k", "8", "--mode", "minsum",
                      "--noiseless", "--trials", "5", "--ebn0", "0")
        results = json.loads(out.stdout)
        assert all(r["ber"] == 0.0 for r in results)

    def test_noiseless_extreme_ebn0(self):
        # the noiseless channel has no noise variance to go out of range
        out = run_cli("ber", "--n", "8", "--trials", "2", "--noiseless", "--ebn0", "4000")
        assert out.returncode == 0
        (result,) = json.loads(out.stdout)
        assert (result["ebn0_db"], result["bit_errors"], result["frame_errors"]) == (4000, 0, 0)

    def test_csv_output(self):
        out = run_cli("ber", "--n", "8", "--k", "4", "--mode", "minsum",
                      "--trials", "5", "--ebn0", "0,2", "--format", "csv")
        rows = parse_csv(out.stdout)
        assert rows[0][0] == "mode"
        assert len(rows) == 3  # header + 2 points


class TestCost:
    def test_both_designs_json(self):
        out = run_cli("cost", "--n", "1024", "--q", "6")
        reports = json.loads(out.stdout)
        designs = {r["design"]: r for r in reports}
        assert designs["proposed"]["latency"] == 1024
        assert designs["line_reference"]["latency"] == 2046
        assert designs["proposed"]["pe"]["xor"] == 54

    def test_csv_lines(self):
        out = run_cli("cost", "--n", "64", "--q", "4", "--design", "proposed",
                      "--format", "csv")
        rows = parse_csv(out.stdout)
        assert rows[0] == ["design", "line", "value"]
        lines = {r[1]: r[2] for r in rows[1:]}
        assert lines["merged_pes"] == "32"


class TestIgcTrace:
    def test_csv_trace(self):
        out = run_cli("igc-trace", "--n", "8", "--bits", "1,0,1,1,0,0,1,0",
                      "--format", "csv")
        rows = parse_csv(out.stdout)
        assert rows[0] == ["decision_index", "stage", "bits"]
        by_index = {int(r[0]): (int(r[1]), r[2]) for r in rows[1:]}
        assert by_index[1] == (3, "1")
        assert by_index[4] == (1, "1101")

    def test_json_includes_network(self):
        out = run_cli("igc-trace", "--n", "8", "--seed", "2")
        payload = json.loads(out.stdout)
        assert payload["network"]["xor_elements"] == 3


class TestContract:
    def test_unknown_flag_exits_1(self):
        assert run_cli("timechart", "--bogus").returncode == 1

    def test_equivalence_failure_exits_2(self, monkeypatch):
        from polarsc import cli
        from polarsc.archsim import EquivalenceReport

        def fake_verify(config, trials, seed, ebn0_db, scale):
            return EquivalenceReport(
                architecture=config.architecture, n=config.spec.n_bits,
                q=config.q, trials=trials, matches=trials - 1, mismatches=1,
                first_divergence={"trial": 0},
            )

        monkeypatch.setattr(cli.archsim, "verify_equivalence", fake_verify)
        code = cli.main(["simulate", "--n", "8", "--k", "4", "--trials", "5",
                         "--out", "/dev/null"])
        assert code == 2

    @pytest.mark.parametrize("arch, damaged", [
        ("lookahead", "decision"), ("parallel2", "decision"),
        ("lookahead", "decision_llr"), ("parallel2", "decision_llr"),
    ], ids=["lookahead", "parallel2", "lookahead-llr", "parallel2-llr"])
    def test_single_run_divergence_exits_2(self, monkeypatch, capsys, arch, damaged):
        # one run (no --trials) checks its own streams' decisions and decision
        # LLRs against the reference
        from polarsc import cli, llr

        decode = llr.sc_decode_batch

        def flipped(q_llrs, *args, **kwargs):
            u_hat, llrs = decode(q_llrs, *args, **kwargs)
            if damaged == "decision":
                u_hat[-1, 3] ^= 1  # the last stream's fourth decision
            else:
                llrs[-1, 3] += 1  # its decision LLR; every decision stays right
            return u_hat, llrs

        monkeypatch.setattr(llr, "sc_decode_batch", flipped)
        code = cli.main(["simulate", "--n", "8", "--k", "4", "--arch", arch,
                         "--ebn0", "1"])
        out, err = capsys.readouterr()
        assert code == 2
        stream = 2 if arch == "parallel2" else 1
        assert err == (f"equivalence failure: stream {stream} diverged from the "
                       f"functional decoder\n")
        assert out == ""

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("ber", "--n", "16", "--k", "8", "--mode", "minsum",
                "--trials", "10", "--ebn0", "0,1", "--seed", "9")
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_out_file_has_unix_line_endings(self, tmp_path):
        path = tmp_path / "chart.csv"
        run_cli("timechart", "--n", "4", "--arch", "lookahead",
                "--format", "csv", "--out", str(path))
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8").startswith("cycle,stage")


    @pytest.mark.parametrize("n", [4096, 4], ids=["past-pipe-buffer", "buffered"])
    def test_closed_stdout_exits_1_without_traceback(self, n):
        # stdout is a pipe with no reader: ~434 KB of JSON at N=4096 fails in
        # the write, a small chart only when stdout is flushed
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(CMD + ["timechart", "--n", str(n)], env=env,
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestBadInput:
    """Bad input exits 1 with an ``error:`` line, never with a traceback."""

    def main(self, capsys, *argv):
        from polarsc import cli

        code = cli.main(list(argv))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def test_missing_input_file(self, capsys, tmp_path):
        code, err = self.main(capsys, "decode", "--n", "4", "--k", "2",
                              "--in", str(tmp_path / "missing.json"))
        assert code == 1 and err.startswith("error:")

    def test_non_numeric_json_input(self, capsys, tmp_path):
        path = tmp_path / "llrs.json"
        path.write_text('["a", 1, 2, 3]')
        code, err = self.main(capsys, "decode", "--n", "4", "--k", "2", "--in", str(path))
        assert code == 1 and err.startswith("error:")

    def test_unwritable_out_path(self, capsys, tmp_path):
        code, err = self.main(capsys, "timechart", "--n", "4",
                              "--out", str(tmp_path / "no_such_dir" / "chart.json"))
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("mode", ["exact", "minsum", "minsum-q"])
    def test_nan_llr_rejected(self, capsys, mode):
        code, err = self.main(capsys, "decode", "--n", "4", "--k", "2",
                              "--mode", mode, "--llrs", "nan,1,2,3")
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("cost", "--n", "8", "--q", "55"),
        ("decode", "--n", "4", "--k", "2", "--mode", "minsum-q", "--q", "55",
         "--llrs", "1,2,3,4"),
        ("ber", "--n", "8", "--ebn0", "1,x"),
        ("simulate", "--n", "8", "--ebn0", "x"),
        ("encode", "--n", "8", "--seed", "-1"),
        ("simulate", "--n", "8", "--trials", "0"),
        ("simulate", "--n", "8", "--trials", "-3"),
        ("ber", "--n", "8", "--trials", "0"),
        ("ber", "--n", "8", "--trials", "-1"),
        ("ber", "--n", "16", "--mode", "minsum-q", "--ebn0", "3", "--scale", "-2"),
        ("ber", "--n", "16", "--mode", "minsum-q", "--ebn0", "3", "--scale", "0"),
        ("decode", "--n", "4", "--k", "2", "--mode", "minsum-q", "--scale", "inf",
         "--llrs", "1,2,3,4"),
        # no quantizer runs in these modes, yet the scale is checked
        ("ber", "--n", "16", "--mode", "exact", "--ebn0", "3", "--scale", "-2",
         "--trials", "5"),
        ("decode", "--n", "4", "--k", "2", "--mode", "exact", "--scale", "0",
         "--llrs", "1,2,3,4"),
        ("decode", "--n", "4", "--k", "2", "--mode", "exact", "--q", "55",
         "--llrs", "1,2,3,4"),
        ("ber", "--n", "8", "--ebn0", ","),
        ("ber", "--n", "8", "--ebn0", ""),
        # the noise variance of these points is outside the float range
        ("ber", "--n", "8", "--trials", "2", "--ebn0", "4000"),
        ("ber", "--n", "8", "--trials", "2", "--ebn0=-4000"),
        ("simulate", "--n", "8", "--trials", "2", "--ebn0", "4000"),
        # N is checked before anything is built or drawn from it
        ("igc-trace", "--n", "-8"),
        ("activity", "--n", "6"),
        ("cost", "--n", "6"),
        # an empty value is a value, and --seed is checked even when unused
        ("encode", "--n", "8", "--message", ""),
        ("igc-trace", "--n", "8", "--bits", ""),
        ("simulate", "--n", "8", "--ebn0", ""),
        ("simulate", "--n", "8", "--trials", "3", "--ebn0", ""),
        ("decode", "--n", "4", "--k", "2", "--llrs", ""),
        ("decode", "--n", "4", "--k", "2", "--llrs", "1,2,3,4", "--in", "no-such-llrs.txt"),
        ("encode", "--n", "4", "--k", "2", "--message", "1,0", "--seed", "-1"),
        ("igc-trace", "--n", "4", "--bits", "1,0,1,1", "--seed", "-1"),
    ], ids=["cost-q55", "decode-q55", "ber-ebn0", "simulate-ebn0", "negative-seed",
            "simulate-zero-trials", "simulate-negative-trials", "ber-zero-trials",
            "ber-negative-trials", "ber-negative-scale", "ber-zero-scale",
            "decode-infinite-scale", "ber-exact-negative-scale", "decode-exact-zero-scale",
            "decode-exact-q55", "ber-ebn0-no-number", "ber-ebn0-empty", "ber-ebn0-overflow",
            "ber-ebn0-underflow", "simulate-ebn0-overflow", "igc-trace-negative-n",
            "activity-n6", "cost-n6", "encode-empty-message", "igc-trace-empty-bits",
            "simulate-ebn0-empty", "simulate-campaign-ebn0-empty", "decode-empty-llrs",
            "decode-llrs-and-in", "encode-message-negative-seed",
            "igc-trace-bits-negative-seed"])
    def test_bad_numbers_exit_1(self, capsys, argv):
        assert self.main(capsys, *argv)[0] == 1

    def test_q54_accepted(self, capsys):
        assert self.main(capsys, "cost", "--n", "8", "--q", "54")[0] == 0
