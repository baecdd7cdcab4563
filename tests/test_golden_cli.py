"""Golden output: the sha256 of stdout for a fixed set of in-process CLI calls,
and of the trace file ``simulate --trace`` writes.

The hashes pin the bytes each subcommand prints at equal seeds, so a
refactor of the channel, the decoders or the simulator that changes any
message, noise sample, decision, count or trace row fails here.
"""

import hashlib

import pytest

from polarsc import cli

_MODES = ["--mode", "exact", "--mode", "minsum", "--mode", "minsum-q"]
_ARCHS = ["--arch", "conventional", "--arch", "lookahead", "--arch", "parallel2"]

CASES = {
    "ber-awgn-json": (
        ["ber", "--n", "32", "--k", "12", "--ebn0", "0,1.5,3", "--trials", "7",
         "--seed", "4", *_MODES, *_ARCHS],
        "d31af154df3880310224ccd25228be2eed50dfaca95e23d7294d72ffb5500054",
    ),
    "ber-awgn-csv": (
        ["ber", "--n", "16", "--ebn0=-1,2", "--trials", "9", "--seed", "2",
         "--q", "5", "--scale", "1.5", "--format", "csv", *_MODES, *_ARCHS],
        "2f63253619c665749cc4d9d102768f217d716953754159d9c8bf9684d035265c",
    ),
    "ber-chunks-csv": (  # 12000 trials at N=16 and 3 points span three decode chunks
        ["ber", "--n", "16", "--k", "8", "--ebn0", "1,2.5,4", "--trials", "12000",
         "--seed", "6", "--format", "csv", "--mode", "minsum", "--mode", "minsum-q",
         "--arch", "parallel2"],
        "a346c39fa54c07d55a8e606ca1b6857e0803c3271714e6df6f5631f3f820edaf",
    ),
    "ber-noiseless-json": (
        ["ber", "--n", "16", "--k", "4", "--trials", "5", "--noiseless",
         *_MODES, *_ARCHS],
        "f26b2be163c7cceba1c3db0d1170290ceb1c277ded89e1f3c090fa56063e1f6c",
    ),
    "ber-noiseless-csv": (
        ["ber", "--n", "8", "--trials", "3", "--noiseless", "--format", "csv",
         *_MODES, *_ARCHS],
        "7df59cc2dc2219f04dae8cf38a27c3c81e46760276df4c4f27984a29d91b959a",
    ),
    "simulate-conventional": (
        ["simulate", "--n", "16", "--k", "4", "--arch", "conventional",
         "--ebn0", "1.5", "--seed", "3"],
        "97a2c42e99a49183e56578113fd7ade8d525e7da9e29c90304e459f1553086e1",
    ),
    "simulate-lookahead": (
        ["simulate", "--n", "16", "--arch", "lookahead", "--ebn0", "2", "--seed", "5"],
        "75966e7de8736da5f74663926036fb1782110d22abafda486d277a0c77331f44",
    ),
    "simulate-parallel2": (
        ["simulate", "--n", "16", "--k", "12", "--arch", "parallel2",
         "--ebn0", "0.5", "--seed", "9"],
        "c492c758ac44140d904b08688c11a033e89ef4cd918f9ef3db0f1cdfbc59badb",
    ),
    "simulate-noiseless": (
        ["simulate", "--n", "8", "--arch", "lookahead"],
        "d20ee0f0b037a946f78babdf4bf62c4d1ef937290196c635ee93ca27131230a5",
    ),
    "simulate-trials": (
        ["simulate", "--n", "16", "--k", "6", "--arch", "parallel2", "--trials", "7",
         "--ebn0", "1", "--seed", "2"],
        "abb45c6df5d23a907b14da8b4d71f8b48825ef5272cc9f38ab144dd7b1b2e449",
    ),
    "decode-exact": (
        ["decode", "--n", "8", "--mode", "exact", "--llrs", "1.5,-0.2,3,0,-2.5,0.7,-0.1,4"],
        "34b61b3108394d6a5d92149a31de2cab1998f7a529eda9c6e0d5e443f05fb59a",
    ),
    "decode-minsum": (
        ["decode", "--n", "8", "--k", "5", "--mode", "minsum", "--format", "csv",
         "--llrs", "1.5,-0.2,3,0,-2.5,0.7,-0.1,4"],
        "a05315d8e98b3f217cf09a9a48930e729b90cec9e66559eb8ee218afe11246f3",
    ),
    "decode-minsum-q": (
        ["decode", "--n", "8", "--mode", "minsum-q", "--q", "4", "--scale", "2",
         "--llrs", "1.5,-0.2,3,0,-2.5,0.7,-0.1,4"],
        "2bf93fdc4810d346274bec5be939e47cdb4545d8292496dd9772fd59587c247a",
    ),
    "encode": (
        ["encode", "--n", "16", "--k", "7", "--seed", "3"],
        "80c941ab712de229755d059f26f66320329d9e544cab41f3ae3f864bc29a5f68",
    ),
    "igc-trace": (
        ["igc-trace", "--n", "16", "--seed", "1"],
        "22a4aec82813fdda0ec305f4dbdbd75aa2886566dc6b885eeec952d0b9890b11",
    ),
    "activity": (
        ["activity", "--n", "16", "--format", "csv"],
        "2fa65fd98938cff6fd9399f9660a3b0226750b80409876611f8ad78740d7ecae",
    ),
    "timechart": (
        ["timechart", "--n", "16", "--arch", "conventional"],
        "aee3ba97f4ddb54de546ef166c42980482b2e467141ae9b666121c89f60c3ba5",
    ),
    "cost": (
        ["cost", "--n", "64", "--q", "5"],
        "17ee1c135049821fc67cbbbff3d85c30cf6674016a7438f7584197191f40682f",
    ),
    "encode-csv": (
        ["encode", "--n", "16", "--k", "7", "--seed", "3", "--format", "csv"],
        "edf0a85539aeeb217eccaaa5b41132208da873d53d9240bc3e0c4f8b364b5f3b",
    ),
    "timechart-csv": (
        ["timechart", "--n", "16", "--format", "csv"],
        "f474024140876db4e51ea2195cf5892d0b86969bbcc363f58084bfe0eb095698",
    ),
    "activity-json": (
        ["activity", "--n", "16"],
        "bfb67cf96574283c6da12783fbbb92a33e6ce570562bf06fae2a41284bfdc0a7",
    ),
    "cost-csv": (
        ["cost", "--n", "64", "--q", "5", "--format", "csv"],
        "e4634fead6868d36260d893b0c1486a71004be01ef85be90e94a8145d762a0c3",
    ),
    "igc-trace-csv": (
        ["igc-trace", "--n", "16", "--seed", "1", "--format", "csv"],
        "e24baee8cfa346550d1cb7e7f84988eb48475aebb68dc978bcec71a6566eb8e6",
    ),
    "timechart-lookahead-32": (
        ["timechart", "--n", "32", "--arch", "lookahead"],
        "aa2862d678a0f5f0ac502c08dede279cd3b098a3c4e5d1a8591e250c9fd2dcda",
    ),
    "timechart-conventional-32-csv": (
        ["timechart", "--n", "32", "--arch", "conventional", "--format", "csv"],
        "07d1e4b4303677867d7507e11071a5f54c8dd4eb2f7efaac16b6ef70f769d0e2",
    ),
    "activity-32": (
        ["activity", "--n", "32"],
        "709254d8b70c4bb9b2d3f988bcb7b82a8ac8a43f49e3033e1d8cf29760facfe4",
    ),
    "igc-trace-64": (
        ["igc-trace", "--n", "64", "--seed", "2"],
        "879e447e9f53dfd2a92ca375c243e89e37ec979b32b2847784dbba7a316ba7c5",
    ),
    "simulate-ebn0-300": (  # every LLR clips to the rail: a noiseless channel's bytes
        ["simulate", "--n", "8", "--arch", "parallel2", "--seed", "4", "--ebn0", "300"],
        "b7e8990a35ad0b1fa6e6038645653c89759c348d0689bd27d94b55d6ff881f72",
    ),
    "simulate-default-ebn0": (  # without --ebn0 a single run is at 0 dB, like a campaign
        ["simulate", "--n", "8", "--arch", "parallel2", "--seed", "4"],
        "f62dfdff5e2e023c5f6cee4551bf61894948aca6c3ffc2ba3a1214e509d5f75c",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_digest(name, capsys):
    argv, want = CASES[name]
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


# argv of a ``simulate`` case above, and the sha256 of its --trace file
TRACE_CASES = {
    "simulate-lookahead": "aba360949943cd17dc1dbba4c34b5f423da8e145af8ed325f1ea193693fb406e",
    "simulate-parallel2": "fe6392bbd13f6c9c22d62df2de818e2ff8e21c49add7cf08cecdc1890ef3c12c",
}


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_trace_file_digest(name, tmp_path, capsys):
    argv, want_stdout = CASES[name]
    path = tmp_path / "trace.csv"
    assert cli.main([*argv, "--trace", str(path)]) == cli.EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == want_stdout
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_CASES[name]
