"""CLI outputs, byte for byte, against recorded sha256 digests.

synth's log and evaluate's report, SVG and density CSV: the digests were
recorded from the row-by-row parser and the per-row JSON writer, before
parsing and writing in bulk, so a change to either or to the statistics
that moves any output bit fails here. Each fixture is evaluated as synth
wrote it, and again with its records in reverse order under --sort.

Awkward variants of the two logs (CRLF line ends, with quoted CSV ids
or blank JSONL lines) must give the plain logs' report, SVG and density
CSV: so they did while a record-by-record reader still built the
columns of any text the bulk readers declined, and so they do now that
every log is read once, a chunk at a time. So must the JSONL log with
one space-padded line in its middle, whose chunk is decoded line by
line while the other chunks are scanned.

train-demo's stdout and history CSVs were recorded while soft_nn_distance
still had its own per-entry log-sum-exp, and gradcheck's stdout after it
became one entry of the weighted_soft_t scan. The gradcheck configurations
in GRADCHECK were recorded while finite_difference_check still called its
value function once per perturbed point, and while combined_loss was still
called once per point rather than on the stack of points. They were also
recorded before each soft family scored its unperturbed point as row 0 of
its one stacked call. The last two were recorded while combined_loss's
perturbed rows still computed their gradients, before they went through
the value stage alone.
"""

import hashlib

import pytest

from vcseval.report_cli import main

FIXTURES = {
    "jsonl": (["--pattern", "random", "--events", "3000", "--errors", "150",
               "--seed", "7"], []),
    "csv": (["--pattern", "clustered", "--events", "2000", "--errors", "600",
             "--seed", "11"], ["--tau", "20"]),
}

DIGESTS = {
    "jsonl": {
        "log": "f9f2a15aa28ee55d2064d99ecd4cabef534080b5d9ead3a1387c0a36a51acefd",
        "report.json": "aef8dbd7eae7cbc75ad4fd82549bf97e7d758cbe2dd80886b8f0b77c433a6c7e",
        "density.svg": "1d99805822e2e75119828980f4c45ce4887f0324c5391c7fe7455957e8491576",
        "bins.csv": "a925acd1fd55b0ea79eb7d5740f68dcc54f9199431a9a1b8d568f49628f95346",
    },
    "csv": {
        "log": "1e3a2f53edca6e20b2e6951dbb2d0f0dcc957966da6a13d6d7be5a48b730dc54",
        "report.json": "c205ef520ebc9b492c783d4a414360dff71aca8a24e753fb4b29e208c0a0d43c",
        "density.svg": "fa99c837e3b854854d5c99958001ed375e4be434a1c5c0497d6f7498873d55e9",
        "bins.csv": "3098fdeae794b3b464ef3ca7606dac2e8a82a6d0236bd4123904282f10aedff8",
    },
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def reversed_records(text, fmt):
    lines = text.splitlines()
    header = lines[:1] if fmt == "csv" else []
    body = lines[len(header):]
    return "\n".join(header + body[::-1]) + "\n"


@pytest.mark.parametrize("sort", [False, True], ids=["as-written", "reversed-sort"])
@pytest.mark.parametrize("fmt", sorted(FIXTURES))
def test_outputs_match_recorded_digests(fmt, sort, tmp_path):
    synth_args, eval_args = FIXTURES[fmt]
    log = tmp_path / f"log.{fmt}"
    assert main(["synth", *synth_args, "--format", fmt, "--out", str(log)]) == 0
    got = {"log": sha256(log.read_bytes())}
    argv = ["evaluate", "--input", str(log), "--format", fmt, *eval_args]
    if sort:
        log.write_text(reversed_records(log.read_text(), fmt))
        argv.append("--sort")
    outputs = {name: tmp_path / name for name in ("report.json", "density.svg", "bins.csv")}
    argv += ["--report", str(outputs["report.json"]), "--svg", str(outputs["density.svg"]),
             "--density-csv", str(outputs["bins.csv"])]
    assert main(argv) == 0
    got.update((name, sha256(path.read_bytes())) for name, path in outputs.items())
    assert got == DIGESTS[fmt]


def awkward_records(text, fmt):
    """The log with CRLF line ends, each CSV id quoted, a blank line after every
    seventh JSONL record."""
    lines = text.splitlines()
    if fmt == "csv":
        lines[1:] = ['%s,"say ""%s"", then"' % tuple(line.rsplit(",", 1)) for line in lines[1:]]
    else:
        lines = [line + "\r\n" * (i % 7 == 0) for i, line in enumerate(lines)]
    return "\r\n".join(lines) + "\r\n"


def one_padded_line(text, fmt):
    """The log with spaces around the one record in its middle, so that
    its chunk is decoded line by line and the others are scanned."""
    lines = text.splitlines()
    lines[len(lines) // 2] = f"  {lines[len(lines) // 2]} "
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt,edit", [
    pytest.param("csv", awkward_records, id="csv"),
    pytest.param("jsonl", awkward_records, id="jsonl"),
    pytest.param("jsonl", one_padded_line, id="jsonl-one-padded-line"),
])
def test_awkward_text_matches_recorded_digests(fmt, edit, tmp_path):
    synth_args, eval_args = FIXTURES[fmt]
    log = tmp_path / f"log.{fmt}"
    assert main(["synth", *synth_args, "--format", fmt, "--out", str(log)]) == 0
    log.write_bytes(edit(log.read_text(), fmt).encode())
    outputs = {name: tmp_path / name for name in ("report.json", "density.svg", "bins.csv")}
    assert main(["evaluate", "--input", str(log), "--format", fmt, *eval_args,
                 "--report", str(outputs["report.json"]), "--svg", str(outputs["density.svg"]),
                 "--density-csv", str(outputs["bins.csv"])]) == 0
    got = {name: sha256(path.read_bytes()) for name, path in outputs.items()}
    assert got == {name: DIGESTS[fmt][name] for name in outputs}


def test_train_demo_matches_recorded_digests(tmp_path, capsys):
    assert main(["train-demo", "--seeds", "0", "--epochs", "20", "--out-dir", str(tmp_path)]) == 0
    got = {"stdout": sha256(capsys.readouterr().out.encode())}
    got.update((path.name, sha256(path.read_bytes())) for path in tmp_path.iterdir())
    assert got == {
        "stdout": "2da4dd5970af61add838a0ea742ef4ead9922adc5813f0bedb7bd5f012fa9b42",
        "history_baseline_seed0.csv":
            "e01f1005236cf878eb346f7f4fd1500867dc966af6f7929c6ad23195fb627098",
        "history_vca_seed0.csv":
            "dbace5aa725128783c1756650acf67861626886987454bd631e09b7a46e7e26f",
    }


def test_gradcheck_matches_recorded_digest(capsys):
    assert main(["gradcheck", "--trials", "20", "--seed", "0"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == (
        "565c421713ec1dc852198a0080659368ce147a533f7cd9ed23bfc5f5aa989c1f")


# argv after "gradcheck": (exit code, sha256 of stdout)
GRADCHECK = {
    ("--trials", "250", "--seed", "3"):
        (0, "ca7f05df1fde2e51ab66600015c6dad2342e8a7c79a6906baa85f427afad2a02"),
    ("--beta", "0.01"): (0, "e8138fe74bdabb7a2cadbe3b59538367a8b7ab19700cd29f5873656fe5547c48"),
    ("--beta", "200"): (0, "13227cc782845c33968058a9d05b05d3d8f50d6adddb8e95d37ae45995753603"),
    ("--step", "1.0"): (1, "a15d588ab62857e71d2e31d293a7202c1b7f0dd77caae4dc2df784004cf5e200"),
    ("--beta", "1e308", "--trials", "2"):
        (1, "35e460ce5c0afcccfd9f744bedd8fc10c6bad726daa23e3a25d670a88c02cec6"),
    ("--trials", "250", "--seed", "7"):
        (0, "adafb24da13371b0f9050f9a4645e8cbb0b3a5c9384ddb989c0c4d91f52acc32"),
    # perturbed rows far from row 0
    ("--step", "30", "--trials", "50"):
        (1, "0da28886689860f0f63357ce9bec378c730d4a661642de85391f03e8a04f7e88"),
}


@pytest.mark.parametrize("argv", sorted(GRADCHECK), ids=" ".join)
def test_gradcheck_configurations_match_recorded_digests(argv, capsys):
    code = main(["gradcheck", *argv])
    assert (code, sha256(capsys.readouterr().out.encode())) == GRADCHECK[argv]
