"""The README's examples run as written against the package.

The Python blocks run in order in one namespace, in a directory that
holds the `demo.jsonl` the README's own `vcseval synth` line writes.
"""

import json
import pathlib
import re
import shlex

import pytest

from vcseval.report_cli import main

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


@pytest.fixture
def demo_dir(tmp_path, monkeypatch):
    (synth_line,) = [line for block in blocks("bash") for line in block.splitlines()
                     if line.startswith("vcseval synth")]
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(synth_line)[1:]) == 0
    return tmp_path


def test_python_blocks_run(demo_dir):
    namespace = {}
    code = blocks("python")
    assert len(code) >= 2
    for block in code:
        exec(compile(block, "README.md", "exec"), namespace)
    # the direct vcs call and evaluate_stream score the same timestamps
    assert namespace["result"].vcs == namespace["summary"].vcs_result.vcs
    # the one-row loss gives floats, and its stack of rows passes gradcheck
    assert type(namespace["loss"].total) is float
    assert namespace["loss_err"] <= 1e-4


def agrees(shown, actual):
    """True if every value shown equals the actual one; ["..."] stands for any list."""
    if shown == ["..."]:
        return isinstance(actual, list)
    if isinstance(shown, dict):
        return shown.keys() <= actual.keys() and all(
            agrees(value, actual[key]) for key, value in shown.items())
    return shown == actual


def test_json_report_example_matches_evaluate(demo_dir):
    (shown,) = blocks("json")
    assert main(["evaluate", "--input", "demo.jsonl", "--report", "report.json"]) == 0
    actual = json.loads((demo_dir / "report.json").read_text())
    assert agrees(json.loads(shown), actual)
