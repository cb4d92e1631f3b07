"""Frozen stdout and exit codes of fixed `qgm` runs: connectedness,
stability, and the picard, lattice, relations, help and argv-error cases.

Each data file holds, per case, the argv, the exit code and the exact
stdout the command printed when the case was frozen; ideals and points
are stored literally in the argv.  Any change to the connectedness
pipeline or to the stability tests must reproduce every byte.
"""

import contextlib
import io
import json
import os

import pytest

from qgm import cli


def _load(name):
    with open(os.path.join(os.path.dirname(__file__), "data", name),
              encoding="utf-8") as fh:
        return json.load(fh)


CASES = _load("connectedness_golden.json")
STABILITY_CASES = _load("stability_golden.json")
CLI_CASES = _load("cli_golden.json")


def _check(case):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(case["argv"])
    assert code == case["exit"]
    assert buf.getvalue() == case["stdout"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_connectedness_stdout_is_frozen(case):
    _check(case)


@pytest.mark.parametrize("case", STABILITY_CASES,
                         ids=[c["name"] for c in STABILITY_CASES])
def test_stability_stdout_is_frozen(case):
    _check(case)


@pytest.mark.parametrize("case", CLI_CASES, ids=[c["name"] for c in CLI_CASES])
def test_cli_stdout_is_frozen(case, monkeypatch):
    # argparse wraps help text to the terminal width; the cases were
    # frozen at 80 columns.
    monkeypatch.setenv("COLUMNS", "80")
    _check(case)
