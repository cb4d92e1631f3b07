"""Frozen stdout and exit codes of fixed `qgm connectedness` runs.

The data file holds, per case, the argv, the exit code and the exact
stdout the command printed when the case was frozen; the ideals are
stored literally in the argv.  Any change to the connectedness pipeline
must reproduce every byte.
"""

import contextlib
import io
import json
import os

import pytest

from qgm import cli

with open(os.path.join(os.path.dirname(__file__), "data",
                       "connectedness_golden.json"), encoding="utf-8") as _fh:
    CASES = json.load(_fh)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_connectedness_stdout_is_frozen(case):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(case["argv"])
    assert code == case["exit"]
    assert buf.getvalue() == case["stdout"]
