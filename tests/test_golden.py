"""Golden reports: every record in ``tests/golden`` replayed byte for byte.

A record is one command line with the exit code, stdout and stderr that
``cli.dispatch`` gave it, run from ``tests/golden`` (the input files are
named relative to it).  ``tests/golden/regenerate.py`` writes the records
and says what they cover; a report that changes on purpose is regenerated,
and the change says which records moved and why.
"""

import json
from pathlib import Path

import pytest

from ramsey_forge import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORDS = [record for path in sorted(GOLDEN.glob("*.json"))
           for record in json.loads(path.read_text())]


@pytest.mark.parametrize("record", RECORDS, ids=[
    "/".join(arg.lstrip("-") for arg in record["argv"]) for record in RECORDS])
def test_golden_report(record, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = cli.dispatch(record["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (record["exit"], record["stdout"],
                                record["stderr"]), " ".join(record["argv"])
