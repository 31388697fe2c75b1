"""CLI stdout, byte for byte, against records kept in ``tests/data/golden``.

``cases.json`` maps each record's name to its argv and exit code; the
record itself is ``<name>.stdout``.  The argv name files in that directory,
so each case runs from there (a ``--tape`` record echoes the path it was
given).
"""

import json
from pathlib import Path

import pytest

from gapsvt.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
CASES = json.loads((GOLDEN_DIR / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_the_record(name, capsys, monkeypatch):
    case = CASES[name]
    monkeypatch.chdir(GOLDEN_DIR)
    monkeypatch.delenv("GAPSVT_SEED", raising=False)
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN_DIR / f"{name}.stdout").read_text()
