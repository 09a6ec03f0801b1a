"""Replay the CLI's golden corpus: every line of ``tests/golden/cli.jsonl`` through
``cli.main``, its exit code, stdout hash and length, and stderr byte for byte.

``tests/golden/regenerate.py`` writes the corpus; a change that alters an output
on purpose regenerates it and names the changed lines.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from tilecount.cli import main

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

LINES = [json.loads(line) for line in (GOLDEN / "cli.jsonl").read_text().splitlines()]


@pytest.mark.parametrize(
    "line", LINES, ids=[f"{i}:{' '.join(line['argv'])[:50]}" for i, line in enumerate(LINES)]
)
def test_the_cli_replays_its_golden_corpus(line, capsys, monkeypatch):
    python = line.get("python")
    if python and python != regenerate.python_version():
        pytest.skip(f"argparse's text was recorded on Python {python}")
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(regenerate.argv_of(line["argv"]))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    expected = {key: value for key, value in line.items() if key != "python"}
    assert regenerate.record(line["argv"], code, out, err) == expected

