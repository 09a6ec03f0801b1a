"""Replay the CLI's golden corpus: every line of ``tests/golden/cli.jsonl`` through
``cli.main``, its exit code, stdout hash and length, and stderr byte for byte; the
lines argparse wrote, and a few well-formed ones, in a fresh process too.

``tests/golden/regenerate.py`` writes the corpus; a change that alters an output
on purpose regenerates it and names the changed lines.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import run_fresh
from tilecount import cli
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


def test_the_pictures_are_their_generators_own():
    # CI counts these files, so they cannot drift from the code that made them
    assert {path.name for path in GOLDEN.glob("*.txt")} == set(regenerate.PICTURES)
    for name, text in regenerate.PICTURES.items():
        assert (GOLDEN / name).read_bytes() == text.encode(), name


# the argvs argparse reads that the matcher leaves to it by rule: an abbreviated, an
# `=`, a repeated option, `--`, and an integer with a sign, an underscore or a
# non-ASCII digit
LEFT_TO_ARGPARSE = [
    ["seq", "F", "1", "3", "--method=closed"],
    ["seq", "F", "1", "3", "--meth", "closed"],
    ["count", "rect:2,2", "--js"],
    ["count", "rect:2,2", "--json", "--json"],
    ["verify", "table1", "--max", "2", "--max-n", "3"],
    ["count", "--", "rect:2,2"],
    ["seq", "F", "-1", "3"],
    ["seq", "F", "١", "3"],
    ["seq", "F", "1_0", "12"],
    ["seq", "F", "+1", "3"],
    ["bfile", "F", "--to=4"],
]


def test_the_matcher_reads_every_corpus_argv_spelled_in_full():
    # so that the path without argparse cannot go dark unseen
    for line in LINES:
        argv = regenerate.argv_of(line["argv"])
        args = cli._match(argv)
        if "python" in line or line["argv"] in LEFT_TO_ARGPARSE:
            assert args is None, argv[:4]
        else:
            assert args is not None, argv[:4]
            assert vars(args) == vars(cli._argparse_parser().parse_args(argv))
    argvs = [line["argv"] for line in LINES]
    assert all(argv in argvs for argv in LEFT_TO_ARGPARSE)


# besides every line argparse wrote, a well-formed line of each kind of output
WELL_FORMED = (
    ["count", "rect:8,8"],
    ["seq", "L3", "1", "50", "--json"],
    ["verify", "crux", "--max", "3"],
    ["bfile", "F", "--to", "100"],
)
FRESH = [line for line in LINES if "python" in line or line["argv"] in WELL_FORMED]


@pytest.mark.parametrize(
    "line", FRESH, ids=[" ".join(line["argv"])[:50] or "empty" for line in FRESH]
)
def test_a_corpus_line_replays_as_the_first_thing_a_process_does(line):
    # a bare interpreter: argparse, where it runs, is loaded and built on its first argv
    python = line.get("python")
    if python and python != regenerate.python_version():
        pytest.skip(f"argparse's text was recorded on Python {python}")
    script = "from tilecount.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = run_fresh(script, *regenerate.argv_of(line["argv"]))
    expected = {key: value for key, value in line.items() if key != "python"}
    assert regenerate.record(line["argv"], proc.returncode, proc.stdout, proc.stderr) == expected
