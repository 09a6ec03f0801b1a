"""Regenerate the CLI's golden corpus: ``cli.jsonl`` and the ``@file`` pictures beside it.

Run from the repository root, on the code whose output the corpus is to hold:

    PYTHONPATH=src python tests/golden/regenerate.py

Each line of ``cli.jsonl`` holds one argv, its exit code, the sha256 and length
of its stdout, and its stderr in full. ``{golden}`` in an argv stands for this
directory, and both streams write its path back as ``{golden}``, so the file
holds no paths and no timings. A line whose output ``argparse`` wrote (help
texts and usage errors, which exit by ``SystemExit``) also names the Python
version it was made on: those texts change between versions.
``tests/test_golden.py`` replays every line through ``cli.main``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent


def _aztec(n: int) -> str:
    rows = [*range(n), *range(n - 1, -1, -1)]
    return "".join("." * (n - 1 - i) + "#" * (2 * i + 2) + "." * (n - 1 - i) + "\n" for i in rows)


def _square(side: int, holes=()) -> str:
    return "".join(
        "".join("." if (r, c) in holes else "#" for c in range(side)) + "\n" for r in range(side)
    )


# the 12 x 12 square without (0,1), (10,11), (0,2), (9,11) maps onto itself by the
# reflection about its anti-diagonal only; with its columns mirrored, about its main one
ANTI_HOLES = {(0, 1), (10, 11), (0, 2), (9, 11)}

PICTURES = {
    **{f"aztec{n}.txt": _aztec(n) for n in (4, 9, 10, 12, 40)},
    "square16.txt": _square(16),
    "punched6.txt": _square(6, {(1, 1), (1, 2), (4, 3), (4, 4)}),
    "anti12.txt": _square(12, ANTI_HOLES),
    "anti12_mirrored.txt": _square(12, {(r, 11 - c) for r, c in ANTI_HOLES}),
    "band40.txt": "".join(
        "".join("#" if 31 <= r + c <= 46 else "." for c in range(40)) + "\n" for r in range(40)
    ),
    "square70.txt": _square(70),
    "bad.txt": "##\n#x\n",
}

INVOCATIONS = [
    # help texts and usage errors, written by argparse
    [],
    ["--help"],
    ["count", "--help"],
    ["seq", "--help"],
    ["verify", "--help"],
    ["render", "--help"],
    ["bfile", "--help"],
    ["verify"],
    ["verify", "nonsense"],
    ["seq", "F", "1", "x"],
    ["seq", "F", "1", "3", "--method", "bogus"],
    ["bfile", "F"],
    # verify
    ["verify", "all"],
    ["verify", "all", "--json"],
    *(["verify", suite] for suite in ("table1", "table2", "thm21", "thm32", "recurrences")),
    ["verify", "crux", "--json"],
    ["verify", "tauraso", "--json"],
    ["verify", "crux", "--max", "3"],
    ["verify", "thm21", "--max", "5", "--max-k", "4", "--json"],
    ["verify", "all", "--max", "5"],
    ["verify", "table1", "--max-k", "3"],
    ["verify", "table1", "--max", "0"],
    # count: every token
    ["count", "rect:3,4"],
    ["count", "rect:8,8"],
    ["count", "rect:24,24"],
    ["count", "rect:3,5"],
    ["count", "a:2"],
    ["count", "a:7"],
    ["count", "b:3"],
    ["count", "c:3"],
    ["count", "l2:3,3"],
    ["count", "l2:10,10"],
    ["count", "l3:2,2"],
    ["count", "l3:30,30"],
    *(["count", f"l3:3,5,{o}"] for o in ("SW", "se", "NW", "NE")),
    ["count", "tower:5"],
    ["count", "tower:27000"],
    ["count", "mtower:6"],
    ["count", "box:2,3,10"],
    ["count", "box:2,4,30"],
    ["count", "box:3,3,21"],
    ["count", "rect:4,4", "--json"],
    ["count", "tower:5", "--json"],
    ["count", "box:3,3,1", "--json"],
    # count: @file pictures
    *(["count", f"@{{golden}}/{name}"] for name in PICTURES),
    ["count", "@{golden}/aztec9.txt", "--json"],
    ["count", "@{golden}/missing.txt"],
    # count: malformed specs and refusals
    ["count", "rect"],
    ["count", "rect:1"],
    ["count", "rect:x,2"],
    ["count", "rect:0,3"],
    ["count", "foo:1"],
    ["count", "l3:2,2,XY"],
    ["count", "tower:0"],
    ["count", "rect:24,2000"],
    ["count", "a:" + "9" * 4000],
    ["count", "a:" + "9" * 5000],
    ["count", "box:4,4,1"],
    ["count", "l3:100000,100000"],
    ["count", "b:10000000"],
    # render
    ["render", "l2:3,3"],
    ["render", "rect:2,4", "--limit", "2"],
    ["render", "@{golden}/punched6.txt", "--limit", "1"],
    ["render", "b:10000000"],
    ["render", "box:4,4,1"],
    # seq: every family and method
    *(
        ["seq", family, "1", "30", "--method", method]
        for family in ("F", "A", "B", "C", "T", "M", "L3", "L2D")
        for method in ("iter", "matpow", "closed")
    ),
    ["seq", "L3", "1", "50", "--json"],
    ["seq", "T", "2500", "2500", "--method", "iter"],
    ["seq", "A", "0", "5"],
    ["seq", "F", "5", "3"],
    ["seq", "Z", "1", "3"],
    ["seq", "A", "1", "10000000"],
    ["seq", "T", "1", "10000000", "--method", "matpow"],
    # bfile
    ["bfile", "L3", "--to", "40"],
    ["bfile", "F", "--to", "100"],
    ["bfile", "T", "--to", "0"],
    ["bfile", "Z", "--to", "5"],
    ["bfile", "L3", "--to", "1000000"],
    # argparse at the edge of what the CLI reads without it: reordered, abbreviated,
    # repeated and `=` options, `--`, signed and non-ASCII integers, an integer past the
    # int -> str digit limit, a stray positional, a bad choice, help after a command and
    # an option before it
    ["seq", "--json", "F", "1", "3"],
    ["seq", "F", "--json", "1", "3"],
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
    ["seq", "A", "1", "9" * 4400],
    ["bfile", "F", "--to=4"],
    ["render", "l2:1,1", "--limit", "1", "extra"],
    ["verify", "ALL"],
    ["count", "rect:2,2", "-h"],
    ["--json", "count", "rect:2,2"],
]


def argv_of(line_argv: list[str]) -> list[str]:
    """The argv with ``{golden}`` replaced by this directory."""
    return [arg.replace("{golden}", str(GOLDEN)) for arg in line_argv]


def record(line_argv: list[str], code, out: str, err: str) -> dict:
    """One corpus line for the argv's exit code and streams, this directory written back as ``{golden}``."""
    out, err = (text.replace(str(GOLDEN), "{golden}") for text in (out, err))
    return {
        "argv": line_argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
        "stdout_len": len(out),
        "stderr": err,
    }


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def main() -> None:
    from tilecount import cli

    os.environ["COLUMNS"] = "80"  # argparse wraps its help to the terminal's width
    for name, text in PICTURES.items():
        (GOLDEN / name).write_text(text)
    lines = []
    for line_argv in INVOCATIONS:
        out, err = io.StringIO(), io.StringIO()
        by_argparse = False
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv_of(line_argv))
            except SystemExit as exc:
                code, by_argparse = exc.code, True
        line = record(line_argv, code, out.getvalue(), err.getvalue())
        if by_argparse:
            line["python"] = python_version()
        lines.append(json.dumps(line, ensure_ascii=False) + "\n")
    (GOLDEN / "cli.jsonl").write_text("".join(lines))


if __name__ == "__main__":
    main()
