import decimal
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dumped_records, run_fresh
from tilecount import BudgetError, cli, count2d, identities, sequences, solid3d
from tilecount.cli import main
from tilecount.identities import BOUNDS, CheckResult, Report
from tilecount.regions2d import Region2D, l2_region, l3_region, rect
from tilecount.sequences import catalog, decimal_str, l3, rec_eval_matpow, rec_values
from tilecount.solid3d import Prism3D


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# region specs


def parse_region_spec(spec):
    """The region or prism that ``spec`` builds, parsed as ``count`` parses it."""
    return cli._parse_spec(spec)[0]()


def test_parse_region_specs():
    assert parse_region_spec("rect:3,4") == rect(3, 4)
    assert parse_region_spec("a:2") == rect(3, 4)
    assert parse_region_spec("c:0") == rect(2, 2)
    assert parse_region_spec("l2:3,1") == rect(2, 4)
    assert parse_region_spec("l2:3,2") == l2_region(3, 2)
    assert parse_region_spec("l3:2,1,ne") == l3_region(2, 1, "NE")
    prism = parse_region_spec("tower:5")
    assert isinstance(prism, Prism3D) and prism.layers == 5
    assert parse_region_spec("mtower:2").cell_count == 6
    two_by_three = {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)}
    assert parse_region_spec("box:2,3,4") == Prism3D(two_by_three, 4)


def test_start_up_loads_only_what_counting_needs():
    # a bare interpreter (-I -S: no site, which may load typing and pathlib itself)
    # importing the package as a count does; dataclasses would bring inspect and ast
    script = """\
import tilecount
from tilecount import cli, sequences
sequences.catalog()
cli.build_parser()
heavy = ("dataclasses", "inspect", "fractions", "json", "typing", "pathlib")
heavy += ("decimal", "_decimal", "tilecount.identities", "tilecount.solid3d", "tilecount.count2d")
heavy += ("argparse", "gettext")
print(" ".join(m for m in heavy if m in sys.modules))
"""
    proc = run_fresh(script)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "\n", f"start-up loaded {proc.stdout.strip()}"


def _fresh_main(*argv):
    """``main(argv)`` in a bare interpreter: (exit code, stdout, stderr), with the
    modules it loaded, named on stdout's last line."""
    script = """\
from tilecount.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # argparse's help texts and usage errors
    code = exc.code
print(" ".join(sorted(sys.modules)))
sys.exit(code)
"""
    proc = run_fresh(script, *argv)
    out, _, loaded = proc.stdout.rstrip("\n").rpartition("\n")
    return proc.returncode, out + "\n" if out else "", proc.stderr, set(loaded.split())


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (("count", "rect:4,4"), ("decimal", "tilecount.identities", "tilecount.solid3d")),
        (
            ("seq", "A", "1", "5"),
            ("tilecount.count2d", "tilecount.solid3d", "tilecount.identities"),
        ),
        (("verify", "table1", "--max", "2"), ("decimal", "json")),
        (("bfile", "F", "--to", "3"), ("tilecount.count2d", "tilecount.identities")),
        (("render", "l2:1,1", "--limit", "1"), ("decimal", "tilecount.solid3d")),
    ],
    ids=["count", "seq", "verify", "bfile", "render"],
)
def test_a_command_loads_only_what_it_runs(capsys, argv, unloaded):
    # a well-formed command is read by the matcher: argparse is not loaded either
    code, stdout, stderr, loaded = _fresh_main(*argv)
    assert (code, stderr) == (0, "") and stdout
    assert (code, stdout, stderr) == run(capsys, *argv)
    unloaded += ("argparse", "gettext")
    assert not loaded.intersection(unloaded), f"{' '.join(argv)} loaded {loaded & set(unloaded)}"


def test_a_usage_error_as_the_first_thing_a_process_does(capsys):
    # argparse is imported and its parser built on the error path itself
    code, stdout, stderr, loaded = _fresh_main("count")
    with pytest.raises(SystemExit) as exc:
        main(["count"])
    assert exc.value.code == 2
    assert (code, stdout, stderr) == (2, "", capsys.readouterr().err)
    assert stderr.startswith("usage: tilecount count") and "argparse" in loaded


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("count", "a:" + "9" * 4000),
            r"estimated elimination work 1,944(,\d{3}){3998} exceeds the budget of 100,000,000",
        ),
        (
            ("seq", "A", "1", "10000000"),
            re.escape("estimated work for A(1..10000000) exceeds the budget of 1,500,000,000"),
        ),
    ],
    ids=["count a:4000 nines", "seq A 1 10000000"],
)
def test_a_refusal_as_the_first_thing_a_process_does(capsys, argv, message):
    # a bare process loads decimal, which prints the refusal, on the error path itself
    code, stdout, stderr, loaded = _fresh_main(*argv)
    assert re.fullmatch(f"error: {message}\n", stderr), stderr[:80]
    assert (code, stdout, stderr) == (2, "", run(capsys, *argv)[2])
    assert "decimal" in loaded


def test_verify_offers_every_suite_without_loading_them():
    assert cli._SUITE_NAMES == tuple(identities.SUITES)


def test_parse_region_spec_from_file(tmp_path):
    path = tmp_path / "shape.txt"
    path.write_text(".##\n###\n")
    region = parse_region_spec(f"@{path}")
    assert isinstance(region, Region2D)
    assert region.cell_count == 5


@pytest.mark.parametrize(
    "bad",
    ["rect", "rect:3", "rect:a,b", "blob:3", "l3:2", "a:1,2", "tower:x", "box:2,2", "box:0,2,2"],
)
def test_parse_region_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_region_spec(bad)


# ---------------------------------------------------------------------------
# count


def test_count_known_values(capsys):
    assert run(capsys, "count", "a:2") == (0, "11\n", "")
    assert run(capsys, "count", "rect:3,3") == (0, "0\n", "")
    assert run(capsys, "count", "tower:10") == (0, "326041\n", "")
    assert run(capsys, "count", "box:2,2,10") == (0, "326041\n", "")
    assert run(capsys, "count", "box:2,3,10", "--json") == (
        0,
        '{"cells":60,"count":"422983905","spec":"box:2,3,10"}\n',
        "",
    )


def test_count_box_is_the_tower_far_out(capsys):
    # the run of a long box is jumped, and every count equals the tower's term
    code, out, err = run(capsys, "count", "box:2,2,4000")
    assert (code, err) == (0, "") and out == run(capsys, "count", "tower:4000")[1]


def test_count_json(capsys):
    for spec, cells, count in (("l3:2,2", 24, 153), ("l3:30,30", 360, l3(30, 30))):
        code, out, err = run(capsys, "count", spec, "--json")
        assert code == 0
        assert json.loads(out) == {"spec": spec, "cells": cells, "count": str(count)}
        assert run(capsys, "count", spec) == (0, f"{count}\n", "")


def test_count_errors_exit_2(capsys):
    assert run(capsys, "count", "blob:3") == (
        2,
        "",
        "error: unknown region token 'blob'; known: rect a b c l2 l3 tower mtower box\n",
    )
    code, _, err = run(capsys, "count", "rect:200,200")
    assert code == 2 and "exceeds the budget of 100,000,000" in err
    code, out, err = run(capsys, "count", "@/no/such/file")
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ") and "/no/such/file" in err


def test_an_over_budget_rect_is_refused_before_it_is_built(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("a cell was built before the refusal")

    monkeypatch.setattr(cli.regions2d, "rect", no_build)
    monkeypatch.setattr(cli.regions2d, "a_grid", no_build)
    # a:<4,000 nines> has an estimate past the int -> str digit limit; an argument of
    # 5,000 digits is itself past it, and is read in full, not refused as a non-integer
    specs = ("rect:1000,1000", "rect:100000,100000", "rect:58,58", "a:300000", "a:" + "9" * 4000)
    specs += ("a:" + "9" * 5000, "rect:2," + "9" * 5000, "rect:+" + "9" * 5000 + ", 2")
    refusal = r"error: estimated elimination work [0-9,]+ exceeds the budget of 100,000,000\n"
    for spec in specs:
        code, out, err = run(capsys, "count", spec)
        assert (code, out) == (2, "") and re.fullmatch(refusal, err), spec[:20]
    spec = "a:" + "9" * 5000 + "x"  # a long argument that is no integer still is not one
    message = f"error: non-integer argument in spec {spec!r}\n"
    assert run(capsys, "count", spec) == (2, "", message)
    # a:n is the 3 x 2n rectangle, so it is refused from n alike
    refusal = run(capsys, "count", "rect:3,20000000")
    assert refusal[0] == 2 and run(capsys, "count", "a:10000000") == refusal
    # usage errors keep their order: the builder's own check comes after the parse
    message = "error: spec 'rect' takes 2 argument(s), got 1\n"
    assert run(capsys, "count", "rect:1000") == (2, "", message)


def test_count_rect_and_a_build_no_region(capsys, monkeypatch):
    sizes = {"rect:16,16": (16, 16), "rect:12,22": (12, 22), "a:7": (3, 14)}
    expected = {spec: count2d.count_tilings(rect(*size)) for spec, size in sizes.items()}

    def no_region(*args):
        raise AssertionError("a region was built or counted cell by cell")

    for name in ("rect", "a_grid", "Region2D"):
        monkeypatch.setattr(cli.regions2d, name, no_region)
    monkeypatch.setattr(count2d, "count_tilings", no_region)
    for spec, count in expected.items():
        assert run(capsys, "count", spec) == (0, f"{count}\n", "")
    # --json still reports the rectangle's cells, odd ones too
    expected["rect:1001,1001"] = 0
    for spec, cells in (("rect:16,16", 256), ("a:7", 42), ("rect:1001,1001", 1002001)):
        code, out, err = run(capsys, "count", spec, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"spec": spec, "cells": cells, "count": str(expected[spec])}
    # non-positive sizes exit 2 with the builders' own messages
    for spec, message in (
        ("rect:0,5", "rectangle needs positive dimensions, got 0x5"),
        ("rect:-3,4", "rectangle needs positive dimensions, got -3x4"),
        ("a:0", "a_grid needs n >= 1, got 0"),
    ):
        assert run(capsys, "count", spec) == (2, "", f"error: {message}\n")


def test_over_budget_strips_and_angles_are_refused_before_they_are_built(capsys, monkeypatch):
    built = []

    def no_build(*args):
        built.append(args)
        raise ValueError("built")

    for name in ("b_grid", "c_grid", "l2_region", "l3_region"):
        monkeypatch.setattr(cli.regions2d, name, no_build)
    refusal = r"error: estimated elimination work [0-9,]+ exceeds the budget of 100,000,000\n"
    for spec in ("b:10000000", "c:10000000", f"l2:{10**6},{10**6}", "l3:100000,100000,NE"):
        code, out, err = run(capsys, "count", spec)
        assert (code, out) == (2, "") and re.fullmatch(refusal, err), spec
    assert built == []
    # under the cell-count bound the full estimate decides, so these reach their builders
    for spec in ("l3:1500,1500", "l2:10000,10000"):
        assert run(capsys, "count", spec) == (2, "", "error: built\n")
    assert len(built) == 2
    # bad arguments get their builders' own messages, whatever their size
    monkeypatch.undo()
    for spec, message in (
        ("b:-1", "b_grid needs n >= 0, got -1"),
        ("l2:0,1000000", "l2_region needs n, k >= 1, got (0, 1000000)"),
        ("l3:-3,100000", "l3_region needs n, k >= 1, got (-3, 100000)"),
    ):
        assert run(capsys, "count", spec) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "spec",
    ["b:0", "b:5", "c:0", "c:3", "l2:1,4", "l2:6,2", "l3:2,3,NE", "rect:3,5", "a:4", "l3:2,3,SW"],
)
def test_the_guards_cell_counts_are_the_builders(spec):
    token, _, argtext = spec.partition(":")
    integers = [int(a) for a in argtext.split(",") if a.isdecimal()]
    assert cli._TOKENS[token][3](*integers) == parse_region_spec(spec).cell_count


def test_main_builds_its_parser_once(capsys):
    parser = cli.build_parser()
    misses = cli.build_parser.cache_info().misses
    assert run(capsys, "count", "a:2") == (0, "11\n", "")
    assert cli.build_parser() is parser and cli.build_parser.cache_info().misses == misses


# the corpus's argparse lines and its LEFT_TO_ARGPARSE list (tests/test_golden.py) hold
# the other argv the matcher must leave to argparse
@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        ["Count", "rect:2,2"],
        ["verify", "table1", "--max"],
        ["render", "l2:1,1", "--limit", "--json"],
        ["count", "rect:2,2", "--json=1"],
        ["seq", "F", "1"],
    ],
    ids=" ".join,
)
def test_the_matcher_leaves_all_but_the_plainest_argv_to_argparse(argv):
    assert cli._match(argv) is None


# an argv mutates by these tokens too: help, `--`, a lone dash, prefixes and `=` forms,
# signs, non-ASCII and underscored digits, spaces, integers at and past the int -> str
# digit limit, bad choices and stray words
_ODD = ["-h", "--help", "--", "-", "-1", "+1", "١", "²", "1_0", " 2", "007", "", "x", "ALL"]
_ODD += ["9" * 4300, "9" * 4301, "--js", "--meth", "--max-", "--li", "--t", "--method=closed"]
_ODD += ["--to=4", "--max=3", "--json=1", *cli._COMMANDS]
_ODD += [
    name for _, _, arguments in cli._COMMANDS.values() for names, _ in arguments for name in names
]


def _values(keywords):
    if "choices" in keywords:
        return list(keywords["choices"])
    if keywords.get("type") is int:
        return ["0", "1", "3", "12"]
    return ["F", "L3", "rect:2,2", "a:2", "table1"]


_MUTATIONS = st.lists(
    st.tuples(
        st.integers(0, 8),
        st.sampled_from(["replace", "insert", "repeat", "delete"]),
        st.sampled_from(_ODD),
    ),
    max_size=3,
)


@st.composite
def _argvs(draw):
    """A command's positionals and some of its options in any order, then mutated:
    tokens replaced, inserted, repeated and deleted."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    units = []
    for names, keywords in cli._COMMANDS[name][2]:
        if "dest" not in keywords:  # a positional
            units.append([draw(st.sampled_from(_values(keywords)))])
        elif draw(st.booleans()):
            unit = [draw(st.sampled_from(names))]
            if keywords.get("action") != "store_true":
                unit.append(draw(st.sampled_from(_values(keywords))))
            units.append(unit)
    argv = [name] + [token for unit in draw(st.permutations(units)) for token in unit]
    for at, mutation, token in draw(_MUTATIONS):
        at %= len(argv) + 1
        if mutation == "insert" or at == len(argv):
            argv.insert(at, token)
        elif mutation == "replace":
            argv[at] = token
        elif mutation == "repeat":
            argv[at:at] = argv[at : at + 2]
        else:
            del argv[at]
    return argv


@given(_argvs())
@settings(derandomize=True, database=None, max_examples=2000, deadline=None)
def test_the_matcher_reads_an_argv_as_argparse_does(argv):
    # one grammar: whatever the matcher reads, argparse reads alike, without exiting
    args = cli._match(argv)
    if args is not None:
        assert vars(args) == vars(cli._argparse_parser().parse_args(argv))


def test_the_parser_reads_sys_argv_and_leaves_help_to_argparse(capsys):
    parser = cli.build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["count", "rect:2,2", "-h"])
    assert capsys.readouterr().out.startswith("usage: tilecount count [-h] [--json] spec\n")
    old = sys.argv
    try:
        sys.argv = ["tilecount", "seq", "F", "1", "3", "--json"]
        assert vars(parser.parse_args()) == vars(cli._argparse_parser().parse_args(sys.argv[1:]))
    finally:
        sys.argv = old


def test_count_prints_past_the_int_str_digit_limit_and_leaves_it_alone():
    # a fresh interpreter, where nothing has lifted the process-wide limit
    # (4,300 digits by default): T(27000) has about 15,400 digits
    script = """
import contextlib, io, json, sys
from tilecount.cli import main
limit = getattr(sys, "get_int_max_str_digits", lambda: None)()

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()

code, seq, _ = run("seq", "T", "27000", "27000")
value = seq.split()[1]
assert run("count", "tower:27000") == (0, value + "\\n", "")
code, out, err = run("count", "tower:27000", "--json")
assert (code, err) == (0, "") and json.loads(out)["count"] == value
code, out, err = run("count", "tower:" + "9" * 5000)
assert (code, out) == (2, "") and err.startswith("error: "), err
assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
"""
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr


def _seq_refusal(name: str, lo: int, hi: int) -> str:
    return f"estimated work for {name}({lo}..{hi}) exceeds the budget of 1,500,000,000"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ("count", "rect:24,2000"),
            "estimated elimination work 65,985,242,400 exceeds the budget of 100,000,000",
            id="rect:24,2000",
        ),
        pytest.param(
            ("count", "rect:200,200"),
            "estimated elimination work 1,344,833,620,000 exceeds the budget of 100,000,000",
            id="rect:200,200",
        ),
        pytest.param(
            ("count", "rect:1000,1000"),
            "estimated elimination work 501,001,001,000,500,000 exceeds the budget of 100,000,000",
            id="rect:1000,1000",
        ),
        pytest.param(
            ("count", "box:1000,1000,1000"),
            "estimated layer-DP work 137,350,786,495,520,791,898,798,621,420,329,281,000 "
            "exceeds the budget of 30,000,000",
            id="box:1000,1000,1000",
        ),
        pytest.param(
            ("count", "tower:1000000"),
            "estimated layer-DP work 13,041,000,000 exceeds the budget of 30,000,000",
            id="tower:1000000",
        ),
        pytest.param(
            ("render", "rect:6,6"),
            "36 cells exceed the 30-cell enumeration budget",
            id="render rect:6,6",
        ),
        pytest.param(
            ("bfile", "L3", "--to", "1000000"),
            _seq_refusal("L3", 1, 1000000),
            id="bfile L3 --to 1000000",
        ),
        pytest.param(
            ("seq", "A", "1", "10000000"), _seq_refusal("A", 1, 10000000), id="seq A 1 10000000"
        ),
        pytest.param(
            ("seq", "T", "1", "100000", "--method", "matpow"),
            _seq_refusal("T", 1, 100000),
            id="seq T 1 100000 matpow",
        ),
        pytest.param(
            ("seq", "T", "1000000000", "1000000000", "--method", "matpow"),
            _seq_refusal("T", 10**9, 10**9),
            id="seq T 10^9 matpow",
        ),
        pytest.param(
            ("seq", "T", "1000000000", "1000000000", "--method", "closed"),
            _seq_refusal("T", 10**9, 10**9),
            id="seq T 10^9 closed",
        ),
        pytest.param(
            ("seq", "F", "0", str(10**400)), _seq_refusal("F", 0, 10**400), id="seq F 0 10^400"
        ),
    ],
)
def test_over_budget_counts_exit_2_fast(capsys, monkeypatch, argv, message):
    def computed(*args):
        raise AssertionError("a term was computed before the refusal")

    for name in ("rec_values", "rec_terms", "rec_eval_matpow", "closed_eval"):
        monkeypatch.setattr(sequences, name, computed)
    start = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert result == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "name, lo, hi, method",
    [
        # the benchmark's seq-big jobs at their largest offsets
        ("T", 252504, 252504, "matpow"),
        ("L3", 100999, 100999, "closed"),
        ("A", 1, 1009, "iter"),
        ("L3", 1, 4039, "iter"),
        # the single term the docs time, at about 0.3 s
        ("L3", 1000000, 1000000, "matpow"),
    ],
)
def test_seq_budget_admits_the_large_ranges_in_use(name, lo, hi, method):
    catalog()[name].terms(lo, hi, method)  # checks the budget; computes no term


@pytest.mark.parametrize(
    "name, method, single, last",
    [
        ("F", "iter", True, 45298856),
        ("F", "iter", False, 70588),
        ("F", "matpow", True, 46137724),
        ("F", "matpow", False, 9440),
        ("A", "iter", True, 19509155),
        ("A", "iter", False, 46324),
        ("A", "matpow", True, 19870436),
        ("A", "matpow", False, 6232),
        ("A", "closed", True, 19870436),
        ("A", "closed", False, 6232),
        ("B", "iter", True, 19509155),
        ("B", "iter", False, 46324),
        ("B", "matpow", True, 19870436),
        ("B", "matpow", False, 6232),
        ("B", "closed", True, 19870436),
        ("B", "closed", False, 6232),
        ("C", "iter", True, 19509155),
        ("C", "iter", False, 46324),
        ("C", "matpow", True, 19870436),
        ("C", "matpow", False, 6232),
        ("C", "closed", True, 19870436),
        ("C", "closed", False, 6232),
        ("T", "iter", True, 10169085),
        ("T", "iter", False, 49913),
        ("T", "matpow", True, 10252781),
        ("T", "matpow", False, 4445),
        ("T", "closed", True, 10252781),
        ("T", "closed", False, 4445),
        ("M", "iter", True, 10169085),
        ("M", "iter", False, 49913),
        ("M", "matpow", True, 10252781),
        ("M", "matpow", False, 4445),
        ("L3", "iter", True, 11594605),
        ("L3", "iter", False, 35712),
        ("L3", "matpow", True, 11809320),
        ("L3", "matpow", False, 4817),
        ("L3", "closed", True, 11809320),
        ("L3", "closed", False, 4817),
        ("L2D", "iter", True, 12831956),
        ("L2D", "iter", False, 56068),
        ("L2D", "matpow", True, 12937569),
        ("L2D", "matpow", False, 4982),
        ("L2D", "closed", True, 12937569),
        ("L2D", "closed", False, 4982),
    ],
)
def test_seq_budget_edges(name, method, single, last):
    # every family and method: the largest single term (`seq X n n`) and the
    # largest range from the family's start (`seq X start n`, `bfile X --to n`)
    # that the budget admits in Decimals, as `seq` and `bfile` compute. Family.terms
    # checks the budget on the call and computes no term until it is iterated.
    family, unit = catalog()[name], decimal.Decimal(1)
    lo = last if single else family.start
    family.terms(lo, last, method, unit)
    lo = last + 1 if single else family.start
    with pytest.raises(BudgetError) as refusal:
        family.terms(lo, last + 1, method, unit)
    assert str(refusal.value) == _seq_refusal(name, lo, last + 1)


def test_the_decimal_pass_raises_instead_of_rounding(capsys, monkeypatch):
    # With 50 digits of precision, L3's terms outgrow the context from n = 44.
    monkeypatch.setattr(sequences._exact_context(), "prec", 50)
    with pytest.raises((decimal.Inexact, decimal.Rounded)):
        main(["bfile", "L3", "--to", "200"])
    out = capsys.readouterr().out
    values = rec_values(catalog()["L3"].recurrence, 1, 200)
    expected = "".join(f"{n} {v}\n" for n, v in enumerate(values, 1))
    assert out and expected.startswith(out) and len(out) < len(expected)


@pytest.mark.parametrize("method", ["matpow", "closed"])
def test_the_decimal_jump_raises_instead_of_rounding(capsys, monkeypatch, method):
    # L3(200) has 115 digits, more than a 50-digit context holds.
    monkeypatch.setattr(sequences._exact_context(), "prec", 50)
    with pytest.raises((decimal.Inexact, decimal.Rounded)):
        main(["seq", "L3", "200", "200", "--method", method])
    assert capsys.readouterr().out == ""


class _Sink:
    """A stdout that keeps only the line count and the last line, however it is written."""

    def __init__(self):
        self.lines, self.last, self.tail = 0, "", ""

    def write(self, text):
        self.lines += text.count("\n")
        lines = (self.tail + text).split("\n")
        self.tail = lines[-1]
        if len(lines) > 1:
            self.last = lines[-2]
        return len(text)

    def flush(self):
        pass


def test_bfile_holds_only_a_window_of_terms(monkeypatch):
    expected = f"6000 {decimal_str(rec_eval_matpow(catalog()['L3'].recurrence, 6000))}"
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["bfile", "L3", "--to", "6000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.lines, sink.last) == (0, 6000, expected)
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# seq


def test_seq_reproduces_grid_table(capsys):
    code, out, _ = run(capsys, "seq", "A", "1", "10")
    assert code == 0
    values = [line.split("\t") for line in out.strip().splitlines()]
    assert values[0] == ["1", "3"]
    assert values[-1] == ["10", "413403"]


def test_seq_l3_start(capsys):
    code, out, _ = run(capsys, "seq", "L3", "1", "3")
    assert code == 0
    assert out == "1\t11\n2\t153\n3\t2131\n"


def test_seq_methods_agree(capsys):
    outputs = set()
    for method in ("iter", "matpow", "closed"):
        code, out, _ = run(capsys, "seq", "B", "0", "20", "--method", method)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_seq_json(capsys):
    code, out, _ = run(capsys, "seq", "T", "1", "2", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [
        {"family": "T", "n": 1, "value": "2"},
        {"family": "T", "n": 2, "value": "9"},
    ]


def test_seq_methods_print_the_same_table(capsys):
    outputs = [
        run(capsys, "seq", "A", "1", "300", "--method", method)
        for method in ("iter", "matpow", "closed")
    ]
    assert outputs[0][0] == 0 and len(outputs[0][1].splitlines()) == 300
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_seq_errors_exit_2(capsys):
    assert run(capsys, "seq", "Z", "1", "5")[0] == 2
    assert run(capsys, "seq", "F", "1", "5", "--method", "closed")[0] == 2
    assert run(capsys, "seq", "M", "1", "5", "--method", "closed")[0] == 2
    assert run(capsys, "seq", "A", "0", "5")[0] == 2  # below starting index
    assert run(capsys, "seq", "A", "5", "1") == (2, "", "error: empty range\n")
    assert run(capsys, "seq", "A", "0", "5") == (2, "", "error: family A starts at index 1\n")


def test_family_lookup_raises_instead_of_printing(capsys):
    with pytest.raises(ValueError, match="^family F has no closed form$"):
        catalog()["F"].terms(1, 1, "closed")
    with pytest.raises(ValueError, match="^unknown family 'Q'; known: F A B C T M L3 L2D$"):
        cli._family("Q")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("name", ["F", "T", "L3"])
def test_seq_iter_jumps_once_to_a_single_term(capsys, monkeypatch, name):
    # a range shorter than the order is one jump: no head term is thrown away
    family, calls = catalog()[name], []
    value = decimal_str(rec_eval_matpow(family.recurrence, 5000))
    jump = sequences._x_power

    def counted(coeffs, n, unit=1):
        calls.append((coeffs, n))
        return jump(coeffs, n, unit)

    monkeypatch.setattr(sequences, "_x_power", counted)
    assert run(capsys, "seq", name, "5000", "5000") == (0, f"5000\t{value}\n", "")
    assert calls == [(family.recurrence.coeffs, 5000 - family.start)]


# ---------------------------------------------------------------------------
# verify


def test_verify_crux_bounded(capsys):
    code, out, _ = run(capsys, "verify", "crux", "--max", "50")
    assert code == 0
    assert "crux.formula_vs_recurrence: 50/50 pass" in out


def test_verify_thm21_bounds(capsys):
    code, out, _ = run(capsys, "verify", "thm21", "--max-n", "4", "--max-k", "4")
    assert code == 0
    assert "thm21.region_vs_formula: 12/12 pass" in out


def test_verify_json_is_deterministic_and_well_formed(capsys):
    code, first, _ = run(capsys, "verify", "table2", "--json")
    assert code == 0
    code, second, _ = run(capsys, "verify", "table2", "--json")
    assert first == second
    lines = first.splitlines()
    summary = json.loads(lines[-1])
    assert summary["failed"] == 0
    assert summary["checks"] == len(lines) - 1
    record = json.loads(lines[0])
    assert set(record) == {"check", "params", "left", "right", "pass"}
    assert record["pass"] is True


def _dumped_lines(report, suite):
    """``verify --json`` output as ``json.dumps`` renders each record and the summary."""
    summary = {"suite": suite, "checks": len(report.checks), "failed": len(report.failures)}
    lines = [*dumped_records(report), json.dumps(summary, sort_keys=True, separators=(",", ":"))]
    return "".join(line + "\n" for line in lines)


def test_verify_all_json_is_json_dumps_of_each_record(capsys):
    code, out, err = run(capsys, "verify", "all", "--json")
    assert (code, err) == (0, "")
    assert out == _dumped_lines(identities.verify_all(), "all")
    assert out.endswith('\n{"checks":3738,"failed":0,"suite":"all"}\n')


def test_a_failing_check_prints_pass_false_and_exits_1(capsys, monkeypatch):
    # a count past the default int -> str digit limit, and a name json.dumps escapes
    big = 10**5000
    report = Report(
        [
            CheckResult('crux."quoted"\\name', (2,), big, big + 1),
            CheckResult("crux.fine", (1,), 3, 3),
        ]
    )
    monkeypatch.setitem(identities.SUITES, "crux", lambda max_n=200: report)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "verify", "crux", "--json")
    assert (code, err) == (1, "")
    assert out == _dumped_lines(report, "crux")
    assert '"pass":false' in out and out.endswith('{"checks":2,"failed":1,"suite":"crux"}\n')
    code, out, err = run(capsys, "verify", "crux")
    assert (code, err) == (1, "")
    assert f"FAIL crux.\"quoted\"\\name(2,): left={decimal_str(big)} right=" in out
    assert out.endswith("total: 2 checks, 1 failed\n")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_verify_rejects_bad_bounds(capsys):
    for argv, message in [
        (("table1", "--max", "99"), "max_n must be at most 10, got 99"),
        (("crux", "--max-k", "3"), "suite crux takes no max_k bound"),
        (("table2", "--max-k", "3"), "suite table2 takes no max_k bound"),
        (("all", "--max", "3"), "'verify all' runs fixed default bounds"),
    ]:
        assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [("verify", "crux"), ("verify", "crux", "--max", "3")])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_verify_with_no_checks_is_a_usage_error(capsys, monkeypatch, argv, json_flag):
    # Every bound is at least 1, so no bound leaves a suite empty; a suite
    # that still reports no checks must not pass vacuously.
    monkeypatch.setitem(identities.SUITES, "crux", lambda max_n=200: Report(()))
    code, out, err = run(capsys, *argv, *json_flag)
    assert (code, out) == (2, "")
    assert err == "error: suite crux has no checks within these bounds\n"


def test_an_internal_error_in_a_suite_is_not_a_usage_error(capsys, monkeypatch):
    def broken(max_n=200):
        raise TypeError("a bug inside the suite")

    monkeypatch.setitem(identities.SUITES, "crux", broken)
    with pytest.raises(TypeError, match="a bug inside the suite"):
        main(["verify", "crux", "--max", "3"])
    assert capsys.readouterr() == ("", "")


def test_a_closed_pipe_exits_0_not_2():
    # BrokenPipeError is an OSError: main must catch it before the usage errors
    src = str(Path(cli.__file__).parents[1])
    for argv, first in [
        (("bfile", "L3", "--to", "3000"), b"1 11\n"),
        (("seq", "F", "0", "20000"), b"0\t1\n"),
    ]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "tilecount.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.readline() == first
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0, argv
        assert proc.stderr.read() == b"", argv
        proc.stderr.close()


_CLI_OPTIONS = {"max_n": "--max-n", "max_k": "--max-k"}
_CLI_BOUNDS = [
    (suite, name, limit)
    for suite, limits in BOUNDS.items()
    for name, limit in limits.items()
    if name in _CLI_OPTIONS
]


@pytest.mark.parametrize(
    "suite, name, limit", _CLI_BOUNDS, ids=[f"{s}-{n}" for s, n, _ in _CLI_BOUNDS]
)
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_verify_refuses_every_bound_outside_1_to_its_limit(
    capsys, suite, name, limit, json_flag
):
    # the suite's other options sit at their lowest legal value
    others = [
        arg
        for other, option in _CLI_OPTIONS.items()
        if other != name and other in BOUNDS[suite]
        for arg in (option, "1")
    ]
    for bad, message in (
        (0, f"{name} must be at least 1, got 0"),
        (limit + 1, f"{name} must be at most {limit}, got {limit + 1}"),
    ):
        start = time.perf_counter()
        argv = ("verify", suite, *others, _CLI_OPTIONS[name], str(bad), *json_flag)
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("verify", "tauraso", "--max", "0"), "max_n must be at least 1, got 0"),
        (("verify", "tauraso", "--max", "3", "--max-k", "0"), "max_k must be at least 1, got 0"),
    ],
)
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_verify_tauraso_rejects_bounds_below_one(capsys, argv, message, json_flag):
    code, out, err = run(capsys, *argv, *json_flag)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "thm21", "--max-n", "0"),
        ("verify", "thm32", "--max", "0"),
        ("verify", "thm32", "--max", "-2"),
        ("verify", "crux", "--max", "0"),
        ("verify", "recurrences", "--max", "0"),
    ],
)
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_verify_rejects_max_n_below_one(capsys, argv, json_flag):
    code, out, err = run(capsys, *argv, *json_flag)
    assert code == 2
    assert out == ""
    assert err == f"error: max_n must be at least 1, got {argv[-1]}\n"


@pytest.mark.parametrize(
    "suite, limit", [("crux", 3000), ("thm32", 4000), ("recurrences", 4000)]
)
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_verify_rejects_max_n_above_its_limit(capsys, suite, limit, json_flag):
    code, out, err = run(capsys, "verify", suite, "--max", str(limit + 1), *json_flag)
    assert (code, out) == (2, "")
    assert err == f"error: max_n must be at most {limit}, got {limit + 1}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("thm21", "--max-n", "41"), "max_n must be at most 40, got 41"),
        (("thm21", "--max", "2", "--max-k", "41"), "max_k must be at most 40, got 41"),
        (("thm21", "--max-n", "100000"), "max_n must be at most 40, got 100000"),
        (("tauraso", "--max", "51"), "max_n must be at most 50, got 51"),
        (("tauraso", "--max-n", "3", "--max-k", "51"), "max_k must be at most 50, got 51"),
    ],
)
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_verify_rejects_each_thm21_and_tauraso_bound_above_its_limit(
    capsys, argv, message, json_flag
):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv, *json_flag)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_max_and_max_n_are_one_option(capsys):
    # two spellings of one option: when both are given, the last one wins
    assert run(capsys, "verify", "crux", "--max", "3", "--max-n", "4")[1] == run(
        capsys, "verify", "crux", "--max", "4"
    )[1]
    assert run(capsys, "verify", "crux", "--max-n", "4", "--max", "3")[1] == run(
        capsys, "verify", "crux", "--max-n", "3"
    )[1]
    assert "crux.formula_vs_closed: 3/3 pass" in run(capsys, "verify", "crux", "--max", "3")[1]


def test_verify_thm32_small_bound_stops_the_tower_rows_at_its_last_term(capsys):
    code, out, err = run(capsys, "verify", "thm32", "--max", "3")
    assert (code, err) == (0, "")
    assert out == (
        "thm32.even: 3/3 pass\n"
        "thm32.odd: 3/3 pass\n"
        "thm32.tower_dp: 7/7 pass\n"
        "total: 13 checks, 0 failed\n"
    )
    code, out, err = run(capsys, "verify", "thm32", "--max", "1", "--json")
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    towers = [r["params"] for r in records if r.get("check") == "thm32.tower_dp"]
    assert towers == [[1], [2], [3]]
    assert all(r["pass"] for r in records[:-1])
    assert records[-1] == {"suite": "thm32", "checks": 5, "failed": 0}


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# render


def test_render_counts_blocks(capsys):
    code, out, _ = run(capsys, "render", "a:1")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 3
    code, out, _ = run(capsys, "render", "b:0", "--limit", "5")
    assert out == "^\nv\n"


def test_render_order_is_pinned(capsys):
    # horizontal before vertical on the first free cell, in sorted order
    code, out, _ = run(capsys, "render", "a:1")
    assert code == 0
    assert out == "<>\n<>\n<>\n\n<>\n^^\nvv\n\n^^\nvv\n<>\n"


def test_render_respects_limit(capsys):
    code, out, _ = run(capsys, "render", "a:2", "--limit", "2")
    assert code == 0
    assert len(out.strip().split("\n\n")) == 2


def test_render_rejects_prisms_and_large_regions(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("a prism builder ran before the refusal")

    # every prism spec, over budget, malformed or small, before its builder runs
    for name in ("box", "tower", "m_tower"):
        monkeypatch.setattr(solid3d, name, no_build)
    message = "error: render supports 2D regions only\n"
    for spec in ("box:4,4,1", "box:0,1,1", "box:2,2,2", "tower:0", "tower:2", "mtower:3"):
        assert run(capsys, "render", spec) == (2, "", message), spec
    assert run(capsys, "render", "rect:4,8")[0] == 2


def test_render_refuses_a_large_region_before_it_is_built(capsys, monkeypatch):
    built = []

    def no_build(*args):
        built.append(args)
        raise AssertionError("a cell was built before the refusal")

    for name in ("rect", "a_grid", "b_grid", "c_grid", "l2_region", "l3_region"):
        monkeypatch.setattr(cli.regions2d, name, no_build)
    for spec, cells in (
        ("b:10000000", 60000002),
        ("rect:100000,100000", 10**10),
        ("l3:100000,100000,NE", 1200000),
    ):
        message = f"error: {cells} cells exceed the 30-cell enumeration budget\n"
        assert run(capsys, "render", spec) == (2, "", message)
    assert built == []
    monkeypatch.undo()
    message = "error: 36 cells exceed the 30-cell enumeration budget\n"
    assert run(capsys, "render", "rect:6,6") == (2, "", message)
    assert run(capsys, "render", "a:1") == (0, "<>\n<>\n<>\n\n<>\n^^\nvv\n\n^^\nvv\n<>\n", "")
    assert run(capsys, "render", "b:0", "--limit", "5") == (0, "^\nv\n", "")


def test_a_large_picture_is_refused_before_it_is_built(capsys, monkeypatch, tmp_path):
    big, five = tmp_path / "big300.txt", tmp_path / "five.txt"
    big.write_text(("#" * 300 + "\n") * 300)
    five.write_text(".##\n###\n")

    def no_build(text):
        raise AssertionError("a picture was built before the refusal")

    monkeypatch.setattr(cli.regions2d, "from_ascii", no_build)
    refusal = "error: estimated elimination work 745,290,000 exceeds the budget of 100,000,000\n"
    assert run(capsys, "count", f"@{big}") == (2, "", refusal)
    refusal = "error: 90000 cells exceed the 30-cell enumeration budget\n"
    assert run(capsys, "render", f"@{big}") == (2, "", refusal)
    monkeypatch.undo()
    assert run(capsys, "count", f"@{five}") == (0, "0\n", "")
    code, out, err = run(capsys, "count", f"@{five}", "--json")
    assert (code, err, json.loads(out)["cells"]) == (0, "", 5)


# ---------------------------------------------------------------------------
# bfile


def test_bfile_offsets(capsys):
    code, out, _ = run(capsys, "bfile", "C", "--to", "2")
    assert code == 0
    assert out == "0 2\n1 7\n2 26\n"
    code, out, _ = run(capsys, "bfile", "A", "--to", "10")
    assert out.splitlines()[-1] == "10 413403"
    code, out, _ = run(capsys, "bfile", "T", "--to", "10")
    assert out.splitlines()[-1] == "10 326041"
    code, out, _ = run(capsys, "bfile", "F", "--to", "3")
    assert out == "0 1\n1 1\n2 2\n3 3\n"


def test_bfile_errors(capsys):
    assert run(capsys, "bfile", "Q", "--to", "5")[0] == 2
    assert run(capsys, "bfile", "A", "--to", "0")[0] == 2


# ---------------------------------------------------------------------------
# general contract


def test_identical_invocations_are_byte_identical(capsys):
    first = run(capsys, "seq", "L3", "1", "12")
    second = run(capsys, "seq", "L3", "1", "12")
    assert first == second


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
    capsys.readouterr()
