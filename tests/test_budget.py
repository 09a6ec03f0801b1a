"""Each route's admission edge, pinned once on the budget checks themselves:
the last input admitted passes, and the next is refused with its exact message.
"""
import ast
import time
from decimal import Decimal
from pathlib import Path

import pytest

import tilecount
from tilecount import BudgetError, budget, l2, l3, sequences
from tilecount.sequences import catalog


def _seq(name, lo, hi, method, unit):
    budget.seq_terms(name, catalog()[name].recurrence.coeffs, lo, hi, method, unit)


def _det(work):
    return f"estimated elimination work {work} exceeds the budget of 100,000,000"


def _layers(work):
    return f"estimated layer-DP work {work} exceeds the budget of 30,000,000"


def _terms(name, lo, hi):
    return f"estimated work for {name}({lo}..{hi}) exceeds the budget of 1,500,000,000"


D = Decimal(1)

# (check, last admitted arguments, first refused arguments, the refusal's message)
EDGES = {
    "rect 56x58 / 58x58": (budget.rectangle, (56, 58), (58, 58), _det("107,790,514")),
    "rect 2x14288 / 2x14289": (budget.rectangle, (2, 14288), (2, 14289), _det("100,001,528")),
    "a:3609 / a:3610": (budget.rectangle, (3, 7218), (3, 7220), _det("100,078,448")),
    # a 2D spec of c cells, before it is built: a level of m cells adds m^3 >= m
    "cells 45751 / 45752": (budget.determinant, (45751,) * 2, (45752,) * 2, _det("100,002,411")),
    "tower 45088 / 45089": (
        budget.layer_dp,
        (45088, 4, 4 * 45088),
        (45089, 4, 4 * 45089),
        _layers("30,000,121"),
    ),
    "box 2x5x433 / 434": (
        budget.layer_dp,
        (433, 10, 10 * 433),
        (434, 10, 10 * 434),
        _layers("30,076,159"),
    ),
    "box 3x3x1093 / 1094": (
        budget.layer_dp,
        (1093, 9, 9 * 1093),
        (1094, 9, 9 * 1094),
        _layers("30,013,838"),
    ),
    "box 3x5x2 / 3": (budget.layer_dp, (2, 15, 30), (3, 15, 45), _layers("43,124,205")),
    "2D search 30 / 31": (
        budget.search,
        (30, budget.MAX_ORACLE_CELLS, "enumeration"),
        (31, budget.MAX_ORACLE_CELLS, "enumeration"),
        "31 cells exceed the 30-cell enumeration budget",
    ),
    "3D search 24 / 25": (
        budget.search,
        (24, budget.MAX_BRUTEFORCE_CELLS, "oracle"),
        (25, budget.MAX_BRUTEFORCE_CELLS, "oracle"),
        "25 cells exceed the 24-cell oracle budget",
    ),
    # one Decimal edge of each method, from the README's seq table
    "seq A 1 46324 iter": (
        _seq,
        ("A", 1, 46324, "iter", D),
        ("A", 1, 46325, "iter", D),
        _terms("A", 1, 46325),
    ),
    "seq T n n matpow": (
        _seq,
        ("T", 10252781, 10252781, "matpow", D),
        ("T", 10252782, 10252782, "matpow", D),
        _terms("T", 10252782, 10252782),
    ),
    "seq L3 n n closed": (
        _seq,
        ("L3", 11809320, 11809320, "closed", D),
        ("L3", 11809321, 11809321, "closed", D),
        _terms("L3", 11809321, 11809321),
    ),
    # an int jump multiplies by Karatsuba: A(3,349,454) takes about 2.5 s in ints
    "int jump A n n iter": (
        _seq,
        ("A", 3349454, 3349454, "iter", 1),
        ("A", 3349455, 3349455, "iter", 1),
        _terms("A", 3349455, 3349455),
    ),
}


@pytest.mark.parametrize("edge", EDGES)
def test_each_route_admits_its_edge_and_refuses_the_next_input(edge):
    check, admitted, refused, message = EDGES[edge]
    check(*admitted)
    with pytest.raises(BudgetError) as refusal:
        check(*refused)
    assert str(refusal.value) == message


def test_an_int_jump_is_charged_past_where_a_decimal_one_would_be(monkeypatch):
    _seq("A", 3349455, 3349455, "iter", D)  # refused above in ints

    def jumped(*args):
        raise AssertionError("the jump ran before the refusal")

    monkeypatch.setattr(sequences, "_x_power", jumped)
    start = time.perf_counter()
    with pytest.raises(BudgetError) as refusal:
        l3(10**7, 1)
    assert time.perf_counter() - start < 0.1
    assert str(refusal.value) == _terms("A", 10**7, 10**7)


@pytest.mark.parametrize(
    "formula, admitted, refused, name",
    [(l3, 1211393, 1211394, "A"), (l2, 3238913, 3238914, "F")],
)
def test_an_angle_formula_is_charged_for_all_its_jumps_before_the_first(
    monkeypatch, formula, admitted, refused, name
):
    # l3 makes 5 jumps, l2 4: each term alone is admitted far past the formula's edge
    # (A's int edge is 3,349,454, where l3 took about 7 s), but the whole formula is not
    for n in (refused, 3349454):
        _seq(name, n, n, "iter", 1)

    def jumped(*args):
        raise AssertionError("the jump ran before the refusal")

    monkeypatch.setattr(sequences, "_x_power", jumped)
    with pytest.raises(AssertionError, match="the jump ran"):
        formula(admitted, 1)
    for n in (refused, 3349454):
        start = time.perf_counter()
        with pytest.raises(BudgetError) as refusal:
            formula(n, 1)
        assert time.perf_counter() - start < 0.1
        assert str(refusal.value) == _terms(name, n, n)


def test_the_angle_formulas_admit_the_suites_and_the_witnesses_sizes():
    fams = catalog()
    a, b, c, f = (fams[name].eval for name in "ABCF")
    for n, k in [(40, 40), (40, 1), (1, 40), (10, 10), (9, 11)]:  # thm21's limits, count-sparse
        assert l3(n, k) == sequences.l3_formula(a, b, c, n, k)
    for n, k in [(50, 50), (50, 49), (1, 50), (50, 0)]:  # tauraso's limits
        assert l2(n, k) == sequences.l2_formula(f, n, k)


@pytest.mark.parametrize(
    "name, n, method",
    [("T", 252504, "matpow"), ("T", 252504, "closed"), ("L3", 100999, "matpow")],
)
def test_the_benchmark_witnesses_are_admitted_in_ints(name, n, method):
    _seq(name, n, n, method, 1)


def test_no_module_catches_a_refusal():
    # a caught BudgetError would be a fallback no budget charges; a refusal reaches the
    # caller, and only cli.main reports it, as the ValueError it is
    caught = []
    for path in sorted(Path(tilecount.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
                if "BudgetError" in names:
                    caught.append(f"{path.name}:{node.lineno}")
    assert caught == []
