"""Acceptance suite: one test per shipping criterion, each printing PASS/FAIL.

Expected values are frozen here independently of the library's own tables.
Criteria with a runtime budget measure wall-clock time around the work and
assert the stated bound.
"""
import time

from conftest import prism_corpus, region_corpus_2d
from tilecount import cli
from tilecount.count2d import count_tilings, count_tilings_bruteforce
from tilecount.regions2d import l2_region, l3_region
from tilecount.sequences import (
    catalog,
    closed_eval,
    decimal_str,
    fibonacci,
    l2,
    l3,
    rec_eval_matpow,
    rec_values,
)
from tilecount.solid3d import count_bricks, count_bricks_bruteforce, tower

GRID_TABLE = {
    "A": (3, 11, 41, 153, 571, 2131, 7953, 29681, 110771, 413403),
    "B": (4, 15, 56, 209, 780, 2911, 10864, 40545, 151316, 564719),
    "C": (7, 26, 97, 362, 1351, 5042, 18817, 70226, 262087, 978122),
    "L3": (
        11,
        153,
        2131,
        29681,
        413403,
        5757961,
        80198051,
        1117014753,
        15558008491,
        216695104121,
    ),
}
TOWER_TABLE = (2, 9, 32, 121, 450, 1681, 6272, 23409, 87362, 326041)


def _timed(budget_s):
    start = time.perf_counter()

    def check(label):
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"{label}: {elapsed:.2f}s exceeded {budget_s}s budget"
        return elapsed

    return check


def _announce(num, label, extra=""):
    print(f"criterion {num:02d} {label}: PASS {extra}".rstrip())


def _cli_lines(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_c01_table1_reproduction(capsys):
    check = _timed(1.0)
    for name, column in GRID_TABLE.items():
        expected = "".join(f"{n}\t{v}\n" for n, v in enumerate(column, start=1))
        assert _cli_lines(capsys, "seq", name, "1", "10") == expected
    elapsed = check("table1")
    _announce(1, "grid table via seq", f"({elapsed:.2f}s)")


def test_c02_table2_reproduction(capsys):
    check = _timed(10.0)
    expected = "".join(f"{n}\t{v}\n" for n, v in enumerate(TOWER_TABLE, start=1))
    assert _cli_lines(capsys, "seq", "T", "1", "10") == expected
    assert _cli_lines(capsys, "seq", "T", "1", "10", "--method", "closed") == expected
    assert _cli_lines(capsys, "seq", "T", "1", "10", "--method", "matpow") == expected
    for n in range(1, 9):
        assert count_bricks(tower(n)) == TOWER_TABLE[n - 1]
    elapsed = check("table2")
    _announce(2, "tower table via recurrence, closed form and 3D DP", f"({elapsed:.2f}s)")


def test_c03_thm21_geometric():
    check = _timed(30.0)
    for n in range(2, 6):
        for k in range(2, 6):
            assert count_tilings(l3_region(n, k)) == l3(n, k), (n, k)
    elapsed = check("thm21")
    _announce(3, "width-3 angle DP equals product formula for 2<=n,k<=5", f"({elapsed:.2f}s)")


def test_c04_crux_identity():
    a_values = rec_values(catalog()["A"].recurrence, 1, 400)
    for n in range(1, 201):
        assert l3(n, n) == a_values[2 * n - 1], n
    _announce(4, "equal-arm angle equals straight grid at doubled index, n<=200")


def test_c05_thm32_squares():
    t_values = rec_values(catalog()["T"].recurrence, 1, 401)
    a_values = rec_values(catalog()["A"].recurrence, 1, 200)
    b_values = rec_values(catalog()["B"].recurrence, 0, 200)
    for n in range(1, 201):
        assert t_values[2 * n - 1] == a_values[n - 1] ** 2, n
        assert t_values[2 * n] == 2 * b_values[n] ** 2, n
    for m in range(1, 10):
        assert count_bricks(tower(m)) == t_values[m - 1], m
    _announce(5, "tower counts are squares, n<=200, towers<=9 geometric")


def test_c06_tauraso():
    for n in range(1, 11):
        for k in range(1, 11):
            formula = fibonacci(n) * fibonacci(k - 1) + fibonacci(n - 1) * fibonacci(k)
            assert count_tilings(l2_region(n, k)) == formula == l2(n, k), (n, k)
    closed = catalog()["L2D"].closed
    for n in range(1, 201):
        assert closed_eval(closed, n) == l2(n, n - 1), n
    _announce(6, "width-2 angle DP and alternating closed form")


def test_c07_oracle_equivalence():
    regions = region_corpus_2d()
    prisms = prism_corpus()
    assert len(regions) + len(prisms) >= 300
    mismatches = 0
    for region in regions:
        if count_tilings(region) != count_tilings_bruteforce(region):
            mismatches += 1
    for prism in prisms:
        if count_bricks(prism) != count_bricks_bruteforce(prism):
            mismatches += 1
    assert mismatches == 0
    _announce(7, f"DP equals brute force on {len(regions) + len(prisms)} regions/prisms")


def test_c08_evaluator_agreement():
    for name, family in catalog().items():
        references = rec_values(family.recurrence, family.start, 500)
        for n, reference in enumerate(references, family.start):
            assert rec_eval_matpow(family.recurrence, n) == reference, (name, n)
            if family.closed is not None:
                # closed_eval raises if cancellation or integrality ever fails
                assert closed_eval(family.closed, n) == reference, (name, n)
    _announce(8, "iter = matpow = closed on every family, n<=500")


def test_c09_performance():
    rec = catalog()["L3"].recurrence
    start = time.perf_counter()
    big = rec_eval_matpow(rec, 100_000)
    matpow_s = time.perf_counter() - start
    assert matpow_s < 5.0, f"matpow took {matpow_s:.2f}s"
    assert len(decimal_str(big)) > 100_000  # ~115k digits

    start = time.perf_counter()
    (medium,) = rec_values(rec, 10_000, 10_000)
    iter_s = time.perf_counter() - start
    assert iter_s < 2.0, f"iter took {iter_s:.2f}s"
    assert rec_eval_matpow(rec, 10_000) == medium
    _announce(9, f"matpow n=1e5 in {matpow_s:.2f}s, iter n=1e4 in {iter_s:.2f}s")


def test_c10_determinism(capsys):
    first = _cli_lines(capsys, "verify", "all", "--json")
    second = _cli_lines(capsys, "verify", "all", "--json")
    assert first.encode() == second.encode()
    _announce(10, "verify all --json is byte-identical across runs")
