import inspect
import json

import pytest

from conftest import dumped_records, run_fresh
from tilecount import identities, sequences
from tilecount.count2d import count_tilings
from tilecount.identities import (
    BOUNDS,
    SUITES,
    TABLE1,
    TABLE2_T,
    CheckResult,
    Report,
    verify_all,
    verify_coupled_recurrences,
    verify_crux,
    verify_table1,
    verify_table2,
    verify_tauraso,
    verify_thm21,
    verify_thm32,
)
from tilecount.regions2d import ORIENTATIONS, l3_region
from tilecount.sequences import l3


def test_check_result_carries_witnesses():
    good = CheckResult("x", (1,), 7, 7)
    bad = CheckResult("x", (2,), 7, 8)
    assert good.passed and not bad.passed
    assert (bad.left, bad.right) == (7, 8)


def test_report_is_sorted_and_sorted_stably():
    raw = [
        CheckResult("b", (2,), 1, 1),
        CheckResult("a", (5, 1), 1, 1),
        CheckResult("b", (1,), 1, 2),
        CheckResult("a", (1, 9), 1, 1),
    ]
    report = Report(raw)
    keys = [(c.name, c.params) for c in report.checks]
    assert keys == sorted(keys)
    assert report.failures == (raw[2],)
    assert report.failures is report.failures  # scanned once per report
    assert not report.all_passed
    assert Report(raw).checks == report.checks


def test_report_text_and_records():
    report = Report([CheckResult("demo", (3,), 4, 5)])
    text = report.to_text()
    assert "demo: 0/1 pass" in text
    assert "left=4 right=5" in text
    (line,) = report.json_lines().splitlines()
    assert json.loads(line) == {
        "check": "demo",
        "params": [3],
        "left": "4",
        "right": "5",
        "pass": False,
    }


@pytest.mark.parametrize("suite", SUITES)
def test_json_lines_are_json_dumps_of_each_record_for_every_suite(suite):
    report = SUITES[suite]()
    assert report.json_lines() == "\n".join(dumped_records(report))


def test_json_lines_escape_names_and_render_failures_as_json_dumps():
    report = Report(
        [
            CheckResult('quote"and\\backslash', (1, 20), 4, 5),
            CheckResult("caf\u00e9\ttab", (), 7, 7),
            CheckResult('quote"and\\backslash', (2, 3), 10**40, 10**40),
            CheckResult("negative", (0,), -3, 3),
        ]
    )
    lines = report.json_lines()
    assert lines == "\n".join(dumped_records(report))
    assert [json.loads(line)["pass"] for line in lines.splitlines()] == [True, False, False, True]
    assert '"check":"quote\\"and\\\\backslash"' in lines


def test_reports_render_counts_past_the_int_str_digit_limit():
    # a fresh interpreter, where no earlier cli.main call can have lifted the
    # process-wide limit (4,300 digits by default); verify_thm32(4000) reports
    # T(8001), which has about 4,576 digits
    script = """
import sys
import json
from tilecount.identities import CheckResult, Report
limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
big = 10**5000
report = Report([CheckResult("big", (1,), big, big + 1)])
left, right = "1" + "0" * 5000, "1" + "0" * 4999 + "1"
record = {"check": "big", "params": [1], "left": left, "right": right, "pass": False}
assert report.json_lines() == json.dumps(record, sort_keys=True, separators=(",", ":"))
assert f"left={left} right={right}" in report.to_text()
assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
"""
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr


def test_table1_passes_and_bounds_checked():
    report = verify_table1(10)
    assert report.all_passed
    names = {c.name for c in report.checks}
    assert names == {
        "table1.A.recurrence", "table1.A.closed", "table1.A.dp",
        "table1.B.recurrence", "table1.B.closed", "table1.B.dp",
        "table1.C.recurrence", "table1.C.closed", "table1.C.dp",
        "table1.L3.recurrence", "table1.L3.closed", "table1.L3.dp",
    }
    with pytest.raises(ValueError, match="^max_n must be at least 1, got 0$"):
        verify_table1(0)
    with pytest.raises(ValueError, match="^max_n must be at most 10, got 11$"):
        verify_table1(11)


def test_table1_columns_increase():
    for column in TABLE1.values():
        assert all(a < b for a, b in zip(column, column[1:]))


def test_table1_spot_values():
    assert TABLE1["A"][8] == 110771
    assert TABLE1["L3"][5] == 5757961


def test_table2_passes():
    report = verify_table2(10)
    assert report.all_passed
    assert TABLE2_T[4] == 450
    assert TABLE2_T[7] == 23409
    assert TABLE2_T[5] == 1681 == 41**2


def test_thm21_passes_and_covers_range():
    report = verify_thm21(4, 4)
    assert report.all_passed
    main_params = {c.params for c in report.checks if c.name == "thm21.region_vs_formula"}
    assert main_params == {(n, k) for n in range(2, 5) for k in range(1, 5)}
    ext_params = {c.params for c in report.checks if c.name == "thm21.n1_extension"}
    assert ext_params == {(1, k) for k in range(1, 5)}


def test_thm21_all_orientations_match_formula():
    # calibration: every shipped corner orientation reproduces the formula
    for orientation in ORIENTATIONS:
        for n, k in [(2, 1), (2, 2), (3, 2), (2, 3)]:
            assert count_tilings(l3_region(n, k, orientation)) == l3(n, k)


def test_crux_passes():
    report = verify_crux(60)
    assert report.all_passed
    by_param = {
        c.params: c for c in report.checks if c.name == "crux.formula_vs_recurrence"
    }
    assert by_param[(1,)].left == 11
    assert by_param[(4,)].left == 29681


def test_every_suite_makes_as_many_jumps_at_its_limits_as_at_its_defaults(monkeypatch):
    # each family's terms come from one pass, whose head is one jump, and each closed
    # range from one jump per base; the 2D counts make no jump, so they are stubbed out
    jumps, jump = [], sequences._x_power

    def counted(coeffs, n, unit=1):
        jumps.append(n)
        return jump(coeffs, n, unit)

    monkeypatch.setattr(sequences, "_x_power", counted)
    monkeypatch.setattr(identities, "count_tilings", lambda region: 0)
    counts = {}
    for suite, verify in SUITES.items():
        for bounds in ({}, BOUNDS[suite]):
            jumps.clear()
            verify(**bounds)
            counts.setdefault(suite, []).append(len(jumps))
    assert counts == {suite: [n, n] for suite, (n, _) in counts.items()}
    # thm21: one head each for A, B and C; tauraso: F's head and L2D's two bases
    assert counts == {
        "table1": [8, 8],
        "table2": [3, 3],
        "thm21": [3, 3],
        "crux": [4, 4],
        "thm32": [3, 3],
        "tauraso": [3, 3],
        "recurrences": [5, 5],
    }


def test_thm32_passes():
    report = verify_thm32(60)
    assert report.all_passed
    evens = {c.params: c for c in report.checks if c.name == "thm32.even"}
    odds = {c.params: c for c in report.checks if c.name == "thm32.odd"}
    assert evens[(2,)].left == 121 == 11**2
    assert odds[(4,)].left == 87362 == 2 * 209**2
    dp = {c.params for c in report.checks if c.name == "thm32.tower_dp"}
    assert dp == {(m,) for m in range(1, 10)}


@pytest.mark.parametrize("max_n", [1, 2, 3, 4, 5])
def test_thm32_tower_rows_stop_at_the_last_computed_term(max_n):
    report = verify_thm32(max_n)
    assert report.all_passed
    dp = {c.params for c in report.checks if c.name == "thm32.tower_dp"}
    assert dp == {(m,) for m in range(1, min(9, 2 * max_n + 1) + 1)}


def test_tauraso_passes():
    report = verify_tauraso(6, 6)
    assert report.all_passed
    region_checks = {
        c.params: c for c in report.checks if c.name == "tauraso.region_vs_formula"
    }
    assert region_checks[(3, 2)].left == 7
    for bounds in ({"max_n": 0}, {"max_k": 0}):
        with pytest.raises(ValueError):
            verify_tauraso(**bounds)
    with pytest.raises(TypeError, match="diag_max"):
        verify_tauraso(diag_max=200)


def test_coupled_recurrences_pass():
    report = verify_coupled_recurrences(80)
    assert report.all_passed
    by_check = {}
    for c in report.checks:
        by_check.setdefault(c.name, {})[c.params] = c
    assert by_check["recurrences.C"][(4,)].left == 362  # 153 + 209
    assert by_check["recurrences.T"][(3,)].left == 32
    assert by_check["recurrences.A"][(2,)].left == 11


def test_verify_all_merges_everything():
    report = verify_all()
    assert report.all_passed
    names = {c.name.split(".")[0] for c in report.checks}
    assert names == {"table1", "table2", "thm21", "crux", "thm32", "tauraso", "recurrences"}
    # the suites build their checks by tuple.__new__: each is still a whole CheckResult
    assert all(type(c) is CheckResult and len(c) == 4 for c in report.checks)


def _sorted_whole() -> Report:
    return Report(check for suite in SUITES.values() for check in suite().checks)


def test_verify_all_joins_the_suites_into_the_sorted_whole(monkeypatch):
    joined, whole = verify_all(), _sorted_whole()
    assert joined.checks == whole.checks
    assert joined.failures == whole.failures == ()
    # failures planted in two suites whose SUITES order is not their sorted order
    planted = {
        "table1": CheckResult("table1.A.dp", (0,), 1, 2),
        "crux": CheckResult("crux.formula_vs_closed", (0,), 3, 4),
    }
    for name, failure in planted.items():
        suite = SUITES[name]

        def with_failure(suite=suite, failure=failure) -> Report:
            return Report((*suite().checks, failure))

        monkeypatch.setitem(SUITES, name, with_failure)
    joined, whole = verify_all(), _sorted_whole()
    assert joined.checks == whole.checks
    assert joined.failures == whole.failures == (planted["crux"], planted["table1"])
    assert joined.to_text() == whole.to_text()
    assert joined.json_lines() == whole.json_lines()


def test_reports_are_deterministic():
    first = verify_thm21(3, 3)
    second = verify_thm21(3, 3)
    assert first.checks == second.checks
    assert first.to_text() == second.to_text()
    assert first.json_lines() == second.json_lines()


_BOUNDS = [
    (suite, name, limit) for suite, limits in BOUNDS.items() for name, limit in limits.items()
]


def test_bounds_name_every_suite_and_each_of_its_parameters():
    assert BOUNDS.keys() == SUITES.keys()
    for suite, verify in SUITES.items():
        params = inspect.signature(verify).parameters
        assert list(params) == list(BOUNDS[suite]), suite
        for name, param in params.items():
            assert 1 <= param.default <= BOUNDS[suite][name], (suite, name)


@pytest.mark.parametrize("suite, name, limit", _BOUNDS, ids=[f"{s}-{n}" for s, n, _ in _BOUNDS])
def test_every_bound_is_an_integer_from_1_to_its_limit(suite, name, limit):
    assert SUITES[suite](**{name: 1}).all_passed
    with pytest.raises(ValueError, match=f"^{name} must be at least 1, got 0$"):
        SUITES[suite](**{name: 0})
    with pytest.raises(ValueError, match=f"^{name} must be at most {limit}, got {limit + 1}$"):
        SUITES[suite](**{name: limit + 1})
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got 2.0$"):
        SUITES[suite](**{name: 2.0})
