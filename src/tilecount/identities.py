"""Cross-checks between geometric counts and algebraic sequence values.

Each ``verify_*`` function confronts two independently computed values per
check and returns a deterministic Report. The reference tables for the grid
and tower families are frozen here; everything else is recomputed.
"""
from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import chain, groupby
from operator import itemgetter

from .count2d import count_tilings
from .record import Record
from .regions2d import a_grid, b_grid, c_grid, l2_region, l3_region
from .sequences import catalog, decimal_str, l2_formula, l3_formula
from .solid3d import layer_counts, tower

# Reference values, n = 1..10.
TABLE1 = {
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
TABLE2_T = (2, 9, 32, 121, 450, 1681, 6272, 23409, 87362, 326041)

# The towers verify_thm32 counts by the 3D layer DP stop here.
THM32_DP_MAX = 9

# Every bound of every suite is an integer from 1 to its limit here. crux,
# thm32 and recurrences hold every term up to their bound, so memory grows with
# its square; thm21 and tauraso count one 2D region per (n, k), so time grows
# faster than max_n * max_k, and each bound needs its own limit; table1 and
# table2 end with their frozen columns. With every bound of a suite at its
# limit, `verify <suite> ... --json` took at most 3.4 s and 92 MiB as a whole
# process (three runs each, CPython 3.11.7, shared 2-vCPU Xeon): thm21 3.1-3.4 s,
# nearly all in its 1,600 determinants; thm32 2.8-3.0 s; the others under 2.5 s.
BOUNDS = {
    "table1": {"max_n": 10},
    "table2": {"max_n": 10},
    "thm21": {"max_n": 40, "max_k": 40},
    "crux": {"max_n": 3000},
    "thm32": {"max_n": 4000},
    "tauraso": {"max_n": 50, "max_k": 50},
    "recurrences": {"max_n": 4000},
}


class CheckResult(namedtuple("CheckResult", ("name", "params", "left", "right"))):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.left == self.right


# A CheckResult from one (name, params, left, right) tuple, by tuple's own constructor:
# the suites build thousands, and namedtuple's generated __new__ is Python code.
_check_result = partial(tuple.__new__, CheckResult)


class Report(Record):
    """Checks sorted by name and parameters, and the failed ones among them."""

    __slots__ = ("checks", "failures")

    def __init__(self, checks) -> None:
        checks = tuple(sorted(checks, key=itemgetter(0, 1)))
        # left != right, not c.passed: reading the fields takes half the time, and
        # every report scans here once, the suites' own ones inside verify_all too
        super().__init__(checks, tuple(c for c in checks if c.left != c.right))

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def json_lines(self) -> str:
        """Machine format: one JSON object per check and line, counts as decimal strings.

        Each line is ``json.dumps`` of the record {check, left, params, pass,
        right} with sorted keys and no spaces, rendered here directly: only
        the check name can need escaping. Two pieces are built once per call
        and reused: each name's ``{"check":...,"left":"`` head, and each
        params tuple's ``","params":[...],"pass":`` piece. A passing check's
        two equal counts are converted once.
        """
        import json  # only --json output needs it, so counting never loads it

        heads: dict[str, str] = {}
        middles: dict[tuple, str] = {}
        lines = []
        for name, params, left, right in self.checks:
            head = heads.get(name)
            if head is None:
                head = heads[name] = f'{{"check":{json.dumps(name)},"left":"'
            middle = middles.get(params)
            if middle is None:
                middle = middles[params] = f'","params":[{",".join(map(str, params))}],"pass":'
            left_str = decimal_str(left)
            if left == right:
                lines.append(f'{head}{left_str}{middle}true,"right":"{left_str}"}}')
            else:
                lines.append(f'{head}{left_str}{middle}false,"right":"{decimal_str(right)}"}}')
        return "\n".join(lines)

    def to_text(self) -> str:
        lines = []
        for name, group in groupby(self.checks, key=itemgetter(0)):  # checks are sorted by name
            passed = [c.passed for c in group]
            lines.append(f"{name}: {sum(passed)}/{len(passed)} pass")
        for c in self.failures:
            lines.append(
                f"FAIL {c.name}{c.params}: left={decimal_str(c.left)} right={decimal_str(c.right)}"
            )
        lines.append(
            f"total: {len(self.checks)} checks, {len(self.failures)} failed"
        )
        return "\n".join(lines)


def _family_values(name: str, lo: int, hi: int, method: str = "iter") -> dict[int, int]:
    """Terms lo..hi of family ``name`` from one ``Family.terms`` range, keyed by index."""
    return dict(zip(range(lo, hi + 1), catalog()[name].terms(lo, hi, method)))


def _check_bounds(suite: str, **bounds: int) -> None:
    """Raise unless each of the suite's bounds is an integer from 1 to its limit."""
    for name, limit in BOUNDS[suite].items():
        bound = bounds[name]
        if not isinstance(bound, int):
            raise TypeError(f"{name} must be an integer, got {bound!r}")
        if bound < 1:
            raise ValueError(f"{name} must be at least 1, got {bound}")
        if bound > limit:
            raise ValueError(f"{name} must be at most {limit}, got {bound}")


def _each(count):
    """Geometric counts of n = 1..last, one ``count(n)`` call each."""
    return lambda last: [count(n) for n in range(1, last + 1)]


# Frozen table rows: (family, column for n = 1..10, geometric counts of
# n = 1..last, last n counted). The geometric work stops early where it would
# slow the default suite; the towers are all read from one layer DP pass.
_TABLE1_ROWS = (
    ("A", TABLE1["A"], _each(lambda n: count_tilings(a_grid(n))), 10),
    ("B", TABLE1["B"], _each(lambda n: count_tilings(b_grid(n))), 10),
    ("C", TABLE1["C"], _each(lambda n: count_tilings(c_grid(n))), 10),
    ("L3", TABLE1["L3"], _each(lambda n: count_tilings(l3_region(n, n))), 6),
)
_TABLE2_ROWS = (("T", TABLE2_T, lambda last: layer_counts(tower(last)), 8),)


def _table(suite: str, rows, max_n: int) -> Report:
    """Each row's column by recurrence, closed form and geometric count."""
    _check_bounds(suite, max_n=max_n)
    fams = catalog()
    checks = []
    for name, column, geometric, last_counted in rows:
        fam = fams[name]
        recurrence, closed = fam.terms(1, max_n), fam.terms(1, max_n, "closed")
        for n, by_rec, by_closed in zip(range(1, max_n + 1), recurrence, closed):
            expected = column[n - 1]
            checks.append(_check_result((f"{suite}.{name}.recurrence", (n,), by_rec, expected)))
            checks.append(_check_result((f"{suite}.{name}.closed", (n,), by_closed, expected)))
        counts = geometric(min(max_n, last_counted))
        for n, count in enumerate(counts, start=1):
            checks.append(_check_result((f"{suite}.{name}.dp", (n,), count, column[n - 1])))
    return Report(checks)


def verify_table1(max_n: int = 10) -> Report:
    """Grid-family table, each column by recurrence, closed form and 2D count."""
    return _table("table1", _TABLE1_ROWS, max_n)


def verify_table2(max_n: int = 10) -> Report:
    """Tower counts by recurrence, closed form and the 3D layer DP."""
    return _table("table2", _TABLE2_ROWS, max_n)


def verify_thm21(max_n: int = 5, max_k: int = 5) -> Report:
    """Width-3 angle: 2D count against the A/B/C product decomposition.

    The decomposition applies from n >= 2; the n = 1 row also matches and is
    reported separately as an extension rather than folded into the main
    check.
    """
    _check_bounds("thm21", max_n=max_n, max_k=max_k)
    last = max(max_n, max_k)
    a = _family_values("A", 1, last).__getitem__
    b = _family_values("B", 0, last).__getitem__
    c = _family_values("C", 0, last).__getitem__
    checks = []
    for n in range(1, max_n + 1):
        name = "thm21.n1_extension" if n == 1 else "thm21.region_vs_formula"
        for k in range(1, max_k + 1):
            formula = l3_formula(a, b, c, n, k)
            checks.append(_check_result((name, (n, k), count_tilings(l3_region(n, k)), formula)))
    return Report(checks)


def verify_crux(max_n: int = 200) -> Report:
    """Equal-arm width-3 angle equals the straight grid at doubled index."""
    _check_bounds("crux", max_n=max_n)
    a = _family_values("A", 1, 2 * max_n)
    b = _family_values("B", 0, max_n)
    c = _family_values("C", 0, max_n)
    closed = _family_values("A", 1, 2 * max_n, "closed")
    checks = []
    for n in range(1, max_n + 1):
        diagonal = l3_formula(a.__getitem__, b.__getitem__, c.__getitem__, n, n)
        checks.append(_check_result(("crux.formula_vs_recurrence", (n,), diagonal, a[2 * n])))
        checks.append(_check_result(("crux.formula_vs_closed", (n,), diagonal, closed[2 * n])))
    return Report(checks)


def verify_thm32(max_n: int = 200) -> Report:
    """Tower counts as squares: T(2n) = A(n)^2 and T(2n+1) = 2 B(n)^2.

    The towers counted by the 3D layer DP, all read from one pass, stop at
    THM32_DP_MAX layers, and at T(2 max_n + 1), the last term the bound
    computes.
    """
    _check_bounds("thm32", max_n=max_n)
    t = _family_values("T", 1, 2 * max_n + 1)
    a = _family_values("A", 1, max_n)
    b = _family_values("B", 0, max_n)
    checks = []
    for n in range(1, max_n + 1):
        checks.append(_check_result(("thm32.even", (n,), t[2 * n], a[n] ** 2)))
        checks.append(_check_result(("thm32.odd", (n,), t[2 * n + 1], 2 * b[n] ** 2)))
    tower_dp = layer_counts(tower(min(THM32_DP_MAX, 2 * max_n + 1)))
    for m, count in enumerate(tower_dp, start=1):
        checks.append(_check_result(("thm32.tower_dp", (m,), count, t[m])))
    return Report(checks)


def verify_tauraso(max_n: int = 8, max_k: int = 8) -> Report:
    """Width-2 angle: 2D count against the Fibonacci product formula, plus the
    diagonal n = 1..200 against its alternating closed form."""
    _check_bounds("tauraso", max_n=max_n, max_k=max_k)
    f = _family_values("F", 0, max(max_n, max_k, 200)).__getitem__
    checks = []
    for n in range(1, max_n + 1):
        for k in range(1, max_k + 1):
            count, formula = count_tilings(l2_region(n, k)), l2_formula(f, n, k)
            checks.append(_check_result(("tauraso.region_vs_formula", (n, k), count, formula)))
    closed = catalog()["L2D"].terms(1, 200, "closed")
    for n, value in enumerate(closed, start=1):
        formula = l2_formula(f, n, n - 1)
        checks.append(_check_result(("tauraso.diagonal_closed", (n,), value, formula)))
    return Report(checks)


def verify_coupled_recurrences(max_n: int = 500) -> Report:
    """The five pairwise identities tying A, B, C and T, M together."""
    _check_bounds("recurrences", max_n=max_n)
    a = _family_values("A", 1, max_n)
    b = _family_values("B", 0, max_n)
    c = _family_values("C", 0, max_n)
    t = _family_values("T", 1, max_n)
    m = _family_values("M", 1, max_n)
    checks = []
    for n in range(2, max_n + 1):
        checks.append(_check_result(("recurrences.A", (n,), a[n], a[n - 1] + 2 * b[n - 1])))
    for n in range(1, max_n + 1):
        checks.append(_check_result(("recurrences.B", (n,), b[n], a[n] + b[n - 1])))
        checks.append(_check_result(("recurrences.C", (n,), c[n], a[n] + b[n])))
    for n in range(3, max_n + 1):
        checks.append(
            _check_result(("recurrences.T", (n,), t[n], 2 * t[n - 1] + t[n - 2] + 4 * m[n - 1]))
        )
    for n in range(2, max_n + 1):
        checks.append(_check_result(("recurrences.M", (n,), m[n], t[n - 1] + m[n - 1])))
    return Report(checks)


SUITES = {
    "table1": verify_table1,
    "table2": verify_table2,
    "thm21": verify_thm21,
    "crux": verify_crux,
    "thm32": verify_thm32,
    "tauraso": verify_tauraso,
    "recurrences": verify_coupled_recurrences,
}


def verify_all() -> Report:
    """Every suite at its default bounds, in one report.

    Every check name starts with its suite's name and a dot, so the suites'
    sorted reports, joined in the order of those prefixes, are already the
    sorted whole, and so are their failures: nothing is sorted or scanned
    again. The suites run in ``SUITES`` order.
    """
    reports = {f"{name}.": suite() for name, suite in SUITES.items()}
    ordered = [reports[prefix] for prefix in sorted(reports)]
    joined = Report.__new__(Report)
    Record.__init__(
        joined,
        tuple(chain.from_iterable(report.checks for report in ordered)),
        tuple(chain.from_iterable(report.failures for report in ordered)),
    )
    return joined
