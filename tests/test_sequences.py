import decimal
import random
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tilecount import BudgetError, sequences
from tilecount.cli import main
from tilecount.sequences import (
    ClosedForm,
    ClosedFormCancellationError,
    Family,
    LinearRecurrence,
    catalog,
    certified_recurrence,
    closed_eval,
    decimal_str,
    fibonacci,
    l2,
    l2_formula,
    l3,
    l3_formula,
    rec_eval_matpow,
    rec_terms,
    rec_values,
    vector_jump,
)

# ---------------------------------------------------------------------------
# Powers in Z[sqrt d]


def _quad_mul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _integral_bases(rng, d, b, count):
    """``count`` random (p, r) with (p + r sqrt d) / b an algebraic integer."""
    bases = []
    while len(bases) < count:
        p, r = rng.randint(-9, 9), rng.randint(-9, 9)
        if 2 * p % b == 0 and (p * p - d * r * r) % (b * b) == 0:
            bases.append((p, r))
    return bases


def _base_pow(p, r, d, b, e):
    """b beta^e = u + v sqrt d for beta = (p + r sqrt d) / b, from ``_x_power``."""
    t, s = sequences._x_power((2 * p // b, -((p * p - d * r * r) // (b * b))), e)
    return s * p + b * t, s * r


def test_pow_matches_repeated_multiplication():
    # b^e (b beta^e) = b (p + r sqrt d)^e, computed by repeated multiplication in Z[sqrt d]
    rng = random.Random(0)
    for d, b in ((2, 1), (3, 1), (5, 1), (5, 2), (13, 2)):
        for p, r in _integral_bases(rng, d, b, 10):
            acc = (1, 0)
            for e in range(40):
                u, v = _base_pow(p, r, d, b, e)
                assert (u * b**e, v * b**e) == (b * acc[0], b * acc[1])
                acc = _quad_mul(acc, (p, r), d)


@pytest.mark.parametrize("d", [3, 5])
def test_conjugation_is_a_ring_homomorphism(d):
    # closed_eval reads the power of a conjugate base off the same (s, t)
    rng = random.Random(100 + d)
    for b in (1, 2):
        for p, r in _integral_bases(rng, d, b, 25):
            e = rng.randint(0, 60)
            u, v = _base_pow(p, r, d, b, e)
            conjugate = (1, 0)
            for _ in range(e):
                conjugate = _quad_mul(conjugate, (p, -r), d)
            assert (u * b**e, -v * b**e) == (b * conjugate[0], b * conjugate[1])
            assert u * u - d * v * v == b * b * ((p * p - d * r * r) // (b * b)) ** e


# ---------------------------------------------------------------------------
# Recurrence evaluation


def test_recurrence_validation():
    with pytest.raises(ValueError, match=r"^recurrence order must be >= 1$"):
        LinearRecurrence((), ())
    with pytest.raises(ValueError, match=r"^need 2 initial terms, got 1$"):
        LinearRecurrence((1, 1), (1,))
    with pytest.raises(ValueError, match=r"^need 1 initial terms, got 0$"):
        LinearRecurrence((3,), (), start=4)


def test_iter_below_start_raises():
    rec = catalog()["A"].recurrence
    with pytest.raises(ValueError):
        rec_values(rec, 0, 0)
    with pytest.raises(ValueError):
        rec_eval_matpow(rec, 0)
    with pytest.raises(ValueError, match="^family A starts at index 1$"):
        catalog()["A"].eval(0)


def test_initial_terms_returned_directly():
    rec = catalog()["T"].recurrence
    assert [catalog()["T"].eval(n) for n in (1, 2, 3)] == [2, 9, 32]
    assert [rec_eval_matpow(rec, n) for n in (1, 2, 3)] == [2, 9, 32]


def test_known_values_by_iteration():
    fams = catalog()
    assert rec_values(fams["A"].recurrence, 3, 3) == [41]
    assert rec_values(fams["C"].recurrence, 10, 10) == [978122]
    assert rec_values(fams["T"].recurrence, 7, 7) == [6272]
    assert rec_eval_matpow(fams["B"].recurrence, 0) == 1
    assert rec_eval_matpow(fams["L3"].recurrence, 2) == 153


@pytest.mark.parametrize("name", list(catalog()))
def test_iter_matpow_agree(name):
    fam = catalog()[name]
    indices = range(fam.start, fam.start + 100)
    iterated = fam.terms(indices[0], indices[-1])  # jumps to the first d, then one pass
    assert list(iterated) == [rec_eval_matpow(fam.recurrence, n) for n in indices]


@pytest.mark.parametrize("name", list(catalog()))
def test_rec_values_matches_pointwise(name):
    fam = catalog()[name]
    lo, hi = fam.start, fam.start + 40
    assert rec_values(fam.recurrence, lo, hi) == [fam.eval(n) for n in range(lo, hi + 1)]
    assert rec_values(fam.recurrence, hi, lo) == []


@pytest.mark.parametrize("name", list(catalog()))
def test_rec_values_windows_match_matpow(name):
    rec = catalog()[name].recurrence
    for lo in range(rec.start, rec.start + rec.order + 2):
        for hi in (lo, lo + 1, rec.start + 30):
            assert rec_values(rec, lo, hi) == [
                rec_eval_matpow(rec, n) for n in range(lo, hi + 1)
            ], (lo, hi)


_PASS_RECURRENCES = [
    LinearRecurrence((3,), (2,), start=5),  # order 1: a(n) = 2 * 3^(n - 5)
    LinearRecurrence((-2,), (7,), start=0),  # order 1, alternating signs
    LinearRecurrence((3, 3, -1), (2, 9, 32), start=1),  # T
    LinearRecurrence((0, 0, 0, 1), (1, -1, 0, 4), start=2),  # zero weights
    LinearRecurrence((-1, -1), (3, -5), start=0),  # no positive weight
    # every kind of weight, 2 and -1 twice each
    LinearRecurrence((2, -1, -3, 2, 1, 0, -1), (1, 0, -2, 5, 3, 0, 7), start=1),
]


@pytest.mark.parametrize(
    "rec", _PASS_RECURRENCES, ids=["o1", "o1-neg", "T", "o4", "minus-only", "o7"]
)
@pytest.mark.parametrize("unit", [1, decimal.Decimal(1)], ids=["int", "Decimal"])
def test_rec_terms_is_the_jump_inside_and_past_the_initial_terms(rec, unit):
    rec = LinearRecurrence(rec.coeffs, tuple(unit * a for a in rec.initial), rec.start)
    head_end = rec.start + rec.order - 1  # the last initial term
    ranges = [(lo, hi) for lo in range(rec.start, head_end + 1) for hi in range(lo, head_end + 1)]
    ranges += [(lo, hi) for lo in range(rec.start, head_end + 3) for hi in (head_end + 1, 40)]
    ranges += [(head_end + 5, head_end + 5), (30, 40)]
    with decimal.localcontext(sequences._exact_context()):
        for lo, hi in ranges:
            terms = list(rec_terms(rec, lo, hi))
            expected = [rec_eval_matpow(rec, n) for n in range(lo, hi + 1)]
            assert terms == expected and len(terms) == hi - lo + 1, (lo, hi)
            assert all(type(t) is type(unit) for t in terms), (lo, hi)
        assert list(rec_terms(rec, head_end + 2, head_end + 1)) == []


@pytest.mark.parametrize("coeffs", [(-1,), (-1, -1), (0, -1)])
def test_rec_terms_subtracts_a_minus_one_weight_so_no_decimal_zero_turns_negative(coeffs):
    # -1 * Decimal(0) is Decimal("-0"), which would print as -0
    rec = LinearRecurrence(coeffs, (decimal.Decimal(0),) * len(coeffs))
    with decimal.localcontext(sequences._exact_context()):
        assert [str(term) for term in rec_terms(rec, 0, 9)] == ["0"] * 10


@pytest.mark.parametrize("name", list(catalog()))
@pytest.mark.parametrize("unit", [1, decimal.Decimal(1)], ids=["int", "Decimal"])
def test_rec_values_holds_only_a_window_below_lo(name, unit):
    # the forward pass makes no jump, so it is the far term's witness for the jump
    rec = catalog()[name].recurrence
    rec = LinearRecurrence(rec.coeffs, tuple(unit * a for a in rec.initial), rec.start)
    with decimal.localcontext(sequences._exact_context()):
        tracemalloc.start()
        try:
            (value,) = rec_values(rec, 20_000, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        jumped = rec_eval_matpow(rec, 20_000)
    assert type(value) is type(unit) and value == jumped
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "name,poly",
    [
        ("A", (4, -1)),
        ("B", (4, -1)),
        ("C", (4, -1)),
        ("L3", (14, -1)),
        ("T", (3, 3, -1)),
        ("M", (3, 3, -1)),
        ("L2D", (2, 2, -1)),
    ],
)
def test_characteristic_polynomial_annihilates(name, poly):
    fam = catalog()[name]
    values = rec_values(fam.recurrence, fam.start, fam.start + 200)
    d = len(poly)
    for i in range(d, len(values)):
        assert values[i] == sum(c * values[i - j] for j, c in enumerate(poly, start=1))


# ---------------------------------------------------------------------------
# Closed forms


# ---------------------------------------------------------------------------
# Certified recurrences


def _windows(rec, count):
    """The windows (a(j), ..., a(j + d - 1)), j < count, of rec as vectors: the
    Krylov sequence of its companion map."""
    terms = rec_values(rec, rec.start, rec.start + count + rec.order - 2)
    return [dict(enumerate(terms[j : j + rec.order])) for j in range(count)]


@pytest.mark.parametrize("name", ["F", "A", "T", "L2D"])
def test_certified_recurrence_recovers_each_catalog_recurrence(name):
    rec = catalog()[name].recurrence
    windows = _windows(rec, 41)
    found = certified_recurrence(windows)
    assert found == LinearRecurrence(rec.coeffs, tuple(windows[: rec.order]))
    assert [vector_jump(found, j) for j in (0, 1, 40)] == [windows[0], windows[1], windows[40]]


def test_certified_recurrence_reads_only_the_terms_it_needs():
    read = []

    def windows():
        for window in _windows(catalog()["T"].recurrence, 100):
            read.append(window)
            yield window

    assert certified_recurrence(windows()).coeffs == (3, 3, -1)
    assert len(read) == 2 * 3 + 1  # v_0 .. v_2L


def test_certified_recurrence_needs_2l_plus_1_vectors():
    windows = _windows(catalog()["T"].recurrence, 7)
    assert certified_recurrence(windows[:6]) is None
    assert certified_recurrence(windows[:7]).coeffs == (3, 3, -1)


def test_certified_recurrence_checks_what_a_projection_hides():
    p, x = sequences._BM_PRIMES[0], sequences._BASE
    # the second coordinate is 0 modulo 2^127 - 1, so the first projection reads
    # 2^j; the check on every coordinate refuses order 1, and the refit modulo
    # the next prime finds (x - 2)(x - 3)
    vectors = [{0: 2**j, 1: p * 3**j} for j in range(5)]
    assert certified_recurrence(vectors[:3]) is None
    assert certified_recurrence(vectors).coeffs == (5, -6)
    # coordinates weighted 1, x and x^2: the first projection cancels the 3^j part
    vectors = [{0: 2**j, 1: (p - x) * 3**j, 2: 3**j} for j in range(5)]
    assert certified_recurrence(vectors).coeffs == (5, -6)


def test_certified_recurrence_rejects_a_sequence_that_is_not_c_finite():
    factorials = [{0: 1}]
    for n in range(1, 200):
        factorials.append({0: factorials[-1][0] * n})
    # Berlekamp-Massey always proposes a candidate; the exact check refuses it
    # modulo every prime, and the certificate gives up
    assert certified_recurrence(factorials) is None
    assert certified_recurrence({0: 2**n * n**n, 1: n} for n in range(100)) is None


def test_certified_recurrence_rejects_a_wrong_lift():
    first, widest = sequences._BM_PRIMES[0], sequences._BM_PRIMES[-1]
    # v_j = (p + 1) v_(j-1): modulo the widest prime p the ratio is 1, and every
    # narrower prime lifts it wrong as well
    assert certified_recurrence({0: (widest + 1) ** j} for j in range(12)) is None
    # a(n) = 3 a(n-1) - (q + 5) a(n-2), q = 2^127 - 1, lifts to -5 modulo q;
    # the next prime lifts it right
    rec = LinearRecurrence((3, -(first + 5)), (1, 1))
    assert certified_recurrence(_windows(rec, 60)).coeffs == (3, -(first + 5))
    # with a coefficient inside the symmetric range the first prime finds it
    rec = LinearRecurrence((3, -(first // 4 + 5)), (1, 1))
    assert certified_recurrence(_windows(rec, 5)).coeffs == (3, -(first // 4 + 5))


def test_certified_recurrence_of_zeros_and_of_a_nilpotent_transfer():
    assert certified_recurrence([{}] * 5) == LinearRecurrence((0,), ({},))
    assert certified_recurrence([{0: 0, 1: 0}]) == LinearRecurrence((0,), ({0: 0, 1: 0},))
    # the shift e_0 -> e_1 -> e_2 -> e_3 -> 0, of dimension 4
    shift = [{j: 1} for j in range(4)] + [{}] * 20
    found = certified_recurrence(shift)
    assert found == LinearRecurrence((0, 0, 0, 0), tuple(shift[:4]))
    assert vector_jump(found, 3) == {3: 1}
    assert vector_jump(found, 10**6) == {}


def test_the_jump_kernel_runs_in_the_unit_type():
    with decimal.localcontext(sequences._exact_context()):
        rem = sequences._x_power((3, 3, -1), 1000, decimal.Decimal(1))
    assert all(isinstance(r, decimal.Decimal) for r in rem)
    assert [int(r) for r in rem] == sequences._x_power((3, 3, -1), 1000)


def _shifted(coeffs, n, unit=1):
    """unit * x^n modulo the characteristic polynomial by n shifts by x: the reference."""
    rem = [unit] + [0] * (len(coeffs) - 1)
    for _ in range(n):
        rem = sequences._reduce([0] + rem, coeffs)
    return rem


def _assert_jump_is_shifts(coeffs, n):
    expected = _shifted(coeffs, n)
    assert sequences._x_power(coeffs, n) == expected
    with decimal.localcontext(sequences._exact_context()):
        decimals = sequences._x_power(coeffs, n, decimal.Decimal(1))
    assert decimals == expected
    assert all(type(r) is decimal.Decimal for r in decimals if r)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    st.integers(0, 2),
    st.integers(0, 2),
    st.lists(st.integers(-6, 6), max_size=3),
    st.integers(0, 60),
)
def test_the_split_jump_equals_shifts_by_x(ones, minus_ones, factor, n):
    # (x - 1)^ones (x + 1)^minus_ones times a random monic factor, lowest degree first:
    # simple roots 1 and -1 are split off, double ones stay in the powered factor
    poly = factor + [1]
    for root, times in ((1, ones), (-1, minus_ones)):
        for _ in range(times):
            poly = [a - root * b for a, b in zip([0] + poly, poly + [0])]
    assume(len(poly) > 1)
    _assert_jump_is_shifts(tuple(-c for c in reversed(poly[:-1])), n)


@pytest.mark.parametrize(
    "coeffs",
    [(1,), (-1,), (2,), (0, 0, 0, 1), (3, 3, -1), (2, 2, -1), (1, 1, -1), (-2, -1), (0, 1)]
    + [(1, 1), (0, -1), (5, -6), (0, 0)],  # doubled: N = -1, P = 0, N = 6, P = N = 0
    ids=["x-1", "x+1", "x-2", "o4", "T", "L2D", "(x-1)^2(x+1)", "(x+1)^2", "x^2-1"]
    + ["F", "x^2+1", "(x-2)(x-3)", "x^2"],
)
def test_the_split_jump_at_the_first_and_a_far_index(coeffs):
    for n in (0, 1, 2, 3, 201):
        _assert_jump_is_shifts(coeffs, n)


def test_the_jump_powers_what_is_left_after_the_simple_roots_one_and_minus_one(monkeypatch):
    powered = []

    def spy(name):
        power = getattr(sequences, name)

        def spied(coeffs, n, unit):
            powered.append((name, coeffs))
            return power(coeffs, n, unit)

        return spied

    for name in ("_lucas_power", "_binary_power"):
        monkeypatch.setattr(sequences, name, spy(name))
    # every integer factor of degree 2 left is doubled, and only those
    cases = {
        (3, 3, -1): ("_lucas_power", (4, -1)),  # T, M: (x + 1)(x^2 - 4x + 1)
        (2, 2, -1): ("_lucas_power", (3, -1)),  # L2D: (x + 1)(x^2 - 3x + 1)
        (0, 0, 0, 1): ("_lucas_power", (0, -1)),  # x^4 - 1 = (x - 1)(x + 1)(x^2 + 1)
        (1, 1, -1): ("_lucas_power", (2, -1)),  # (x - 1)^2 (x + 1): the double root stays
        (-2, -1): ("_lucas_power", (-2, -1)),  # (x + 1)^2, T's and L2D's rational closed-form base
        (4, -1): ("_lucas_power", (4, -1)),  # A, B, C: no root 1 or -1
        (1, 1): ("_lucas_power", (1, 1)),  # F: N = -1
        (5, -6): ("_lucas_power", (5, -6)),  # (x - 2)(x - 3): N is not 1 or -1
        (0, 0, 2): ("_binary_power", (0, 0, 2)),  # x^3 - 2: no root 1 or -1
        (2,): ("_binary_power", (2,)),  # x - 2
        (-1, 2, 7, 5): ("_binary_power", (0, 2, 5)),  # (x + 1)(x^3 - 2x - 5)
    }
    for coeffs, left in cases.items():
        powered.clear()
        sequences._x_power(coeffs, 1000)
        assert powered == [left], coeffs
    # an order-1 recurrence with the root 1 or -1 is all split: nothing is powered
    powered.clear()
    assert sequences._x_power((1,), 7) == [1] and sequences._x_power((-1,), 7) == [-1]
    assert powered == []
    # only integer coefficients are split and doubled; any other ring is powered as it is
    coeffs = (decimal.Decimal(3), decimal.Decimal(3), decimal.Decimal(-1))
    with decimal.localcontext(sequences._exact_context()):
        assert sequences._x_power(coeffs, 1000) == sequences._x_power((3, 3, -1), 1000)
    assert powered[-2:] == [("_binary_power", coeffs), ("_lucas_power", (4, -1))]


def _miscounting(base, at):
    """A subclass of the number type ``base`` whose results stay in it and whose
    ``at``-th squaring is one too large."""
    squarings = []

    class Number(base):
        def __mul__(self, other):
            product = base.__mul__(self, other)
            if self is other:
                squarings.append(product)
                if len(squarings) == at:
                    product += 1
            return Number(product)

    for name in ("__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
        setattr(Number, name, lambda *args, op=getattr(base, name): Number(op(*args)))
    return Number


@pytest.mark.parametrize("base", [int, decimal.Decimal], ids=["int", "Decimal"])
def test_a_corrupted_squaring_raises_not_a_wrong_remainder(base):
    # x^1000 modulo x^2 - 4x + 1 doubles nine times: it squares U_1 = 1 (U_0 = 0 is
    # an int), then two numbers a doubling, 17 squarings in all
    with decimal.localcontext(sequences._exact_context()):
        expected = sequences._x_power((4, -1), 1000)
        assert sequences._x_power((4, -1), 1000, _miscounting(base, 18)(1)) == expected
        for at in range(1, 18):
            with pytest.raises(ArithmeticError, match=r"^x\^1000 modulo x\^2 - \(4\)x \+ \(1\): a"):
                sequences._x_power((4, -1), 1000, _miscounting(base, at)(1))


@pytest.mark.parametrize("unit", [1, decimal.Decimal(1)], ids=["int", "Decimal"])
def test_a_corrupted_quotient_raises_not_a_wrong_count(monkeypatch, unit):
    divide = sequences._divide_by_root

    def corrupted(coeffs, root):
        value, slope, (first, *rest) = divide(coeffs, root)
        return value, slope, (first + 1, *rest)

    monkeypatch.setattr(sequences, "_divide_by_root", corrupted)
    with decimal.localcontext(sequences._exact_context()):
        with pytest.raises(ArithmeticError, match=r"^x\^1000 modulo a factor x - \(-1\) left"):
            sequences._x_power((3, 3, -1), 1000, unit)
        with pytest.raises(ArithmeticError, match="left a remainder"):
            list(catalog()["T"].terms(100, 110, "iter", unit))


def test_closed_eval_known_values():
    fams = catalog()
    assert closed_eval(fams["A"].closed, 8) == 29681
    assert closed_eval(fams["T"].closed, 3) == 32
    assert closed_eval(fams["L3"].closed, 10) == 216695104121
    assert closed_eval(fams["B"].closed, 0) == 1
    assert closed_eval(fams["C"].closed, 0) == 2
    assert closed_eval(fams["L2D"].closed, 1) == 1


@pytest.mark.parametrize("name", ["A", "B", "C", "T", "L3", "L2D"])
def test_closed_agrees_with_recurrence(name):
    fam = catalog()[name]
    values = rec_values(fam.recurrence, fam.start, 2000)
    assert [closed_eval(fam.closed, n) for n in range(fam.start, 2001)] == values


def _pass_from(rec, lo, hi, unit):
    """rec_values over lo..hi in the unit's type, from the recurrence jumped to lo."""
    with decimal.localcontext(sequences._exact_context()):
        typed = LinearRecurrence(rec.coeffs, tuple(unit * a for a in rec.initial), rec.start)
        head = tuple(rec_eval_matpow(typed, n) for n in range(lo, lo + rec.order))
        return rec_values(LinearRecurrence(rec.coeffs, head, lo), lo, hi)


@pytest.mark.parametrize("name", ["A", "B", "C", "T", "L3", "L2D"])
@pytest.mark.parametrize("unit", [1, decimal.Decimal(1)], ids=["int", "Decimal"])
def test_closed_ranges_step_from_their_head(name, unit):
    # one jump per base to the head of the range, then a step per term. The far
    # range is checked against a pass from the recurrence's jump to its head, in the
    # unit's type: a pass from the start, or a far Decimal read as an int, takes seconds
    fam = catalog()[name]
    values = list(fam.terms(fam.start, 2000, "closed", unit))
    assert values == rec_values(fam.recurrence, fam.start, 2000)
    far = list(fam.terms(10**5, 10**5 + 30, "closed", unit))
    assert far == _pass_from(fam.recurrence, 10**5, 10**5 + 30, unit)
    assert all(type(v) is type(unit) for v in values + far)


def test_a_closed_range_yields_the_terms_before_a_failure():
    # (2 + sqrt3) / 2 + sqrt3 / 2 (-1)^n: its sqrt3 part cancels at odd n only
    parity = ClosedForm(3, 2, 1, ((2, 1, 1, 0), (0, 1, -1, 0)))
    terms = sequences._closed_terms(parity, 1, 10)
    assert next(terms) == 1
    leftover = r"^irrational part 1\*sqrt\(3\) left over at n=2$"
    with pytest.raises(ClosedFormCancellationError, match=leftover):
        next(terms)
    # 10 - 2^n is a count up to n = 3 only
    falling = ClosedForm(3, 1, 1, ((10, 0, 1, 0), (-1, 0, 2, 0)))
    terms = sequences._closed_terms(falling, 0, 10)
    assert [next(terms) for _ in range(4)] == [9, 8, 6, 2]
    negative = "^closed form produced non-count value -6 at n=4$"
    with pytest.raises(ClosedFormCancellationError, match=negative):
        next(terms)


def test_families_without_closed_form():
    assert catalog()["F"].closed is None
    assert catalog()["M"].closed is None
    with pytest.raises(ValueError):
        catalog()["F"].eval(3, "closed")


# ---------------------------------------------------------------------------
# Family.terms: one dispatch and one budget for every range


def test_terms_checks_in_order_before_computing(monkeypatch):
    def computed(*args):
        raise AssertionError("a term was computed before the refusal")

    for name in ("rec_terms", "rec_values", "rec_eval_matpow", "closed_eval"):
        monkeypatch.setattr(sequences, name, computed)
    fams = catalog()
    refusals = [
        (lambda: fams["F"].terms(-1, -2, "fast"), ValueError, "unknown method 'fast'"),
        (lambda: fams["F"].terms(-1, -2, "closed"), ValueError, "family F has no closed form"),
        (lambda: fams["A"].terms(0, -1), ValueError, "family A starts at index 1"),
        (lambda: fams["A"].terms(5, 1), ValueError, "empty range"),
        (
            lambda: fams["L3"].eval(10**9),
            BudgetError,
            "estimated work for L3(1000000000..1000000000) exceeds the budget of 1,500,000,000",
        ),
        (
            lambda: fams["T"].terms(1, 100000, "matpow"),
            BudgetError,
            "estimated work for T(1..100000) exceeds the budget of 1,500,000,000",
        ),
        (
            lambda: fams["F"].terms(0, 10**400),
            BudgetError,
            f"estimated work for F(0..{10**400}) exceeds the budget of 1,500,000,000",
        ),
        # an index past the int -> str digit limit prints in full, by decimal_str
        (
            lambda: fams["F"].terms(0, 10**5000),
            BudgetError,
            f"estimated work for F(0..1{'0' * 5000}) exceeds the budget of 1,500,000,000",
        ),
        # the angle formulas and fibonacci read their terms through Family.eval
        (
            lambda: l3(10**8, 1),
            BudgetError,
            "estimated work for A(100000000..100000000) exceeds the budget of 1,500,000,000",
        ),
        (
            lambda: l2(10**8, 1),
            BudgetError,
            "estimated work for F(100000000..100000000) exceeds the budget of 1,500,000,000",
        ),
        (
            lambda: fibonacci(10**9),
            BudgetError,
            "estimated work for F(1000000000..1000000000) exceeds the budget of 1,500,000,000",
        ),
    ]
    for call, kind, message in refusals:
        start = time.perf_counter()
        with pytest.raises(kind) as refusal:
            call()
        assert time.perf_counter() - start < 1
        assert type(refusal.value) is kind and str(refusal.value) == message


def test_terms_computes_in_the_units_type():
    fam = catalog()["T"]
    expected = rec_values(fam.recurrence, 1, 40)
    with decimal.localcontext(decimal.Context(prec=100, traps=[decimal.Inexact, decimal.Rounded])):
        for method in ("iter", "matpow", "closed"):
            assert list(fam.terms(1, 40, method)) == expected
            values = list(fam.terms(1, 40, method, decimal.Decimal(1)))
            assert all(type(v) is decimal.Decimal for v in values) and values == expected


def test_decimal_terms_are_exact_whatever_the_callers_context():
    # A(99..101) have 56-58 digits, more than the default context's 28
    fam = catalog()["A"]
    expected = rec_values(fam.recurrence, 99, 101)
    with decimal.localcontext(decimal.Context()) as caller:
        for method in ("iter", "matpow", "closed"):
            values = list(fam.terms(99, 101, method, decimal.Decimal(1)))
            assert all(type(v) is decimal.Decimal for v in values) and values == expected
            assert decimal.getcontext() is caller


def test_only_a_decimal_generator_holds_the_exact_context(monkeypatch):
    # it holds the exact context while it computes a term, and never while suspended
    fam, caller, seen = catalog()["T"], decimal.getcontext(), []
    jump = sequences._x_power

    def spy(coeffs, n, unit=1):
        seen.append(decimal.getcontext())
        return jump(coeffs, n, unit)

    monkeypatch.setattr(sequences, "_x_power", spy)
    ints = fam.terms(1, 40)
    assert next(ints) == 2 and decimal.getcontext() is caller and seen[-1] is caller
    for method in ("iter", "matpow"):
        decimals = fam.terms(1, 40, method, decimal.Decimal(1))
        assert next(decimals) == 2 and decimal.getcontext() is caller  # suspended
        assert seen[-1] is sequences._exact_context()
        assert list(decimals) == rec_values(fam.recurrence, 2, 40)
        assert decimal.getcontext() is caller
    assert list(ints) == rec_values(fam.recurrence, 2, 40) and decimal.getcontext() is caller


def test_the_caller_computes_in_its_own_context_between_terms():
    # A(1..60) reach 35 digits, more than the caller's 10, so they need the exact context
    fam = catalog()["A"]
    expected = rec_values(fam.recurrence, 1, 60)
    for method in ("iter", "matpow", "closed"):
        with decimal.localcontext(decimal.Context(prec=10)) as caller:
            values = []
            for value in fam.terms(1, 60, method, decimal.Decimal(1)):
                assert decimal.getcontext() is caller
                assert decimal.Decimal(1) / 3 == decimal.Decimal("0.3333333333")
                values.append(value)
        assert values == expected


def test_a_failing_term_leaves_the_callers_context(monkeypatch):
    l3_form = catalog()["L3"].closed
    _with_closed_form(monkeypatch, "L3", ClosedForm(3, 6, 1, l3_form.terms[:1]))
    caller = decimal.getcontext()
    with pytest.raises(ClosedFormCancellationError, match=r"left over at n=1$"):
        next(catalog()["L3"].terms(1, 5, "closed", decimal.Decimal(1)))
    assert decimal.getcontext() is caller


def test_closed_terms_build_no_recurrence(monkeypatch):
    fam = catalog()["A"]
    built = []
    init = LinearRecurrence.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LinearRecurrence, "__init__", counted)
    assert list(fam.terms(1, 5, "closed")) == [3, 11, 41, 153, 571]
    assert built == []
    # matpow reads the unit-typed copy of the recurrence, so the spy sees it built
    assert list(fam.terms(1, 5, "matpow")) == [3, 11, 41, 153, 571]
    assert len(built) == 1


def test_a_far_single_term_is_one_jump():
    fam = catalog()["T"]
    start = time.perf_counter()
    value = fam.eval(60_000)
    seconds = time.perf_counter() - start
    assert value == rec_values(fam.recurrence, 60_000, 60_000)[0]
    assert seconds < 0.5, f"T(60000) took {seconds:.2f} s"


def test_cancellation_error_fires_on_bad_formula():
    # sqrt(3) * (2 + sqrt(3))^n never cancels
    bad = ClosedForm(3, 1, 1, ((0, 1, 2, 1),))
    with pytest.raises(ClosedFormCancellationError):
        closed_eval(bad, 1)
    # 1/2 * 1^n is rational but not integral
    bad_half = ClosedForm(3, 2, 1, ((1, 0, 1, 0),))
    with pytest.raises(ClosedFormCancellationError):
        closed_eval(bad_half, 0)
    with pytest.raises(ValueError):
        closed_eval(catalog()["A"].closed, -1)


def test_cancellation_error_fires_on_negative_value():
    minus_one = ClosedForm(3, 1, 1, ((-1, 0, 1, 0),))
    with pytest.raises(ClosedFormCancellationError, match="non-count value -1 at n=4"):
        closed_eval(minus_one, 4)
    # A(n) - 2 B(n) < 0 for all n: the sqrt(3) parts cancel, the sign is wrong
    a, b = catalog()["A"].closed, catalog()["B"].closed
    assert (a.d, a.coeff_den, a.base_den) == (b.d, b.coeff_den, b.base_den)
    a_minus_2b = ClosedForm(
        a.d,
        a.coeff_den,
        a.base_den,
        a.terms + tuple((-2 * cp, -2 * cr, p, r) for cp, cr, p, r in b.terms),
    )
    for n in (0, 5, 300):
        with pytest.raises(ClosedFormCancellationError, match=f"non-count value -.* at n={n}"):
            closed_eval(a_minus_2b, n)


def test_cancellation_error_fires_on_non_integer_value():
    # T without its (-1)^n / 3 term: (2+sqrt3)^(n+1)/6 + conjugate, off by a third
    t = catalog()["T"].closed
    truncated = ClosedForm(t.d, t.coeff_den, t.base_den, t.terms[:2])
    for n in (1, 2, 1000):
        with pytest.raises(ClosedFormCancellationError, match=f"non-count value .*/3 at n={n}"):
            closed_eval(truncated, n)
    # a base over a denominator, ((3 + sqrt5) / 2)^n + conjugate, plus 1/2
    half = ClosedForm(5, 2, 2, ((2, 0, 3, 1), (2, 0, 3, -1), (1, 0, 2, 0)))
    with pytest.raises(ClosedFormCancellationError, match="/2 at n=7"):
        closed_eval(half, 7)
    # one term of a conjugate pair alone: the sqrt(5) part is left over
    with pytest.raises(ClosedFormCancellationError, match=r"\*sqrt\(5\) left over at n=3"):
        closed_eval(ClosedForm(5, 2, 2, half.terms[:1]), 3)


@pytest.mark.parametrize("base_den", [2, 4])
def test_closed_form_rejects_a_base_that_is_no_algebraic_integer(base_den):
    # 3 + (1 / base_den)^n: 1 / base_den is a root of no monic integer
    # polynomial, so no integer recurrence has it as a characteristic root
    refused = rf"^base \(1 \+ 0 sqrt 5\) / {base_den} is not an algebraic integer$"
    with pytest.raises(ValueError, match=refused):
        ClosedForm(5, 1, base_den, ((3, 0, base_den, 0), (1, 0, 1, 0)))
    with pytest.raises(ValueError, match=r"^base \(1 \+ 1 sqrt 3\) / 2 is not an algebraic integer$"):
        ClosedForm(3, 1, 2, ((1, 0, 1, 1),))
    ClosedForm(5, 1, 2, ((1, 0, 1, 1), (1, 0, 3, -1), (1, 0, 4, 0)))


def test_l2d_closed_form_equals_the_jump_far_out():
    fam = catalog()["L2D"]
    assert closed_eval(fam.closed, 10**5) == rec_eval_matpow(fam.recurrence, 10**5)


def test_closed_form_rejects_bad_radicands():
    for d in (4, 12, 18):
        with pytest.raises(ValueError, match="radicand must be square-free"):
            ClosedForm(d, 1, 1, ((1, 0, 1, 0),))
    for d in (1, 0, -3):
        with pytest.raises(ValueError, match="radicand must be >= 2"):
            ClosedForm(d, 1, 1, ((1, 0, 1, 0),))


def test_closed_form_rejects_empty_terms_and_bad_denominators():
    with pytest.raises(ValueError, match="at least one term"):
        ClosedForm(3, 1, 1, ())
    for coeff_den, base_den in ((0, 1), (1, 0), (-6, 1), (1, -2)):
        with pytest.raises(ValueError, match="denominators must be >= 1"):
            ClosedForm(3, coeff_den, base_den, ((1, 0, 1, 0),))


# ---------------------------------------------------------------------------
# Catalog contents and the two-parameter formulas


def test_catalog_initial_terms():
    fams = catalog()
    assert fams["A"].recurrence.initial == (3, 11)
    assert fams["A"].recurrence.start == 1
    assert fams["B"].recurrence.initial == (1, 4)
    assert fams["C"].recurrence.initial == (2, 7)
    assert fams["M"].recurrence.coeffs == (3, 3, -1)
    assert fams["L3"].recurrence.coeffs == (14, -1)
    assert fams["L2D"].recurrence.coeffs == (2, 2, -1)
    assert set(fams) == {"F", "A", "B", "C", "T", "M", "L3", "L2D"}


def test_fibonacci_convention():
    assert [fibonacci(n) for n in range(-1, 8)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]
    with pytest.raises(ValueError):
        fibonacci(-2)


def test_l2_values():
    assert l2(1, 1) == 2
    assert l2(3, 2) == 7
    assert l2(1, 0) == 1
    for n in range(1, 11):
        assert l2(n, 1) == fibonacci(n + 1)
    with pytest.raises(ValueError):
        l2(0, 1)
    with pytest.raises(ValueError):
        l2(1, -1)


def test_l3_values():
    assert l3(1, 1) == 11
    assert l3(2, 2) == 153
    assert l3(2, 1) == 11 * 3 + 7 * 1 + 1 * 1  # 41
    assert l3(2, 1) == l3(1, 2)
    with pytest.raises(ValueError):
        l3(0, 1)


def test_the_angle_formulas_read_index_minus_one_as_zero():
    # tables with no index -1, like the verify suites' pass tables: a lookup of -1 raises
    f, b, c = (dict(enumerate(catalog()[name].terms(0, 8))).__getitem__ for name in "FBC")
    a = dict(enumerate(catalog()["A"].terms(1, 8), start=1)).__getitem__
    for n in range(1, 8):
        assert l2_formula(f, n, 0) == l2(n, 0) == fibonacci(n - 1)
    for k in range(1, 8):
        assert l3_formula(a, b, c, 1, k) == l3(1, k) == 3 * a(k) + 2 * b(k - 1)


def test_l3_diagonal_matches_closed_form():
    fam = catalog()["L3"]
    for n in range(1, 51):
        assert l3(n, n) == closed_eval(fam.closed, n)


def test_l2_diagonal_matches_closed_form():
    fam = catalog()["L2D"]
    for n in range(1, 51):
        assert closed_eval(fam.closed, n) == l2(n, n - 1)


# ---------------------------------------------------------------------------
# Decimal output of big values


def _seq_out(capsys, *argv):
    assert main(["seq", *argv]) == 0
    return capsys.readouterr().out


def test_seq_methods_print_the_same_bytes(capsys):
    outputs = {
        method: _seq_out(capsys, "T", "2500", "2500", "--method", method)
        for method in ("iter", "matpow", "closed")
    }
    expected = f"2500\t{rec_values(catalog()['T'].recurrence, 2500, 2500)[0]}\n"
    assert outputs == dict.fromkeys(outputs, expected)


def test_seq_prints_values_above_the_split_threshold_in_full(capsys):
    # L2D's closed form powers a base over the denominator 2
    for name, n in (("T", 120_000), ("L3", 40_000), ("L2D", 110_000)):
        value = rec_eval_matpow(catalog()[name].recurrence, n)
        assert value.bit_length() > 150_000
        text = decimal_str(value)
        for method in ("matpow", "closed"):
            argv = (name, str(n), str(n), "--method", method)
            assert _seq_out(capsys, *argv) == f"{n}\t{text}\n"
            assert _seq_out(capsys, *argv, "--json") == (
                f'{{"family":"{name}","n":{n},"value":"{text}"}}\n'
            )


def test_seq_iter_prints_a_head_above_50000_bits_in_full(capsys):
    # iter jumps to the first order terms of its range in exact Decimals and
    # prints them by str(), with no int -> decimal conversion
    values = rec_values(catalog()["L3"].recurrence, 14000, 14001)
    assert min(values).bit_length() > 50_000
    values = [decimal_str(v) for v in values]
    assert _seq_out(capsys, "L3", "14000", "14001") == "".join(
        f"{n}\t{v}\n" for n, v in zip((14000, 14001), values)
    )
    assert _seq_out(capsys, "L3", "14000", "14001", "--json") == "".join(
        f'{{"family":"L3","n":{n},"value":"{v}"}}\n' for n, v in zip((14000, 14001), values)
    )


def test_seq_iter_jumps_to_a_far_range(capsys, monkeypatch):
    # iter reaches the head of a far range by Decimal jumps and starts its
    # forward pass there, never at the family's start
    indices = (200_000, 200_001)
    values = [decimal_str(rec_eval_matpow(catalog()["L3"].recurrence, n)) for n in indices]
    passes = []

    def pass_from_the_head(rec, lo, hi):
        passes.append((rec.start, lo, hi))
        if rec.start != 200_000:
            raise AssertionError(f"a forward pass started at {rec.start}")
        return rec_terms(rec, lo, hi)

    monkeypatch.setattr(sequences, "rec_terms", pass_from_the_head)
    assert _seq_out(capsys, "L3", "200000", "200001") == "".join(
        f"{n}\t{v}\n" for n, v in zip(indices, values)
    )
    assert _seq_out(capsys, "L3", "200000", "200001", "--json") == "".join(
        f'{{"family":"L3","n":{n},"value":"{v}"}}\n' for n, v in zip(indices, values)
    )
    assert passes == [(200_000, 200_000, 200_001)] * 2


def _with_closed_form(monkeypatch, name, form):
    family = catalog()[name]
    swapped = Family(family.name, family.description, family.recurrence, form)
    monkeypatch.setitem(catalog(), name, swapped)


def _seq_raises(capsys, name, n, match):
    with pytest.raises(ClosedFormCancellationError, match=match):
        main(["seq", name, str(n), str(n), "--method", "closed"])
    assert capsys.readouterr().out == ""


def test_seq_closed_raises_on_an_irrational_leftover(capsys, monkeypatch):
    # one term of L3's conjugate pair alone
    l3_form = catalog()["L3"].closed
    _with_closed_form(monkeypatch, "L3", ClosedForm(3, 6, 1, l3_form.terms[:1]))
    for n in (1, 30, 20_000):
        _seq_raises(capsys, "L3", n, rf"\*sqrt\(3\) left over at n={n}$")


def test_seq_closed_raises_on_a_negative_value(capsys, monkeypatch):
    # A(n) - 2 B(n) < 0 for all n: the sqrt(3) parts cancel, the sign is wrong
    a, b = catalog()["A"].closed, catalog()["B"].closed
    terms = a.terms + tuple((-2 * cp, -2 * cr, p, r) for cp, cr, p, r in b.terms)
    _with_closed_form(monkeypatch, "A", ClosedForm(a.d, a.coeff_den, a.base_den, terms))
    for n in (1, 5, 300):
        _seq_raises(capsys, "A", n, f"non-count value -.* at n={n}$")
    _with_closed_form(monkeypatch, "A", ClosedForm(3, 1, 1, ((-1, 0, 1, 0),)))
    _seq_raises(capsys, "A", 4, "non-count value -1 at n=4$")
