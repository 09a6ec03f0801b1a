"""Linear recurrences and their closed forms in Z[sqrt(d)].

Every sequence family in the catalog carries an integer linear recurrence,
and most also carry a closed form whose terms live in Q(sqrt(d)).

A single term of a recurrence is reached by Fiduccia's jump: x^n is reduced
modulo the characteristic polynomial by one kernel (``_x_power``), and the
remainder's coefficients weight the initial terms. The kernel first splits
off the simple roots 1 and -1 of an integer polynomial, powers the factor
left and recombines the remainder with one exact division per root: T's,
M's and L2D's cubics each have the root -1, so every catalog jump powers a
quadratic. An integer quadratic is powered by Lucas-sequence doubling
(``_lucas_power``), two squarings a bit; every other degree, and any other
ring, by binary powering (``_binary_power``), O(d^2) big multiplies a bit.
A range of terms comes from one jump to its first index, a
shift of the remainder by x for each of the next d - 1, and then one
forward pass, ``rec_terms``, which holds only the last d terms and yields
each term of the range in turn. Both run in whatever numbers the initial
terms are: ints, or Decimals, whose big multiplies are subquadratic and whose
result needs no conversion to print. ``rec_values`` is the pass as a list of
ints. The same kernel jumps a sequence of vectors v_j = v_0 B^j
(``vector_jump``) once ``certified_recurrence`` has proved its recurrence:
Berlekamp-Massey on a projection of the vectors (Wiedemann 1986), then one
exact vector identity v_K = sum c_i v_(K-i), which holds at every shift. It
reads 2K + 1 vectors and needs no bound on their dimension.

A closed form is stored as integer data: each coefficient and base is an
element of Z[sqrt(d)] over one of two common denominators, and each base is
an algebraic integer, as every root of an integer recurrence is. A range of
it is evaluated exactly, in ints or from a Decimal unit: each base jumps to
the first index by the same kernel, on its integer minimal polynomial, and
steps one power a term; the terms are summed over one denominator. The
irrational part must cancel and the rational remainder must be a
nonnegative integer, or it raises: that can only mean a mistranscribed
formula. Messages print big numbers by ``decimal_str``. ``Family.terms``
serves every range of a family's terms, with the method dispatch,
``budget.seq_terms`` and, for Decimals, the exact context; the rest of the
package reaches the scalar kernels only through it.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Mapping
from functools import cache, lru_cache, partial, reduce
from itertools import islice, repeat
from math import isqrt
from operator import add, itemgetter, mul, sub

from . import budget
from .record import Record


def decimal_str(number) -> str:
    """``str(number)`` for an int or a Fraction, past the int -> str digit limit too.

    Decimal is exempt from the limit; the process-wide limit is left as it is.
    """
    try:
        return str(number)
    except ValueError:  # an int has a numerator and a denominator of 1, as a Fraction has
        from decimal import Decimal  # only a number past the limit loads decimal

        text = str(Decimal(number.numerator))
        den = number.denominator
        return text if den == 1 else f"{text}/{Decimal(den)}"


def _ratio_str(num, den: int) -> str:
    """num / den in lowest terms, by ``decimal_str``: num an int or an integral Decimal.

    Only error messages print a ratio, so only they import ``fractions``.
    """
    from fractions import Fraction

    return decimal_str(Fraction(num) / den)


class ClosedFormCancellationError(ArithmeticError):
    """The irrational part of a closed-form evaluation failed to cancel."""


def _check_radicand(d: int) -> None:
    if d < 2:
        raise ValueError(f"radicand must be >= 2, got {d}")
    for p in range(2, isqrt(d) + 1):
        if d % (p * p) == 0:
            raise ValueError(f"radicand must be square-free, got {d}")


class ClosedForm(Record):
    """The sum over terms (cp, cr, p, r) of
    (cp + cr sqrt d) / coeff_den * ((p + r sqrt d) / base_den)^n.

    Every number is an integer of Z[sqrt(d)] over one of two common
    denominators, the form ``closed_eval`` reads. Each base must be an
    algebraic integer, with 2p / base_den and (p^2 - d r^2) / base_den^2 integers.
    Alternating components are ordinary terms with base -base_den, so one
    evaluation path covers everything.
    """

    __slots__ = ("d", "coeff_den", "base_den", "terms")

    def __init__(
        self, d: int, coeff_den: int, base_den: int, terms: tuple[tuple[int, int, int, int], ...]
    ) -> None:
        _check_radicand(d)
        if coeff_den < 1 or base_den < 1:
            raise ValueError(f"denominators must be >= 1, got {coeff_den} and {base_den}")
        if not terms:
            raise ValueError("closed form needs at least one term")
        b = base_den
        for _, _, p, r in terms:
            if 2 * p % b or (p * p - d * r * r) % (b * b):
                raise ValueError(f"base ({p} + {r} sqrt {d}) / {b} is not an algebraic integer")
        super().__init__(d, coeff_den, base_den, terms)


def _closed_terms(cf: ClosedForm, lo: int, hi: int, unit=1) -> Iterator:
    """Yield the closed form at lo, ..., hi, each checked on the way out: ints for
    the unit 1, integral Decimals for Decimal(1) in the current decimal context.

    Each distinct base beta = (p + r sqrt d) / b, up to conjugation, jumps once
    to lo by ``_x_power`` on its minimal polynomial x^2 - P x + N: unit * x^lo =
    s x + t. Each later power is one step, (s, t) <- (P s + t, -N s). Then
    b beta^n = (s p + b t) + s r sqrt d, its conjugate's from the same s and t,
    and the terms are summed over the constant denominator coeff_den * b.
    """
    if lo < 0:
        raise ValueError(f"closed forms are evaluated at n >= 0, got {lo}")
    d, b, den = cf.d, cf.base_den, cf.coeff_den * cf.base_den
    bases = {}  # (p, |r|) -> (P, N, s, t)
    for p, q in {(p, abs(r)) for _, _, p, r in cf.terms}:
        P, N = 2 * p // b, (p * p - d * q * q) // (b * b)
        bases[p, q] = (P, N, *_x_power((P, -N), lo, unit)[::-1])
    for n in range(lo, hi + 1):
        if n > lo:
            bases = {key: (P, N, P * s + t, -N * s) for key, (P, N, s, t) in bases.items()}
        powers = {(p, q): (s * p + b * t, q * s) for (p, q), (_, _, s, t) in bases.items()}
        num_a = num_b = 0
        for cp, cr, p, r in cf.terms:
            u, w = powers[p, abs(r)]  # b beta^n = u + w sqrt d, or u - w sqrt d for r < 0
            sign = -1 if r < 0 else 1
            num_a += cp * u + sign * d * cr * w
            num_b += sign * cp * w + cr * u
        if num_b:
            raise ClosedFormCancellationError(
                f"irrational part {_ratio_str(num_b, den)}*sqrt({d}) left over at n={n}"
            )
        value, remainder = divmod(num_a, den)
        if remainder or value < 0:
            raise ClosedFormCancellationError(
                f"closed form produced non-count value {_ratio_str(num_a, den)} at n={n}"
            )
        yield value


def closed_eval(cf: ClosedForm, n: int, unit=1):
    """The closed form at n >= 0, checked: the one-term range of ``_closed_terms``."""
    return next(_closed_terms(cf, n, n, unit))


class LinearRecurrence(Record):
    """Order-d recurrence a(n) = sum coeffs[i-1] * a(n-i), with initial terms.

    ``initial`` holds a(start), ..., a(start+d-1): numbers, or, from
    ``certified_recurrence``, vectors as mappings.
    """

    __slots__ = ("coeffs", "initial", "start")

    def __init__(self, coeffs: tuple[int, ...], initial: tuple[int, ...], start: int = 0) -> None:
        if len(coeffs) < 1:
            raise ValueError("recurrence order must be >= 1")
        if len(initial) != len(coeffs):
            raise ValueError(f"need {len(coeffs)} initial terms, got {len(initial)}")
        super().__init__(coeffs, initial, start)

    @property
    def order(self) -> int:
        return len(self.coeffs)


def rec_terms(rec: LinearRecurrence, lo: int, hi: int) -> Iterator:
    """Yield a(lo), ..., a(hi) from one forward pass: O(hi * order) additions.

    Only the last ``order`` terms are held, oldest first, in a deque. The step
    is built once, before any term, from ``map``s that read the deque: each
    distinct weight outside {0, 1, -1} multiplies the sum of its terms once;
    then the weight-1 terms are added and the -1 terms subtracted, every sum
    started at its first term, never at 0: L3's step is 14 a(n-1) - a(n-2),
    T's 3 (a(n-1) + a(n-2)) - a(n-3), F's a(n-1) + a(n-2). Only with no
    positive weight does a sum start at the type's 0, from which a subtraction
    never gives a Decimal -0. ``map(window.append, step)`` makes each term and
    files it, dropping the oldest, and the pass yields it from the deque: a
    step runs no Python code but that yield, and no branch on a weight. The
    numbers are those of ``rec.initial``, ints or Decimals, with the
    weights converted to their type once. The index check runs at the first
    step.
    """
    if lo < rec.start:
        raise ValueError(f"index {lo} below starting index {rec.start}")
    if hi < lo:
        return
    kind = type(rec.initial[0])
    window = deque(rec.initial, maxlen=rec.order)  # a(n - d), ..., a(n - 1)
    windows = repeat(window)
    by_weight: dict[int, list] = {}  # weight -> the streams of its terms
    for i, weight in enumerate(rec.coeffs, 1):  # coeffs[i - 1] weighs a(n - i), window[-i]
        if weight:
            by_weight.setdefault(weight, []).append(map(itemgetter(-i), windows))
    plus, minus = by_weight.pop(1, []), by_weight.pop(-1, [])
    add_up = partial(map, add)
    parts = [map(mul, repeat(kind(w)), reduce(add_up, same)) for w, same in by_weight.items()]
    positive = reduce(add_up, parts + plus) if parts or plus else repeat(kind())
    steps = map(window.append, reduce(partial(map, sub), minus, positive))
    yield from rec.initial[lo - rec.start : hi - rec.start + 1]
    first = rec.start + rec.order  # the first index a step makes
    for _ in islice(steps, max(lo - first, 0)):  # the terms below lo
        pass
    for _ in islice(steps, max(hi + 1 - max(lo, first), 0)):
        yield window[-1]


def rec_values(rec: LinearRecurrence, lo: int, hi: int) -> list[int]:
    """Terms a(lo), ..., a(hi) as a list, from one pass of ``rec_terms``."""
    return list(rec_terms(rec, lo, hi))


def _reduce(poly: list[int], coeffs: tuple[int, ...]) -> list[int]:
    """poly modulo the characteristic polynomial, in place: x^d = sum coeffs[i-1] x^(d-i)."""
    d = len(coeffs)
    while len(poly) > d:
        top = poly.pop()
        if top:
            k = len(poly)
            for i, c in enumerate(coeffs, start=1):
                poly[k - i] += c * top
    return poly


def _divide_by_root(coeffs: tuple[int, ...], root: int) -> tuple[int, int, tuple[int, ...]]:
    """p(root), p'(root) and the coefficients of the quotient q of p by x - root, for
    p = x^d - coeffs[0] x^(d-1) - ... - coeffs[d-1]: Horner's scheme, which is
    synthetic division.
    """
    value, slope, quotient = 1, 0, []
    for c in coeffs:
        value, slope = value * root - c, slope * root + value
        quotient.append(-value)
    return value, slope, tuple(quotient[:-1])


def _x_power(coeffs: tuple, n: int, unit=1) -> list:
    """unit * x^n modulo p = x^d - coeffs[0] x^(d-1) - ... - coeffs[d-1], as d coefficients.

    Integer coefficients are first split: while p = (x - rho) q with rho = 1
    or -1 a simple root, the loop peels it and jumps on q, the same jump with
    a smaller d. Then x^n mod p = r + c q with r = x^n mod q, c = (rho^n -
    r(rho)) / q(rho), and q(rho) = p'(rho) != 0. That division is exact, which
    ``divmod`` checks, in ints and in Decimals alike: a remainder raises
    ``ArithmeticError``. A double root stays in q. T's, M's and L2D's cubics
    each shed the root -1, so their jumps power a quadratic. The factor left
    has one powering loop, chosen by its degree: an integer quadratic is
    doubled by ``_lucas_power``, two squarings a bit, and ``_binary_power``
    serves every other degree and any other ring.
    """
    peeled = []  # (root, q, q(root)), outermost first
    integer = all(type(c) is int for c in coeffs)
    if integer:
        for root in (1, -1):
            value, slope, quotient = _divide_by_root(coeffs, root)
            if value == 0 and slope:
                coeffs = quotient
                peeled.append((root, coeffs, slope))
    powering = _lucas_power if integer and len(coeffs) == 2 else _binary_power
    rem = powering(coeffs, n, unit) if coeffs else []
    for root, quotient, slope in reversed(peeled):
        power = unit if root == 1 or n % 2 == 0 else -unit  # root^n
        c, wrong = divmod(power - sum(rem[::2]) - root * sum(rem[1::2]), slope)
        if wrong:
            raise ArithmeticError(f"x^{n} modulo a factor x - ({root}) left a remainder")
        rem = [r - c * e for r, e in zip(rem, reversed(quotient))] + [c]
    return rem


def _lucas_power(coeffs: tuple[int, int], n: int, unit) -> list:
    """unit * x^n modulo x^2 - P x + N, coeffs = (P, -N) integers: ``_x_power``'s jump.

    Doubling on the pair (U_(k-1), U_k) of the Lucas sequence U_0 = 0, U_1 =
    1, U_(k+1) = P U_k - N U_(k-1), for which x^k = U_k x - N U_(k-1) (Joye and
    Quisquater 1996). A bit costs two squarings, a = U_(k-1)^2 and b = U_k^2:
    U_(2k-1) = b - N a, and by Cassini's identity U_k^2 - P U_k U_(k-1) + N
    U_(k-1)^2 = N^(k-1) the cross product U_k U_(k-1) = (b + N a - N^(k-1)) /
    P, one exact division, which ``divmod`` checks (for P = 0 the product is 0
    and the numerator must be): a remainder raises ``ArithmeticError``. Then
    U_(2k) = P b - 2 N U_k U_(k-1), and a set bit steps the pair once.
    N^(k-1) is carried by squaring; it is 1 or -1 for every modulus the
    package powers. The U are numbers of the unit's type: ints, or Decimals.
    """
    if n == 0:
        return [unit, 0 * unit]
    P, N = coeffs[0], -coeffs[1]
    low, high, norm = 0, unit, 1  # U_(k-1), U_k and N^(k-1), from k = 1
    for bit in bin(n)[3:]:
        b, na = high * high, N * (low * low)
        cassini = b + na - norm
        cross, wrong = divmod(cassini, P) if P else (0, cassini)
        if wrong:
            raise ArithmeticError(f"x^{n} modulo x^2 - ({P})x + ({N}): a squaring left a remainder")
        low, high, norm = b - na, P * b - 2 * N * cross, norm * norm * N
        if bit == "1":
            low, high, norm = high, P * high - N * low, norm * N
    return [+(-N * low), +high]  # + drops the sign a Decimal zero takes from a negative factor


def _binary_power(coeffs: tuple, n: int, unit) -> list:
    """unit * x^n modulo the characteristic polynomial: ``_x_power``'s jump for a
    degree d >= 1 other than an integer quadratic's.

    Left-to-right binary powering: a bit costs one squaring, d(d+1)/2 big
    multiplies reduced by the small coefficients, and a set bit a shift by x.
    The coefficients are numbers of the unit's type: ints, or Decimals.
    """
    d = len(coeffs)
    rem = [unit] + [0] * (d - 1)
    for bit in bin(n)[2:]:
        square = [0] * (2 * d - 1)
        for i, ri in enumerate(rem):
            square[2 * i] += ri * ri
            for j in range(i + 1, d):
                cross = ri * rem[j]
                square[i + j] += cross + cross
        rem = _reduce(square, coeffs)
        if bit == "1":
            rem = _reduce([0] + rem, coeffs)
    return rem


def rec_eval_matpow(rec: LinearRecurrence, n: int):
    """nth term by Fiduccia's jump: O(d^2 log n) big multiplies.

    x^(n - start) reduced modulo the characteristic polynomial by ``_x_power``
    is sum r_j x^j, and a(n) = sum r_j a(start + j); below the order, x^(n -
    start) is its own remainder and picks one initial term. The jump runs in
    the type of ``rec.initial``: ints or Decimals.
    """
    if n < rec.start:
        raise ValueError(f"index {n} below starting index {rec.start}")
    rem = _x_power(rec.coeffs, n - rec.start, type(rec.initial[0])(1))
    return sum(r * a for r, a in zip(rem, rec.initial))


def vector_jump(rec: LinearRecurrence, n: int) -> dict[int, int]:
    """v_n of a recurrence on vectors, such as ``certified_recurrence`` returns.

    Fiduccia's jump on vectors: v_n = sum r_i v_i over the initial vectors,
    with sum r_i x^i = x^n reduced by ``_x_power``, in ints. It charges no
    budget: its caller bounds n, as ``count_bricks`` jumps only within a
    prism that ``budget.layer_dp`` admitted.
    """
    jumped: dict[int, int] = {}
    for r, vector in zip(_x_power(rec.coeffs, n), rec.initial):
        if r:
            for key, value in vector.items():
                jumped[key] = jumped.get(key, 0) + r * value
    return jumped


# Berlekamp-Massey runs modulo these primes, the first at first and the next after each
# failed check, and lifts its coefficients as symmetric residues; the exact check over Z
# decides. The first, the largest prime below 2^30, is one CPython digit, so reducing a
# projection of huge counts and the fit's own arithmetic are cheap; it lifts the 19-bit
# coefficients of the 2 x 4 prism's full layers. The Mersenne primes after it lift wider
# ones: 2^127 - 1 the 68-bit coefficients of the 2 x 5 prism's order-76 run of full
# layers, and of the 3 x 3 prism's order-114 run above a deleted foot cell, the widest
# any prism of the tests needs. The wider ones keep a longer recurrence certifiable.
_BM_PRIMES = (2**30 - 35, 2**61 - 1, 2**127 - 1, 2**521 - 1, 2**1279 - 1, 2**4253 - 1)
# A projection weights coordinate s of a vector by x^s modulo the first prime, x = _BASE
# + attempt: a one-digit weight multiplies a big entry fast, and the weighted sum is
# reduced once. A projection hides part of the vectors' recurrence only if its weights
# fall on the zero set of a nonzero polynomial of degree at most the order, which fixed
# pseudo-random weights all but never do; an unlucky projection costs a refit on the
# next, never a wrong count.
_BASE = 0x9E3779B9


@lru_cache(maxsize=1 << 16)  # the 2^15 masks of a 15-cell cross-section, for two attempts
def _weight(attempt: int, coordinate: int) -> int:
    return pow(_BASE + attempt, coordinate, _BM_PRIMES[0])


class _Fit:
    """Berlekamp-Massey on projected vectors, fed one at a time (Massey 1969).

    Attempt t projects and fits modulo the prime ``_BM_PRIMES[t]``. ``conn``
    is the connection polynomial [1, c_1, ..., c_L] of the shortest
    recurrence a(n) + c_1 a(n-1) + ... + c_L a(n-L) = 0 mod p of the
    projections fed so far, L = ``order``.
    """

    def __init__(self, attempt: int, vectors: Iterable[Mapping[int, int]] = ()) -> None:
        self.attempt, self.prime = attempt, _BM_PRIMES[attempt]
        self.terms: list[int] = []
        self.conn, self.prev = [1], [1]
        # inverse: 1 / the misfit when prev was current
        self.order, self.gap, self.inverse = 0, 1, 1
        for vector in vectors:
            self.feed(vector)

    def feed(self, vector: Mapping[int, int]) -> None:
        p, s, conn, gap, t = self.prime, self.terms, self.conn, self.gap, self.attempt
        s.append(sum(value * _weight(t, key) for key, value in vector.items()) % p)
        n = len(s) - 1
        misfit = sum(map(mul, conn, s[::-1])) % p  # conn[i] * s[n - i]
        if not misfit:
            self.gap += 1
            return
        scale = misfit * self.inverse % p
        old = conn[:]
        conn += [0] * (len(self.prev) + gap - len(conn))
        conn[gap : gap + len(self.prev)] = [
            (c - scale * b) % p for c, b in zip(conn[gap:], self.prev)
        ]
        if 2 * self.order <= n:
            self.order, self.prev, self.gap = n + 1 - self.order, old, 1
            self.inverse = pow(misfit, -1, p)
        else:
            self.gap += 1

    def lifted(self) -> tuple[int, ...]:
        """The recurrence's coefficients (-c_1, ..., -c_L) as symmetric residues."""
        p, conn = self.prime, (self.conn + [0] * self.order)[1 : self.order + 1]
        return tuple(-c if c <= p // 2 else p - c for c in conn)


def _annihilates(coeffs: tuple[int, ...], vectors: list[Mapping[int, int]]) -> bool:
    """Exactly v_L = sum c_i v_(L-i), L = len(coeffs), on every coordinate of v_0..v_L."""
    order = len(coeffs)
    window = vectors[: order + 1]
    return all(
        window[order].get(s, 0)
        == sum(c * window[order - i].get(s, 0) for i, c in enumerate(coeffs, start=1))
        for s in set().union(*window)
    )


def certified_recurrence(vectors: Iterable[Mapping[int, int]]) -> LinearRecurrence | None:
    """The recurrence v_j = c_1 v_(j-1) + ... + c_K v_(j-K), proved for every j, or None.

    ``vectors`` yields v_0, v_1, ... with v_j = v_0 B^j for one linear map B,
    each a mapping from int coordinates to ints, a missing coordinate 0. They
    are read only as far as needed. Berlekamp-Massey runs online on a
    projection of each vector modulo a prime below 2^30 (Wiedemann 1986);
    its candidate of order L has its coefficients lifted as symmetric
    residues. Once v_0..v_2L are in, the candidate is checked exactly: v_L =
    sum c_i v_(L-i) on every coordinate present in v_0..v_L. That is v_0 q(B)
    = 0, so it holds at every shift, v_(L+m) = sum c_i v_(L+m-i) for all m,
    and no dimension bound is needed. A failed check (a wrong lift, an
    unlucky projection, too few vectors, or vectors of no one map) refits the
    stored vectors on a fresh projection modulo the next, wider prime, and a
    rejected candidate is never checked again. None when the vectors run out
    first, or a check fails modulo the widest prime. The recurrence starts at
    index 0 with v_0..v_(K-1) as its initial terms; zero vectors get v_j = 0
    v_(j-1).
    """
    seen: list[Mapping[int, int]] = []
    attempt, rejected = 0, None
    fit = _Fit(attempt)
    for j, vector in enumerate(vectors):
        seen.append(vector)
        fit.feed(vector)
        while j >= 2 * fit.order and (coeffs := fit.lifted()) != rejected:
            if _annihilates(coeffs, seen):
                if not coeffs:
                    return LinearRecurrence((0,), (seen[0],))
                return LinearRecurrence(coeffs, tuple(seen[: len(coeffs)]))
            rejected, attempt = coeffs, attempt + 1
            if attempt == len(_BM_PRIMES):
                return None
            fit = _Fit(attempt, seen)
    return None


@cache
def _exact_context():
    """The context of every Decimal term: any rounding or overflow raises.

    It is built on first use, so that only Decimal terms load ``decimal``, and
    every later call returns the same object.
    """
    import decimal

    return decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[
            decimal.InvalidOperation,
            decimal.DivisionByZero,
            decimal.Overflow,
            decimal.Inexact,
            decimal.Rounded,
        ],
    )


def _exact(terms: Iterator) -> Iterator:
    """Yield from ``terms``, each step run in a private context holding the exact one, no copy."""
    from contextvars import copy_context  # only Decimal terms load it
    from decimal import setcontext

    private = copy_context()
    private.run(setcontext, _exact_context())
    while True:
        try:
            term = private.run(next, terms)
        except StopIteration:
            return
        yield term


class Family(Record):
    """A named counting sequence: recurrence plus optional closed form."""

    __slots__ = ("name", "description", "recurrence", "closed")

    def __init__(
        self,
        name: str,
        description: str,
        recurrence: LinearRecurrence,
        closed: ClosedForm | None = None,
    ) -> None:
        super().__init__(name, description, recurrence, closed)

    @property
    def start(self) -> int:
        return self.recurrence.start

    def terms(self, lo: int, hi: int, method: str = "iter", unit=1) -> Iterator:
        """a(lo), ..., a(hi) by ``method``: ints for the unit 1, exact Decimals for Decimal(1).

        Every check and ``budget.seq_terms``, which charges the unit's
        arithmetic, raise on the call, before any term is computed. ``iter``
        jumps once to lo and shifts the remainder by x to reach the first
        ``order`` terms, each the remainder's weights on the initial terms, and
        runs one forward pass on from them; ``matpow`` jumps to each term.
        Decimal terms are computed in an exact, trapped decimal context, set in
        a private ``contextvars`` context: the caller's is never touched.
        """
        if method not in ("iter", "matpow", "closed"):
            raise ValueError(f"unknown method {method!r}")
        if method == "closed" and self.closed is None:
            raise ValueError(f"family {self.name} has no closed form")
        if lo < self.start:
            raise ValueError(f"family {self.name} starts at index {self.start}")
        if hi < lo:
            raise ValueError("empty range")
        budget.seq_terms(self.name, self.recurrence.coeffs, lo, hi, method, unit)
        terms = self._computed(lo, hi, method, unit)
        return _exact(terms) if budget.is_decimal(unit) else terms

    def _computed(self, lo: int, hi: int, method: str, unit) -> Iterator:
        if method == "closed":  # reads no recurrence, so builds none
            yield from _closed_terms(self.closed, lo, hi, unit)
            return
        coeffs, initial = self.recurrence.coeffs, self.recurrence.initial
        rec = LinearRecurrence(coeffs, tuple(unit * a for a in initial), self.start)
        if method == "matpow":
            yield from (rec_eval_matpow(rec, n) for n in range(lo, hi + 1))
            return
        # iter: one jump to lo, then a shift by x a term up to the order
        rem, head = _x_power(coeffs, lo - self.start, unit), []
        for n in range(lo, min(hi, lo + rec.order - 1) + 1):
            if n > lo:
                rem = _reduce([0] + rem, coeffs)
            head.append(sum(map(mul, rem, rec.initial)))
        if len(head) < rec.order:
            yield from head
        else:
            yield from rec_terms(LinearRecurrence(coeffs, tuple(head), lo), lo, hi)

    def eval(self, n: int, method: str = "iter") -> int:
        return next(self.terms(n, n, method))


@lru_cache(maxsize=1)
def catalog() -> dict[str, Family]:
    """All sequence families, keyed by their CLI token."""
    families = [
        Family(
            name="F",
            description="domino tilings of a 2 x n rectangle (F(0) = F(1) = 1)",
            recurrence=LinearRecurrence((1, 1), (1, 1), start=0),
        ),
        Family(
            name="A",
            description="domino tilings of a 3 x 2n rectangle",
            recurrence=LinearRecurrence((4, -1), (3, 11), start=1),
            # ((3 + s3)(2 + s3)^n + (3 - s3)(2 - s3)^n) / 6, s3 = sqrt(3)
            closed=ClosedForm(3, 6, 1, ((3, 1, 2, 1), (3, -1, 2, -1))),
        ),
        Family(
            name="B",
            description="domino tilings of a 3 x (2n+1) rectangle minus one corner cell",
            recurrence=LinearRecurrence((4, -1), (1, 4), start=0),
            # ((2 + s3)^(n+1) - (2 - s3)^(n+1)) / (2 s3), the n+1 folded into 3 +- 2 s3
            closed=ClosedForm(3, 6, 1, ((3, 2, 2, 1), (3, -2, 2, -1))),
        ),
        Family(
            name="C",
            description="domino tilings of a 3 x (2n+2) rectangle minus two corner-row cells",
            recurrence=LinearRecurrence((4, -1), (2, 7), start=0),
            # ((2 + s3)^(n+1) + (2 - s3)^(n+1)) / 2
            closed=ClosedForm(3, 2, 1, ((2, 1, 2, 1), (2, -1, 2, -1))),
        ),
        Family(
            name="T",
            description="brick tilings of a 2 x 2 x n tower",
            recurrence=LinearRecurrence((3, 3, -1), (2, 9, 32), start=1),
            # ((2 + s3)^(n+1) + (2 - s3)^(n+1)) / 6 + (-1)^n / 3
            closed=ClosedForm(3, 6, 1, ((2, 1, 2, 1), (2, -1, 2, -1), (2, 0, -1, 0))),
        ),
        Family(
            name="M",
            description="brick tilings of a 2 x 2 x n tower minus two adjacent top cells",
            recurrence=LinearRecurrence((3, 3, -1), (1, 3, 12), start=1),
        ),
        Family(
            name="L3",
            description="domino tilings of the width-3 right angle with equal arms",
            recurrence=LinearRecurrence((14, -1), (11, 153), start=1),
            # ((3 + s3)(7 + 4 s3)^n + (3 - s3)(7 - 4 s3)^n) / 6
            closed=ClosedForm(3, 6, 1, ((3, 1, 7, 4), (3, -1, 7, -4))),
        ),
        Family(
            name="L2D",
            description="domino tilings of the width-2 right angle at arm lengths (n, n-1)",
            recurrence=LinearRecurrence((2, 2, -1), (1, 3, 7), start=1),
            # 2/5 (((3 + s5) / 2)^n + ((3 - s5) / 2)^n) + (-1)^n / 5, s5 = sqrt(5)
            closed=ClosedForm(5, 5, 2, ((2, 0, 3, 1), (2, 0, 3, -1), (1, 0, -2, 0))),
        ),
    ]
    return {f.name: f for f in families}


def _at(lookup, i: int) -> int:
    """lookup(i), with index -1 read as 0: the backward extension F(-1) = B(-1) = 0."""
    return 0 if i == -1 else lookup(i)


def l2_formula(f, n: int, k: int) -> int:
    """F(n) F(k-1) + F(n-1) F(k), each F(i) read from the lookup f(i), F(-1) as 0."""
    return f(n) * _at(f, k - 1) + _at(f, n - 1) * f(k)


def l3_formula(a, b, c, n: int, k: int) -> int:
    """A(n) A(k) + C(n-1) B(k-1) + B(n-2) B(k-1), each term read from the lookups a, b, c.

    B(-1) = 0, the backward extension forced by 4 B(0) - B(1) = 0, is read as 0;
    B(k-1) is read once.
    """
    return a(n) * a(k) + (c(n - 1) + _at(b, n - 2)) * b(k - 1)


def fibonacci(n: int) -> int:
    """Shifted Fibonacci: F(0) = F(1) = 1, extended backward with F(-1) = 0."""
    if n < -1:
        raise ValueError(f"fibonacci defined for n >= -1, got {n}")
    return _at(catalog()["F"].eval, n)


def l2(n: int, k: int) -> int:
    """Tilings of the width-2 right angle: F(n) F(k-1) + F(n-1) F(k).

    k = 0 is allowed via the backward extension F(-1) = 0, so the diagonal
    l2(n, n-1) matches its alternating closed form from n = 1 onward.
    """
    if n < 1 or k < 0:
        raise ValueError(f"l2 needs n >= 1 and k >= 0, got ({n}, {k})")
    f, top = catalog()["F"], max(n, k)
    # its 4 int jumps are charged at once: each term alone is admitted up to the limit
    budget.seq_terms("F", f.recurrence.coeffs, top, top, "iter", 1, calls=4)
    return l2_formula(f.eval, n, k)


def l3(n: int, k: int) -> int:
    """Tilings of the width-3 right angle with arms 2n and 2k, by ``l3_formula``."""
    if n < 1 or k < 1:
        raise ValueError(f"l3 needs n, k >= 1, got ({n}, {k})")
    a, b, c = (catalog()[name] for name in ("A", "B", "C"))
    top = max(n, k)
    # its 5 int jumps, at most to A(top), are charged at once, as in l2
    budget.seq_terms("A", a.recurrence.coeffs, top, top, "iter", 1, calls=5)
    return l3_formula(a.eval, b.eval, c.eval, n, k)
