"""Every refusal of an input too large to count, made before any work.

``BudgetError`` is the one refusal type. Each counting route has one check
here, which estimates its work from the input's size alone and raises when
the estimate is over the route's limit; the work limits stop about 3-4 s
of work, fitted on CPython 3.11 (Xeon):

* ``determinant`` — ``count2d.count_tilings``: sum(level size^3) * (1 +
  cells / 1000)^2, as a level of n cells costs about n^3 updates of entries
  that grow with the region, at 16-40 ns a unit; ``rectangle`` is its value
  for a full rectangle from its size, which also admits
  ``count2d.count_rectangle``;
* ``layer_dp`` — ``solid3d``'s layer DP: layers * 3^k * (1 + cells / 25000)
  for a cross-section of k cells, as a layer tries at most 3^k (from below,
  upright, flat) splits, each dearer as the counts grow, at 9-101 ns a unit
  (the dearest are long 2 x 2 prisms cut by deleted cells into short runs
  that do not repeat). It is the 3D route's one admission: the charge
  counts every layer as stepped, so a certified run's jump needs no other,
  and a prism whose deleted cells repeat, stepped between its runs, costs
  what the fit measured. From k = 16 the 3^k splits of one layer are over
  the limit, and 3^k is capped at 3^64, so a huge cross-section is refused
  at once.
  ``solid3d.box`` asks it before it builds a cell;
* ``search`` — the backtracking searches: a cap on their cells;
* ``seq_terms`` — ``sequences.Family.terms``, and ``l2`` and ``l3``, charged
  once for all their jumps, below. A stepped ``closed`` range, an ``iter``
  head (one jump and d - 1 shifts), a jump whose polynomial sheds the root
  1 or -1 and a jump that doubles a quadratic (two squarings a bit, not
  three multiplies) are over-charged, to keep every edge and message.
"""
from __future__ import annotations

import sys
from math import log10

MAX_ORACLE_CELLS = 30  # the 2D oracle's and the enumeration's search
MAX_BRUTEFORCE_CELLS = 24  # the 3D oracle's search
_DET_BIG_INT_CELLS = 1000
_DET_MAX_WORK = 10**8
_LAYER_BIG_INT_CELLS = 25_000
_LAYER_MAX_WORK = 3 * 10**7

# a(n) has at most n log10(1 + max |coefficient|) decimal digits (Cauchy's bound on
# the roots). The forward pass is charged 2 units a digit of each term it adds and
# prints, which bounds the output too, and over-charges it: it groups its terms by
# weight (no multiply by -1, one multiply per other weight). A jump to a term of s digits
# costs _JUMP order^2 (size + _JUMP_FLOOR): in Decimals, whose multiplies are
# subquadratic, the size is s; in ints, whose multiplies are Karatsuba, it is
# s^1.585 / _KARATSUBA, at 0.04-0.08 ns a unit of order^2 s^1.585. The floor
# charges the Python work a jump does whatever the term's size. `iter` pays for the
# forward pass over its range and min(order, count) jumps to its head; `matpow` and
# `closed` pay one jump a term, each charged the size at the range's mean index. At
# 2.7 ns a unit in Decimals the budget stops work of over about 4 s, and in ints about
# 3-4 s.
_SEQ_MAX_WORK = 15 * 10**8
_JUMP = 27
_JUMP_FLOOR = 50
_KARATSUBA = 900


class BudgetError(ValueError):
    """Raised, before any counting, for an input over a work or size budget."""


def is_decimal(number) -> bool:
    """``isinstance(number, decimal.Decimal)``, without importing ``decimal``:
    no Decimal exists before that module is imported.
    """
    decimal = sys.modules.get("decimal")
    return decimal is not None and isinstance(number, decimal.Decimal)


def _check(work, limit: int, estimate: str, *args) -> None:
    """Raise ``BudgetError`` if ``work`` is over ``limit``, with the message
    "<estimate> exceeds the budget of <limit>": ``estimate`` formatted from
    ``args``, and the work as ``{work}``; the work and each int argument go
    through ``Decimal``, which prints past the int -> str digit limit.
    """
    if work > limit:
        from decimal import Decimal  # only a refusal prints, so only it loads decimal

        args = [Decimal(a) if isinstance(a, int) else a for a in args]
        text = estimate.format(*args, work=Decimal(work))
        raise BudgetError(f"{text} exceeds the budget of {limit:,}")


def determinant(cube_sum: int, cells: int) -> None:
    """The elimination of a region of ``cells`` cells whose anti-diagonal
    level sizes have cubes summing to ``cube_sum``.
    """
    work = cube_sum * (_DET_BIG_INT_CELLS + cells) ** 2 // _DET_BIG_INT_CELLS**2
    _check(work, _DET_MAX_WORK, "estimated elimination work {work:,}")


def rectangle(rows: int, cols: int) -> None:
    """The determinant's refusal of the full rows x cols rectangle, from its
    size alone.

    Its level sizes are min(i + 1, rows, cols, rows + cols - 1 - i): 1, ..., m - 1
    at each end and the short side m on the other M - m + 1 levels, M the long
    side. A rectangle with no cells or an odd number of them is not refused,
    as the counters settle it before any work.
    """
    m, big = sorted((rows, cols))
    if m < 1 or rows * cols % 2:
        return
    determinant(2 * (m * (m - 1) // 2) ** 2 + (big - m + 1) * m**3, rows * cols)


def layer_dp(layers: int, cross_cells: int, cells: int) -> None:
    """The layer DP of a prism of ``layers`` layers over a cross-section of
    ``cross_cells`` cells, with ``cells`` cells in all.

    It charges 3^k splits a layer, k the cross-section's cells, and so
    over-charges the DP: it steps one state per orbit of the cross-section's
    symmetries (27 for a 2 x 4 layer, against 70 upright sets) and counts only
    colour-balanced flat masks.
    """
    splits = 3 ** min(cross_cells, 64)  # over at one layer from 3^16
    work = layers * splits * (_LAYER_BIG_INT_CELLS + cells) // _LAYER_BIG_INT_CELLS
    _check(work, _LAYER_MAX_WORK, "estimated layer-DP work {work:,}")


def search(cells: int, max_cells: int, name: str) -> None:
    """A backtracking search over ``cells`` cells, against the named cap."""
    if cells > max_cells:
        raise BudgetError(f"{cells} cells exceed the {max_cells}-cell {name} budget")


def seq_terms(
    name: str, coeffs: tuple, lo: int, hi: int, method: str, unit=1, calls: int = 1
) -> None:
    """Terms lo..hi of the recurrence ``name`` with ``coeffs`` by ``method``,
    charged in the unit's type: ints, or Decimals for ``Decimal(1)``; ``calls``
    times, for a formula that reads that many such ranges.
    """
    digits = log10(1 + max(map(abs, coeffs)))  # per index
    top = min(hi, 2**53)  # one term past 2^53 is far over budget; floats stay finite
    bottom = min(lo, top)
    count = top - bottom + 1
    index_sum = (bottom + top) * count / 2
    # a jump's size term: s digits in Decimals, s^1.585 / _KARATSUBA in ints
    power, scale = (1, 1) if is_decimal(unit) else (1.585, _KARATSUBA)
    jump = _JUMP * len(coeffs) ** 2
    if method == "iter":
        head = min(len(coeffs), count) * jump * ((digits * bottom) ** power / scale + _JUMP_FLOOR)
        work = 2 * digits * index_sum + head
    else:  # count sizes at the mean index, in Decimals the sum of the sizes
        sizes = count ** (1 - power) * (digits * index_sum) ** power / scale
        work = jump * (sizes + _JUMP_FLOOR * count)
    estimate = "estimated work for {}({}..{})"
    _check(calls * work, _SEQ_MAX_WORK, estimate, name, lo, hi)
