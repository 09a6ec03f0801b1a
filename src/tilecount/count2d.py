"""Exact domino-tiling counters for 2D regions.

Three counting routes, on purpose:

* ``count_tilings`` — the counter for any region (``@file`` pictures, the
  angles and defect grids, the identity suites and the flat layers of
  ``solid3d``): the absolute value of the Kasteleyn determinant, reduced by
  sparse fraction-free elimination; a region that a diagonal reflection
  maps onto itself, such as a square or an Aztec diamond, is the product of
  its two halves' determinants and a power of two (Ciucu's factorization);
* ``count_rectangle`` — the full rows x cols rectangle from its size alone,
  as the CLI counts ``rect:R,C`` and ``a:n``: the Kasteleyn-Temperley-Fisher
  product as the norm of one polynomial modulo another, both stepped by one
  recurrence, a determinant of size ceil(m/2), m the short side;
* ``count_tilings_bruteforce`` — direct backtracking over placements, the
  oracle the determinant is validated against on small regions. Its search,
  ``perfect_matchings``, also drives ``enumerate_tilings`` and the 3D
  oracle in ``solid3d``.

The tests cross-check the determinant on larger regions against the layer
DP of ``solid3d``: a region is a 1 x W prism, W its narrow side, with one
layer per row and its missing cells deleted. That DP's flat counts are
one-row regions, which the tests check against the oracle in full. The
norm is checked against the determinant on every rectangle up to 12 x 12,
and against the product formula and the strip families at their edges.

Each route is admitted by its check in ``budget`` before any work. All
counts are exact Python integers; nothing here touches floating point.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from functools import partial
from itertools import islice
from operator import add, sub

from . import budget
from .record import Record
from .regions2d import Cell, Region2D, rect_size

# Ciucu's split pays once the axis holds 6 cells. Whole -> split, best of 200-300
# alternating calls (CPython 3.11.7, shared 2-vCPU host), w the axis cells:
#   w = 2: l2:10,10 69 -> 90 us, l2:50,50 323 -> 373, the 2 x 2 square 13.0 -> 15.3;
#   w = 4: Aztec diamond of order 4 96 -> 63, 4 x 4 square 39.7 -> 36.2, but an L of
#          arms 4 wide and 12 long 200 -> 206;
#   w = 6: order 5 164 -> 94, 6 x 6 96 -> 64, the L 6 wide 379 -> 331;
#   w = 10: order 9 918 -> 335, order 10 1442 -> 451.
MIN_SPLIT_AXIS = 6
STEPS_2D = ((0, 1), (1, 0))  # right, then down: horizontal before vertical


Domino = tuple[Cell, Cell]  # pair of edge-adjacent cells, stored sorted


class Tiling(Record):
    """A perfect domino tiling: disjoint adjacent pairs covering a region."""

    __slots__ = ("dominoes",)

    def __init__(self, dominoes: frozenset[Domino]) -> None:
        super().__init__(dominoes)

    def cells(self) -> frozenset[Cell]:
        return frozenset(cell for pair in self.dominoes for cell in pair)

    def __len__(self) -> int:
        return len(self.dominoes)


def count_tilings(region: Region2D) -> int:
    """Exact number of perfect domino tilings of ``region``.

    |det K| for the Kasteleyn matrix K (Kasteleyn 1961; Temperley & Fisher
    1961): rows are the black cells (row + column even), columns the white
    ones, and K holds ±1 per edge-adjacent pair, signed so that every tiling
    adds the same sign to the determinant. A vertical edge (r, c)-(r+1, c)
    gets (-1)^c, so each unit square has an odd number of negative edges; a
    horizontal edge (r, c)-(r, c+1) gets (-1)^(r - a), a the region's cells
    above it in column c, so r - a the missing ones: a cut from each missing
    bounding-box cell up to the outer face, which fixes holes of odd size.

    Cells are keyed by the int r * W + c, W the width plus a spare column
    that keeps c ± 1 in its row, and numbered by one sort of (r + s*c, r, c):
    along anti-diagonals, s = ±1 whichever gives the smaller sum of squared
    level sizes (a level: the cells that share r + s*c; s is the same for a
    region and its transpose). K is then banded level by level, so the cost
    follows the region, not its bounding box. The cells are split into rows
    and columns once, and the level counts and the sort run on those.

    A region in a square bounding box that a diagonal reflection maps onto
    itself is counted as two halves, each about half its cells, by Ciucu's
    factorization (Ciucu, JCTA 77, 1997): M = 2^(w/2) M(G-) M(G+), w its cells
    on the axis, and 2^(w/2) M(G-)^2 when the half-turn maps it onto itself
    too (``_count_halves``). It splits only when the axis holds at least
    ``MIN_SPLIT_AXIS`` cells, read from the level counts; below that the
    whole region is cheaper, and nothing more is read. The halves take the
    whole region's level order, swapped by the mirror of an anti-diagonal.

    Guards, in order: the empty region counts 1; an odd number of cells or
    unequal colour classes count 0, read from the r + c level counts, as a
    level's parity is its colour; ``budget.determinant`` refuses a region
    over its work estimate before any sort, matrix or elimination. All
    three see the whole region, split or not.
    """
    cells = region.cells
    if not cells:
        return 1
    rows, cols = zip(*cells)
    # the level r + s*c of (r, c) is add(r, c) or sub(r, c); level counts by op
    levels = {add: Counter(map(add, rows, cols))}
    if 2 * sum(n for level, n in levels[add].items() if level % 2) != len(cells):
        return 0  # odd, or unequal colours
    levels[sub] = Counter(map(sub, rows, cols))
    along = min(levels, key=lambda op: sum(n * n for n in levels[op].values()))
    budget.determinant(sum(n**3 for n in levels[along].values()), len(cells))

    side = max(cols)  # a square bounding box's diagonals are r - c = 0 and r + c = side
    if max(levels[sub].get(0, 0), levels[add].get(side, 0)) >= MIN_SPLIT_AXIS and max(rows) == side:
        count = _count_halves(cells, rows, cols, side, levels, along)
        if count is not None:
            return count
    return _kasteleyn_det(rows, cols, along, side + 2)


def _count_halves(cells, rows, cols, side, levels, along) -> int | None:
    """The count of a region in a side + 1 square that a diagonal reflection
    maps onto itself, by Ciucu's factorization; None for any other region.

    The main diagonal is taken if its axis holds ``MIN_SPLIT_AXIS`` cells and
    the region is its own transpose; else the mirror c -> side - c takes the
    anti-diagonal onto the main one. The halves take the whole region's level
    order, swapped by the mirror. The w axis cells, in order along it, are a,
    b, a, b, ...; G- is the cells below the axis with the a's, and G+ the
    transpose of the cells above it with the b's, which is the cells below
    with the b's. The count is 2^(w/2) M(G-) M(G+), and M(G-)^2 when the
    region is its own half-turn, which maps G- onto G+.
    """
    flip = partial(sub, side)  # c -> side - c
    if levels[sub].get(0, 0) < MIN_SPLIT_AXIS or cells != frozenset(zip(cols, rows)):
        if levels[add].get(side, 0) < MIN_SPLIT_AXIS:
            return None
        cols = [*map(flip, cols)]
        cells = frozenset(zip(rows, cols))
        if cells != frozenset(zip(cols, rows)):
            return None
        along = sub if along is add else add  # the mirror turns r + c levels into r - c ones
    axis = [i for i in range(side + 1) if (i, i) in cells]
    below = [(r, c) for r, c in cells if r > c]
    w = len(axis)  # even: the axis cells share one colour, the others pair up by the reflection
    count = _kasteleyn_det(*zip(*below, *((i, i) for i in axis[::2])), along, side + 2)
    if cells == frozenset(zip(map(flip, rows), map(flip, cols))):
        count *= count
    else:
        count *= _kasteleyn_det(*zip(*below, *((i, i) for i in axis[1::2])), along, side + 2)
    return count << w // 2


def _kasteleyn_det(rows, cols, along, width: int) -> int:
    """|det K| for the cells (rows[i], cols[i]), numbered by one sort along the
    levels ``along`` (``add`` or ``sub``), with every column below ``width - 1``.
    """
    above = [0] * width  # column -> its cells passed so far: a level order runs top down
    black, white, right_sign = [], {}, {}  # right_sign: key -> sign of the edge to its right
    for _, r, c in sorted(zip(map(along, rows, cols), rows, cols)):
        key = r * width + c
        right_sign[key] = -1 if (r - above[c]) % 2 else 1
        above[c] += 1
        if (r + c) % 2:
            white[key] = len(white)
        else:
            black.append((key, -1 if c % 2 else 1))
    matrix = []
    for key, down_sign in black:
        row = {  # a missing neighbour files its sign under None, dropped below
            white.get(key - width): down_sign,
            white.get(key - 1): right_sign.get(key - 1),
            white.get(key + 1): right_sign[key],
            white.get(key + width): down_sign,
        }
        row.pop(None, None)
        matrix.append(row)
    return _abs_det(matrix)


def count_rectangle(rows: int, cols: int) -> int:
    """Exact number of domino tilings of the full rows x cols rectangle, from
    its size alone: no cell is built.

    The Kasteleyn-Temperley-Fisher product (Kasteleyn 1961; Temperley &
    Fisher 1961) as an integer norm. With m the short side and n the long
    one, the count is prod over j <= ceil(m/2), k <= ceil(n/2) of
    4cos^2(j pi/(m+1)) + 4cos^2(k pi/(n+1)), which is |Res_y(P_m(y), P_n(-y))|
    for the monic integer polynomials P_k of ``_ktf_term``, the absolute norm
    of P_n(-y) in Z[y]/(P_m) that ``_ktf_norm`` takes.

    ValueError unless both sides are positive, with ``rect``'s message. The
    admission is ``budget.rectangle``, the determinant's estimate for the same
    rectangle, so ``count_tilings`` and this route refuse the same sizes. An
    odd number of cells counts 0 before any work.
    """
    m, n = sorted(rect_size(rows, cols))
    budget.rectangle(m, n)
    return 0 if m * n % 2 else _ktf_norm(m, n)


def _ktf_term(k: int, one: list[int], times_t) -> list[int]:
    """P_k(t), by P_(k+2) = (t - 2) P_k - P_(k-2) from P_0 = 1, P_(-2) = -1 or
    P_1 = t, P_(-1) = 0, in a ring of lists with unit ``one`` and ``times_t``.
    """
    below, poly = ([0] * len(one), times_t(one)) if k % 2 else ([-u for u in one], one)
    for _ in range(k // 2):
        below, poly = poly, [u - 2 * v - w for u, v, w in zip(times_t(poly), poly, below)]
    return poly


def _ktf_norm(m: int, n: int) -> int:
    """|N(P_n(-y))| in Z[y]/(P_m), m, n >= 1: the m x n count, or 0 when both
    are odd, by ``_abs_det`` on 1, y, ..., y^(d-1); d = ceil(m/2) = deg P_m sets
    the cost, so ``count_rectangle`` takes m as the short side. P_m is stepped on
    d + 1 coefficients, where no term drops, and P_n(-y) n // 2 times, no jump
    needed: the admission bounds n, at most 45,750 (at m = 1, about 0.04 s).
    """
    d = (m + 1) // 2
    modulus = _ktf_term(m, [1] + [0] * d, lambda f: [0, *f[:-1]])

    def times_t(f: list[int]) -> list[int]:  # by -y modulo the monic P_m
        return [f[-1] * c - u for u, c in zip([0, *f[:-1]], modulus)]

    rows, s_n = [], _ktf_term(n, [1] + [0] * (d - 1), times_t)
    for _ in range(d):  # s_n, -y s_n, y^2 s_n, ...: signs leave |det| alone
        rows.append({j: v for j, v in enumerate(s_n) if v})
        s_n = times_t(s_n)
    return _abs_det(rows)


def _abs_det(rows: list[dict[int, int]]) -> int:
    """|det| of the square integer matrix whose row i maps column -> entry.

    Bareiss's fraction-free elimination (Bareiss 1968) on sparse rows, which
    it consumes. Step k pivots on the lowest-numbered remaining row with a
    nonzero in column k; that entry is the pivot p_k. Every entry stays an
    integer (a minor of the matrix), and every division is exact.

    At step k, Bareiss scales each row with a zero in column k by
    p_k / p_{k-1}. Those rows are left as they are, so the work stays inside
    the band of nonzeros; a row last updated after s steps stands for its
    entries times p_{k-1} / p_{s-1}. Its update at step k,
    (p_k * entry - row[k] * pivot_row[j]) / p_{k-1}, is then the same
    expression on its stored entries, divided by p_{s-1} instead. Rows are
    updated in place, and a scaling by a pivot or base of 1 is skipped.
    """
    n = len(rows)
    holders: list[set[int]] = [set() for _ in range(n)]  # column -> rows with a nonzero there
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    pivots = [1]  # pivots[s]: p_{s-1}, the pivot of step s - 1
    steps_done = [0] * n
    for k in range(n):
        column = holders[k]
        if not column:
            return 0
        p = min(column)
        column.discard(p)
        pivot_row = rows[p]
        base = pivots[steps_done[p]]
        if base != pivots[k]:
            for j, v in pivot_row.items():
                pivot_row[j] = v * pivots[k] // base
        pivot = pivot_row.pop(k)
        for j in pivot_row:
            holders[j].discard(p)
        for i in column:
            base = pivots[steps_done[i]]
            row = rows[i]
            lead = row.pop(k)
            if pivot != 1:
                for j in row:
                    row[j] *= pivot
            for j, v in pivot_row.items():
                if j not in row:  # fill-in
                    row[j] = -lead * v
                    holders[j].add(i)
                elif entry := row[j] - lead * v:
                    row[j] = entry
                else:  # cancellation
                    del row[j]
                    holders[j].discard(i)
            if base != 1:
                for j in row:
                    row[j] //= base
            steps_done[i] = k + 1
        column.clear()
        pivots.append(pivot)
    return abs(pivots[n])


def perfect_matchings(cells: frozenset, steps) -> Iterator[tuple]:
    """Yield each perfect matching of ``cells`` as a tuple of cell pairs.

    Backtracking on the first free cell in sorted order, which is paired
    with its neighbour at each of ``steps`` in turn (a step is added to the
    cell coordinate-wise), so the matchings come in a fixed order.
    """
    if not cells:
        yield ()
        return
    first = min(cells)
    for step in steps:
        other = tuple(map(add, first, step))
        if other in cells:
            for rest in perfect_matchings(cells - {first, other}, steps):
                yield ((first, other), *rest)


def _guarded_matchings(cells: frozenset, steps, max_cells: int, name: str) -> Iterator[tuple]:
    """``perfect_matchings`` behind ``budget.search``, which runs on the call; an
    odd number of cells yields no matching without a search.
    """
    budget.search(len(cells), max_cells, name)
    return iter(()) if len(cells) % 2 else perfect_matchings(cells, steps)


def count_tilings_bruteforce(region: Region2D) -> int:
    """Oracle counter: backtracking on the first uncovered cell.

    Counts the matchings ``perfect_matchings`` yields, pairing each first
    free cell with its right neighbour, then its lower one. Over
    ``budget.MAX_ORACLE_CELLS`` cells it raises ``BudgetError``, to bound the search.
    """
    matchings = _guarded_matchings(region.cells, STEPS_2D, budget.MAX_ORACLE_CELLS, "oracle")
    return sum(1 for _ in matchings)


def enumerate_tilings(region: Region2D, limit: int) -> list[Tiling]:
    """First ``limit`` tilings in deterministic lexicographic order.

    Same search order and cell budget as the oracle (first free cell;
    horizontal placement before vertical), so prefixes are stable across runs.
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    matchings = _guarded_matchings(region.cells, STEPS_2D, budget.MAX_ORACLE_CELLS, "enumeration")
    return [Tiling(frozenset(dominoes)) for dominoes in islice(matchings, limit)]


def render_tiling_ascii(tiling: Tiling) -> str:
    """Draw a tiling with paired half-marks.

    Horizontal dominoes render as ``<>``, vertical ones as ``^`` over ``v``,
    absent cells as ``.``. The drawing parses back to the same domino set
    via ``parse_tiling_ascii``.
    """
    cells = tiling.cells()
    if not cells:
        return ""
    height = max(r for r, _ in cells) + 1
    width = max(c for _, c in cells) + 1
    grid = [["."] * width for _ in range(height)]
    for a, b in tiling.dominoes:
        (r1, c1), (r2, c2) = sorted((a, b))
        if r1 == r2 and c2 == c1 + 1:
            grid[r1][c1], grid[r2][c2] = "<", ">"
        elif c1 == c2 and r2 == r1 + 1:
            grid[r1][c1], grid[r2][c2] = "^", "v"
        else:
            raise ValueError(f"domino cells are not adjacent: {a}, {b}")
    return "\n".join("".join(row) for row in grid)


def parse_tiling_ascii(text: str) -> Tiling:
    """Inverse of ``render_tiling_ascii``."""
    marks = {}
    for r, line in enumerate(text.splitlines()):
        for c, ch in enumerate(line):
            if ch in "<>^v":
                marks[(r, c)] = ch
            elif ch != ".":
                raise ValueError(f"unexpected character {ch!r} at row {r}, column {c}")
    dominoes = set()
    for (r, c), ch in marks.items():
        if ch == "<":
            if marks.get((r, c + 1)) != ">":
                raise ValueError(f"unmatched '<' at {(r, c)}")
            dominoes.add(((r, c), (r, c + 1)))
        elif ch == "^":
            if marks.get((r + 1, c)) != "v":
                raise ValueError(f"unmatched '^' at {(r, c)}")
            dominoes.add(((r, c), (r + 1, c)))
    tiling = Tiling(frozenset(dominoes))
    if tiling.cells() != frozenset(marks):
        raise ValueError("stray '>' or 'v' marks without a partner")
    return tiling
