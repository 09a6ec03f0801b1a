"""Exact domino-tiling counters for arbitrary 2D regions.

Two independent counting routes are provided on purpose:

* ``count_tilings`` — broken-profile dynamic programming, feasible for any
  region whose narrow dimension is at most 32 cells;
* ``count_tilings_bruteforce`` — direct backtracking over placements, the
  oracle the DP is validated against on small regions. Its search,
  ``perfect_matchings``, also drives ``enumerate_tilings`` and the 3D
  oracle in ``solid3d``.

All counts are exact Python integers; nothing here touches floating point.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from operator import add

from .regions2d import Cell, Region2D, transpose

MAX_PROFILE_WIDTH = 32
MAX_ORACLE_CELLS = 30
STEPS_2D = ((0, 1), (1, 0))  # right, then down: horizontal before vertical


class RegionTooWideError(ValueError):
    """Raised when a region is too wide for the profile DP in both orientations."""


class RegionTooLargeError(ValueError):
    """Raised when a region exceeds the brute-force/enumeration cell budget."""


Domino = tuple[Cell, Cell]  # pair of edge-adjacent cells, stored sorted


@dataclass(frozen=True)
class Tiling:
    """A perfect domino tiling: disjoint adjacent pairs covering a region."""

    dominoes: frozenset[Domino]

    def cells(self) -> frozenset[Cell]:
        return frozenset(cell for pair in self.dominoes for cell in pair)

    def __len__(self) -> int:
        return len(self.dominoes)


def count_tilings(region: Region2D) -> int:
    """Exact number of perfect domino tilings of ``region``.

    Cell-by-cell broken-profile DP. The scan runs row-major over the bounding
    box; the state is a bitmask over the columns where, standing at column c
    of row r, bits >= c describe row r and bits < c describe row r+1. A set
    bit means the cell is already covered by a previously placed domino.
    Regions wider than tall are transposed first so the mask spans the
    narrow dimension.

    The empty region counts 1; any region with an odd number of cells
    counts 0.
    """
    if not region.cells:
        return 1
    if region.width > region.height:
        region = transpose(region)
    width, height = region.width, region.height
    if width > MAX_PROFILE_WIDTH:
        raise RegionTooWideError(
            f"region is {width} cells across in its narrow dimension; "
            f"the profile DP supports at most {MAX_PROFILE_WIDTH}"
        )
    if len(region.cells) % 2:
        return 0

    cells = region.cells
    states: dict[int, int] = {0: 1}
    for r in range(height):
        for c in range(width):
            bit = 1 << c
            here = (r, c) in cells
            right = c + 1 < width and (r, c + 1) in cells
            below = (r + 1, c) in cells
            nxt: dict[int, int] = {}
            for mask, ways in states.items():
                if not here:
                    if not mask & bit:  # nothing may protrude into a missing cell
                        nxt[mask] = nxt.get(mask, 0) + ways
                    continue
                if mask & bit:
                    # already covered; the bit now refers to (r+1, c), clear it
                    m = mask & ~bit
                    nxt[m] = nxt.get(m, 0) + ways
                    continue
                if right and not mask & (bit << 1):
                    m = mask | (bit << 1)
                    nxt[m] = nxt.get(m, 0) + ways
                if below:
                    m = mask | bit
                    nxt[m] = nxt.get(m, 0) + ways
            states = nxt
            if not states:
                return 0
    return states.get(0, 0)


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


def count_tilings_bruteforce(region: Region2D) -> int:
    """Oracle counter: backtracking on the first uncovered cell.

    Counts the matchings ``perfect_matchings`` yields, pairing each first
    free cell with its right neighbour, then its lower one. Limited to
    ``MAX_ORACLE_CELLS`` cells to keep the exponential search in check.
    """
    if len(region.cells) > MAX_ORACLE_CELLS:
        raise RegionTooLargeError(
            f"{len(region.cells)} cells exceed the {MAX_ORACLE_CELLS}-cell oracle budget"
        )
    if len(region.cells) % 2:
        return 0
    return sum(1 for _ in perfect_matchings(region.cells, STEPS_2D))


def enumerate_tilings(region: Region2D, limit: int) -> list[Tiling]:
    """First ``limit`` tilings in deterministic lexicographic order.

    Same search order as the oracle (first free cell; horizontal placement
    before vertical), so prefixes are stable across runs.
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if len(region.cells) > MAX_ORACLE_CELLS:
        raise RegionTooLargeError(
            f"{len(region.cells)} cells exceed the {MAX_ORACLE_CELLS}-cell enumeration budget"
        )
    if len(region.cells) % 2:
        return []
    matchings = islice(perfect_matchings(region.cells, STEPS_2D), limit)
    return [Tiling(frozenset(dominoes)) for dominoes in matchings]


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
