"""2D grid regions: the cell-set model, family builders, and ASCII interchange.

A region is a finite set of unit cells addressed as (row, col). All regions
are kept normalized (minimum row and column are 0), so two regions are equal
iff they are the same shape in the same orientation.
"""
from __future__ import annotations

from .record import Record

Cell = tuple[int, int]  # (row, col)

ORIENTATIONS = ("SW", "SE", "NW", "NE")


class Region2D(Record):
    """An immutable, normalized set of grid cells.

    Any iterable of (row, col) pairs is accepted; construction shifts the
    cells so the minimum row and column are 0.
    """

    __slots__ = ("cells",)

    def __init__(self, cells=()) -> None:
        """Normalize ``cells`` in passes that run in C: one ``frozenset``, one
        ``zip`` into rows and columns (strict, so an element that is not a pair
        raises, a triple among pairs too) and one ``min`` per axis. Coordinates
        are converted by ``int`` only when one is not an exact int (a bool, an
        int subclass, a float), and shifted only when a minimum is not 0.
        """
        cellset = frozenset(cells)
        if cellset:
            rows, cols = zip(*cellset, strict=True)
            if {*map(type, rows), *map(type, cols)} != {int}:
                cellset = frozenset((int(r), int(c)) for r, c in cellset)
                rows, cols = zip(*cellset)
            top, left = min(rows), min(cols)
            if top or left:
                cellset = frozenset((r - top, c - left) for r, c in cellset)
        # set directly, not by Record.__init__, whose generic call costs about 0.5 us
        # more: the layer DP builds a region for each orbit of flat masks it meets
        # (27 for a 2 x 4 box, 22 of them counted)
        object.__setattr__(self, "cells", cellset)

    @property
    def width(self) -> int:
        return max(c for _, c in self.cells) + 1 if self.cells else 0

    @property
    def height(self) -> int:
        return max(r for r, _ in self.cells) + 1 if self.cells else 0

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    def __str__(self) -> str:
        return to_ascii(self)


def rect_size(rows: int, cols: int) -> tuple[int, int]:
    """(rows, cols), the size of ``rect(rows, cols)``; ValueError unless both are positive."""
    if rows < 1 or cols < 1:
        raise ValueError(f"rectangle needs positive dimensions, got {rows}x{cols}")
    return rows, cols


def rect(rows: int, cols: int) -> Region2D:
    """Full rows x cols rectangle."""
    rows, cols = rect_size(rows, cols)
    return Region2D((r, c) for r in range(rows) for c in range(cols))


def a_grid_size(n: int) -> tuple[int, int]:
    """(3, 2n), the size of the rectangle ``a_grid(n)``; ValueError unless n >= 1."""
    if n < 1:
        raise ValueError(f"a_grid needs n >= 1, got {n}")
    return 3, 2 * n


def a_grid(n: int) -> Region2D:
    """The 3 x 2n rectangle, n >= 1."""
    return rect(*a_grid_size(n))


def b_grid(n: int) -> Region2D:
    """The 3 x (2n+1) rectangle with one corner cell removed, n >= 0.

    6n+2 cells; the removed cell is (0, 0).
    """
    if n < 0:
        raise ValueError(f"b_grid needs n >= 0, got {n}")
    return Region2D(
        (r, c) for r in range(3) for c in range(2 * n + 1) if (r, c) != (0, 0)
    )


def c_grid(n: int) -> Region2D:
    """The 3 x (2n+2) rectangle with two adjacent corner-row cells removed, n >= 0.

    6n+4 cells; the removed cells are (0, 0) and (0, 1).
    """
    if n < 0:
        raise ValueError(f"c_grid needs n >= 0, got {n}")
    return Region2D(
        (r, c)
        for r in range(3)
        for c in range(2 * n + 2)
        if (r, c) not in ((0, 0), (0, 1))
    )


def l2_region(n: int, k: int) -> Region2D:
    """Width-2 right angle: arms of n and k dominoes beyond a shared 2x2 corner.

    The horizontal arm spans rows {0,1} x cols 0..n, the vertical arm spans
    rows 0..k x cols {0,1}; they overlap in the 2x2 corner block, giving
    2n + 2k cells in total. For k = 1 the region degenerates to a 2 x (n+1)
    rectangle.
    """
    if n < 1 or k < 1:
        raise ValueError(f"l2_region needs n, k >= 1, got ({n}, {k})")
    horizontal = {(r, c) for r in (0, 1) for c in range(n + 1)}
    vertical = {(r, c) for r in range(k + 1) for c in (0, 1)}
    return Region2D(horizontal | vertical)


def l3_region(n: int, k: int, orientation: str = "SW") -> Region2D:
    """Width-3 right angle: a 3 x 2n arm and a 3 x 2k arm joined at a corner.

    The two arms are disjoint (6n + 6k cells). In the default "SW" layout the
    2n arm stands vertically at the top left and the 2k arm runs east along
    the bottom, so the inner corner of the angle sits to the southwest. The
    other orientations are built from it:

        SE  mirror of SW across columns: the horizontal arm runs west
        NW  SW of (k, n) mirrored across rows: the 2n arm lies on top
        NE  mirror of NW across columns

    All four have equal tiling counts; the calibration suite in the tests
    pins each of them against the product formula.
    """
    if n < 1 or k < 1:
        raise ValueError(f"l3_region needs n, k >= 1, got ({n}, {k})")
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}, expected one of {ORIENTATIONS}")
    if orientation[0] == "N":
        region = reflect_v(l3_region(k, n))
    else:
        vertical = {(r, c) for r in range(2 * n) for c in range(3)}
        horizontal = {(r, c) for r in range(2 * n, 2 * n + 3) for c in range(2 * k)}
        region = Region2D(vertical | horizontal)
    return reflect_h(region) if orientation[1] == "E" else region


def from_ascii(text: str) -> Region2D:
    """Parse a '#'/'.' picture into a region; '#' marks a cell.

    Rows are newline separated; the result is normalized. Empty input gives
    the empty region.
    """
    cells = []
    for r, line in enumerate(text.splitlines()):
        for c, ch in enumerate(line):
            if ch == "#":
                cells.append((r, c))
            elif ch != ".":
                raise ValueError(f"unexpected character {ch!r} at row {r}, column {c}")
    return Region2D(cells)


def to_ascii(region: Region2D) -> str:
    if not region.cells:
        return ""
    cells, width = region.cells, region.width  # width is a max over all cells
    return "\n".join(
        "".join("#" if (r, c) in cells else "." for c in range(width))
        for r in range(region.height)
    )


def reflect_h(region: Region2D) -> Region2D:
    """Mirror across the vertical axis (columns reversed)."""
    w = region.width
    return Region2D((r, w - 1 - c) for r, c in region.cells)


def reflect_v(region: Region2D) -> Region2D:
    """Mirror across the horizontal axis (rows reversed)."""
    h = region.height
    return Region2D((h - 1 - r, c) for r, c in region.cells)

