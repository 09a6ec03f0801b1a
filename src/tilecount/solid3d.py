"""Exact counting of 1x1x2 brick tilings of small prisms.

A prism is a 2D cross-section extruded through a number of layers, with an
optional set of deleted cells. Counting is a sparse transfer through the
layers: a state is the set of cells whose bricks stand upright into the next
layer, and a move is an upright set with its number of flat completions,
counted by the 2D domino counter, so both dimensions share one tested
kernel. ``layer_counts`` yields the count of every prefix of layers from one
pass; ``count_bricks`` is its last value. A 2D region of width W is a
1 x W prism with one layer per row and its missing cells deleted, so the
same transfer is the tests' cross-check of the 2D counter.

A layer of a k-cell cross-section has up to 3^k (state, move) pairs, so a
prism whose estimated work, layers * 3^k scaled by its cell count, is over
budget raises ``BudgetError`` before the first layer.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal
from functools import cache

from .count2d import BudgetError, count_tilings, perfect_matchings
from .regions2d import Cell, Region2D

# The layer DP's work estimate is layers * 3^k * (1 + cells / _BIG_INT_CELLS) for a
# cross-section of k cells: a layer tries at most 3^k (from below, upright, flat)
# splits, each dearer as the counts grow. At 9-101 ns a unit (CPython 3.11, Xeon;
# the dearest are 2x2 towers, whose time goes to big-int sums) the budget stops
# work of over about 3 s.
_BIG_INT_CELLS = 25_000
_MAX_WORK = 3 * 10**7
MAX_BRUTEFORCE_CELLS = 24

Cell3 = tuple[int, int, int]  # (row, col, layer)
STEPS_3D = ((0, 0, 1), (0, 1, 0), (1, 0, 0))  # on (z, row, col): col, row, then layer


@dataclass(frozen=True)
class Prism3D:
    """Cross-section x layers, minus deleted cells."""

    cross_section: frozenset[Cell]
    layers: int
    deleted: frozenset[Cell3]

    def __init__(self, cross_section, layers: int, deleted=()) -> None:
        cross = frozenset((int(r), int(c)) for r, c in cross_section)
        gone = frozenset((int(r), int(c), int(z)) for r, c, z in deleted)
        if layers < 0:
            raise ValueError(f"layers must be >= 0, got {layers}")
        for r, c, z in gone:
            if (r, c) not in cross or not 0 <= z < layers:
                raise ValueError(f"deleted cell {(r, c, z)} lies outside the prism")
        object.__setattr__(self, "cross_section", cross)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "deleted", gone)

    @property
    def cell_count(self) -> int:
        return len(self.cross_section) * self.layers - len(self.deleted)

    def layer_cells(self, z: int) -> frozenset[Cell]:
        """Cross-section cells actually present in layer z."""
        return frozenset(
            cell for cell in self.cross_section if (*cell, z) not in self.deleted
        )


def tower(n: int) -> Prism3D:
    """The 2 x 2 x n tower, n >= 1."""
    if n < 1:
        raise ValueError(f"tower needs n >= 1, got {n}")
    return Prism3D({(0, 0), (0, 1), (1, 0), (1, 1)}, n)


def m_tower(n: int) -> Prism3D:
    """The 2 x 2 x n tower with two edge-adjacent top-layer cells removed.

    Removing a diagonal pair instead would leave the single-layer case
    untileable, so adjacency is forced; which edge is immaterial by symmetry.
    """
    if n < 1:
        raise ValueError(f"m_tower needs n >= 1, got {n}")
    return Prism3D(
        {(0, 0), (0, 1), (1, 0), (1, 1)},
        n,
        deleted={(0, 0, n - 1), (0, 1, n - 1)},
    )


def layer_counts(prism: Prism3D) -> Iterator[int]:
    """Yield, after each layer z, the number of brick tilings of layers 0..z.

    Sparse transfer: states are protrusion masks (cells covered from below),
    and ``moves(free, above)`` lists, for a layer's free cells, each upright
    set that also exists in the layer above with its nonzero flat count from
    the 2D kernel. Moves and flat counts are cached for the call. The count
    after layer z is the weight of the state with nothing protruding.

    A prism whose work estimate exceeds ``_MAX_WORK`` raises
    ``BudgetError`` on the first ``next()``, before any flat count.
    """
    cross = sorted(prism.cross_section)
    work = prism.layers * 3 ** len(cross) * (_BIG_INT_CELLS + prism.cell_count) // _BIG_INT_CELLS
    if work > _MAX_WORK:
        # a Decimal prints past the int -> str digit limit, as a tower of 3,000 digits needs
        raise BudgetError(
            f"estimated layer-DP work {Decimal(work):,} exceeds the budget of {_MAX_WORK:,}"
        )
    bit = {cell: 1 << i for i, cell in enumerate(cross)}
    masks = [(1 << len(cross)) - 1] * prism.layers + [0]
    for r, c, z in prism.deleted:
        masks[z] &= ~bit[r, c]

    @cache
    def flat_count(mask: int) -> int:
        return count_tilings(Region2D(cell for cell in cross if mask & bit[cell]))

    @cache
    def moves(free: int, above: int) -> tuple[tuple[int, int], ...]:
        found = []
        allowed_up = free & above
        up = allowed_up
        while True:
            flat = flat_count(free & ~up)
            if flat:
                found.append((up, flat))
            if up == 0:
                return tuple(found)
            up = (up - 1) & allowed_up

    states: dict[int, int] = {0: 1}
    for present, above in zip(masks, masks[1:]):
        nxt: dict[int, int] = {}
        for protruding, ways in states.items():
            for up, flat in moves(present & ~protruding, above):
                nxt[up] = nxt.get(up, 0) + ways * flat
        states = nxt
        yield states.get(0, 0)


def count_bricks(prism: Prism3D) -> int:
    """Exact number of perfect 1x1x2 brick tilings of a prism: the last
    value ``layer_counts`` yields, or 1 for a prism of no layers."""
    count = 1
    for count in layer_counts(prism):
        pass
    return count


def count_bricks_bruteforce(prism: Prism3D) -> int:
    """Oracle counter: backtracking on the first free cell in (z, row, col) order.

    Placements are tried in a fixed order: along the column, along the row,
    then up one layer. Over ``MAX_BRUTEFORCE_CELLS`` cells it raises ``BudgetError``.
    """
    if prism.cell_count > MAX_BRUTEFORCE_CELLS:
        raise BudgetError(
            f"{prism.cell_count} cells exceed the {MAX_BRUTEFORCE_CELLS}-cell oracle budget"
        )
    cells = frozenset(
        (z, r, c)
        for z in range(prism.layers)
        for (r, c) in prism.layer_cells(z)
    )
    if len(cells) % 2:
        return 0
    return sum(1 for _ in perfect_matchings(cells, STEPS_3D))
