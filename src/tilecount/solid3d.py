"""Exact counting of 1x1x2 brick tilings of small prisms.

A prism is a 2D cross-section extruded through a number of layers, with an
optional set of deleted cells. Counting is a sparse transfer through the
layers: a state is the set of cells whose bricks stand upright into the next
layer, and a move is an upright set with its number of flat completions,
counted by the 2D domino counter, so both dimensions share one tested
kernel. ``layer_counts`` yields the count of every prefix of layers from one
pass of that DP. A 2D region of width W is a 1 x W prism with one layer per
row and its missing cells deleted, so the same transfer is the tests'
cross-check of the 2D counter.

``count_bricks`` jumps over the prism's longest run of full layers instead
of stepping through each. Cut to j layers, the run gives a sequence a(j) =
entry M^j exit of the run's transfer M. The entry is the DP stepped up through
the layers below the run, the exit the same step run down from the top, as a
tiling read upside down is one. The DP builds a(j) term by term until
``sequences.certified_recurrence`` proves a recurrence for it
(Berlekamp-Massey, then an exact check on D + L terms, D the states the run
reaches); ``Family.eval`` then jumps to the run's length. A run that ends
before its certificate, or none at all (N = 0), is finished by the DP, so every
count is the DP's or proved equal to it.

A layer of a k-cell cross-section has up to 3^k (state, move) pairs, so a
prism whose estimated work, layers * 3^k scaled by its cell count, is over
budget raises ``BudgetError`` before the first layer, jump or not.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal
from functools import cache

from .count2d import BudgetError, count_tilings, perfect_matchings
from .regions2d import Cell, Region2D
from .sequences import Family, certified_recurrence

# The layer DP's work estimate is layers * 3^k * (1 + cells / _BIG_INT_CELLS) for a
# cross-section of k cells: a layer tries at most 3^k (from below, upright, flat)
# splits, each dearer as the counts grow. At 9-101 ns a unit (CPython 3.11, Xeon;
# the dearest are long 2x2 prisms whose deleted cells cut them into short runs,
# of which only the longest is jumped, and whose time goes to big-int sums) the
# budget stops work of over about 3 s. Full boxes jump and take far less.
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


def box(rows: int, cols: int, layers: int) -> Prism3D:
    """The full rows x cols x layers box.

    A cross-section of k cells whose 3^k splits of a layer are over the
    layer-DP budget at any length raises ``BudgetError`` before it is built.
    """
    if min(rows, cols, layers) < 1:
        raise ValueError(f"box needs positive dimensions, got {rows}x{cols}x{layers}")
    if 3 ** min(rows * cols, 64) > _MAX_WORK:
        raise BudgetError(
            f"estimated layer-DP work of a {rows} x {cols} cross-section exceeds the budget "
            f"of {_MAX_WORK:,} at any length"
        )
    return Prism3D({(r, c) for r in range(rows) for c in range(cols)}, layers)


def _transfer(prism: Prism3D):
    """The prism's layer masks and its cached ``moves``, once its work is within budget.

    A mask holds a layer's present cells, one bit per cross-section cell, and
    a last mask of 0 stands for the empty layer above the top. ``moves(free,
    above)`` lists, for a layer's free cells, each upright set that also exists
    in the layer above with its nonzero flat count from the 2D kernel. Moves
    and flat counts are cached for the call.
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

    return masks, moves


def _step(moves, states: dict[int, int], present: int, above: int) -> dict[int, int]:
    """The state weights after one layer: states map a protrusion mask to its count."""
    nxt: dict[int, int] = {}
    for protruding, ways in states.items():
        for up, flat in moves(present & ~protruding, above):
            nxt[up] = nxt.get(up, 0) + ways * flat
    return nxt


def layer_counts(prism: Prism3D) -> Iterator[int]:
    """Yield, after each layer z, the number of brick tilings of layers 0..z.

    Sparse transfer: states are protrusion masks (cells covered from below),
    stepped through every layer by the moves of ``_transfer``. The count after
    layer z is the weight of the state with nothing protruding.

    A prism whose work estimate exceeds ``_MAX_WORK`` raises
    ``BudgetError`` on the first ``next()``, before any flat count.
    """
    masks, moves = _transfer(prism)
    states = {0: 1}
    for present, above in zip(masks, masks[1:]):
        states = _step(moves, states, present, above)
        yield states.get(0, 0)


def count_bricks(prism: Prism3D) -> int:
    """Exact number of perfect 1x1x2 brick tilings of a prism.

    The layer budget is checked first, as in ``layer_counts``. The prism's
    longest run of full layers, each under a full one, is one transfer M
    repeated N times, N = 0 if there is none. The entry vector is ``_step`` up
    through the layers below the run, the exit weights ``_step`` down from the
    top to the first layer above it: a downward state is the set of cells
    below covered from above, at the run's top the forward state. The DP
    yields a(j) = entry M^j exit, j = 0..N, to ``certified_recurrence`` with D
    the states the entry reaches under M. A proved recurrence jumps to a(N) by
    ``Family.eval``; otherwise, or over the sequence budget, a(N) is the DP's.
    """
    masks, moves = _transfer(prism)
    layers = list(zip(masks, masks[1:]))
    full = ((1 << len(prism.cross_section)) - 1,) * 2  # a full layer under a full one
    start = length = run = 0
    for z, pair in enumerate(layers):
        run = run + 1 if pair == full else 0
        if run > length:
            start, length = z + 1 - run, run
    states = {0: 1}
    for present, above in layers[:start]:
        states = _step(moves, states, present, above)
    weights = {0: 1}
    for z in reversed(range(start + length, prism.layers)):  # the layer below layer 0 is empty
        weights = _step(moves, weights, masks[z], masks[z - 1] if z else 0)
    reach, todo = set(states), list(states)
    while length and todo:
        for up, _ in moves(full[0] & ~todo.pop(), full[1]):
            if up not in reach:
                reach.add(up)
                todo.append(up)
    last = 0

    def terms(states: dict[int, int]) -> Iterator[int]:
        nonlocal last
        for j in range(length + 1):
            if j:
                states = _step(moves, states, *full)
            last = sum(ways * weights[p] for p, ways in states.items() if p in weights)
            yield last

    pending = terms(states)
    rec = certified_recurrence(pending, len(reach) or 1)  # no entry state: zeros, dimension 1
    if rec is not None:
        family = Family("run", "the prism with its run cut to n layers", rec)
        try:
            return family.eval(length, "matpow")
        except BudgetError:  # a jump over the sequence budget: the DP finishes the run
            pass
    for _ in pending:
        pass
    return last


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
