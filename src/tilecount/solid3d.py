"""Exact counting of 1x1x2 brick tilings of small prisms.

A prism is a 2D cross-section extruded through a number of layers, with an
optional set of deleted cells. Counting is a sparse transfer through the
layers: a state is a set of cells whose bricks stand upright into the next
layer, and a move is an upright set with its number of flat completions,
counted by the 2D domino counter, so both dimensions share one tested
kernel. ``layer_counts`` yields the count of every prefix of layers from one
pass of that DP. A 2D region of width W is a 1 x W prism with one layer per
row and its missing cells deleted, so the same transfer is the tests'
cross-check of the 2D counter.

The isometries of the cross-section that fix every layer's deleted cells
commute with each layer's transfer, and the entry, the empty set, is fixed
by them. So the DP holds one state per orbit of upright sets, its least
member, with the orbit's summed weight (lumping; Kemeny & Snell 1960, 6.3):
27 states for the 2 x 4 box against 70 sets, and 23 a layer for the 3 x 3
against 126. The empty set is an orbit of its own, so the count read off it
is unchanged; with no symmetry each set is its own orbit. G is filtered
from H, the isometries that map the cross-section onto itself.

A flat count depends on its region's shape alone, not on where the region
lies or which way it is turned, so the 2D kernel counts each shape met
once a call, whether or not G relates its masks: 3 shapes for a tower, 22
for the 2 x 4 box against 70 balanced masks, and 21 for the 3 x 3 against
126.

``count_bricks`` is one upward sweep over the prism's layer word, the
(present, above) pair of each layer, run-length encoded from the deleted
cells alone. Each run of N equal pairs has one transfer B, which maps the
entry vector v_0, the states below it, to v_j = v_0 B^j; the DP steps j up
until ``sequences.certified_recurrence`` proves a recurrence for the vectors
(Berlekamp-Massey on a projection, then an exact check of v_K = sum c_i
v_(K-i) on every state), and ``vector_jump`` jumps to v_N. Summing over
orbits loses nothing on vectors that the symmetries fix, so K is the order
without lumping, and the certificate reads 2K + 1 vectors: 7 for the 2 x 2
tower, 43 for the 2 x 4 box, 77 for the 3 x 3 and 153 for the 2 x 5. A run
that ends before its certificate is stepped, so every count is the DP's or
proved equal to it; a prism whose deleted cells repeat every few layers is
short runs, so it is stepped layer by layer. A prism over
``budget.layer_dp`` is refused before the first layer, jump or not, and
that check is the route's only one: a certified run always jumps.
"""
from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator
from functools import cache
from itertools import accumulate, islice

from . import budget
from .count2d import _guarded_matchings, count_tilings
from .record import Record
from .regions2d import Cell, Region2D
from .sequences import certified_recurrence, vector_jump

Cell3 = tuple[int, int, int]  # (row, col, layer)
STEPS_3D = ((0, 0, 1), (0, 1, 0), (1, 0, 0))  # on (z, row, col): col, row, then layer


class Prism3D(Record):
    """Cross-section x layers, minus deleted cells."""

    __slots__ = ("cross_section", "layers", "deleted")

    def __init__(
        self, cross_section: Iterable[Cell], layers: int, deleted: Iterable[Cell3] = ()
    ) -> None:
        cross = frozenset((int(r), int(c)) for r, c in cross_section)
        gone = frozenset((int(r), int(c), int(z)) for r, c, z in deleted)
        if layers < 0:
            raise ValueError(f"layers must be >= 0, got {layers}")
        for r, c, z in gone:
            if (r, c) not in cross or not 0 <= z < layers:
                raise ValueError(f"deleted cell {(r, c, z)} lies outside the prism")
        super().__init__(cross, layers, gone)

    @property
    def cell_count(self) -> int:
        return len(self.cross_section) * self.layers - len(self.deleted)


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
    """The full rows x cols x layers box, refused by ``budget.layer_dp``
    before it is built.
    """
    if min(rows, cols, layers) < 1:
        raise ValueError(f"box needs positive dimensions, got {rows}x{cols}x{layers}")
    budget.layer_dp(layers, rows * cols, rows * cols * layers)
    return Prism3D({(r, c) for r in range(rows) for c in range(cols)}, layers)


def _image(perm: tuple[int, ...], mask: int) -> int:
    """The mask's image under a symmetry, given as the bit of each cell's image."""
    image = 0
    while mask:
        low = mask & -mask
        image |= perm[low.bit_length() - 1]
        mask ^= low
    return image


def _grid_images(cells: Collection[Cell]) -> tuple[Iterator[Cell], ...]:
    """The cells' images under the square grid's 8 isometries, each shifted to
    rows and columns from 0 and listed in ``cells``' order."""
    rows = [r for r, _ in cells]
    cols = [c for _, c in cells]
    top, bottom = min(rows, default=0), max(rows, default=0)
    left, right = min(cols, default=0), max(cols, default=0)
    down, up = [r - top for r in rows], [bottom - r for r in rows]
    east, west = [c - left for c in cols], [right - c for c in cols]
    return (
        *(zip(ys, xs) for ys in (down, up) for xs in (east, west)),
        *(zip(xs, ys) for ys in (down, up) for xs in (east, west)),
    )


def _isometries(bit: dict[Cell, int]) -> list[tuple[int, ...]]:
    """The group H of the square grid's isometries that map the cross-section
    onto itself, each image shifted back to the cross-section's corner.
    ``bit`` maps each cross-section cell to its bit, and an isometry is the
    tuple of the bits of the cells' images, in ``bit``'s order. The identity
    is always in H.
    """
    top = min((r for r, _ in bit), default=0)
    left = min((c for _, c in bit), default=0)
    group = []
    for image in _grid_images(bit):
        perm = tuple(bit.get((r + top, c + left), 0) for r, c in image)  # 0: off the cross
        if 0 not in perm and perm not in group:
            group.append(perm)
    return group


def _transfer(prism: Prism3D):
    """The prism's full mask, its other layers' masks and its cached ``moves``,
    once ``budget.layer_dp`` admits it.

    A mask holds a layer's present cells, one bit per cross-section cell.
    ``masks`` holds the layers with deleted cells and, as 0, the empty layer
    above the top; a layer absent from it is full. ``moves(free, above)``
    lists, for a layer's free cells, each orbit under G of the upright sets
    that also exist in the layer above, as its least member, with the flat
    counts of its members summed. G is filtered from the cross-section's
    isometries H (``_isometries``, built once a call): the members that fix
    every mask.

    A flat count is unchanged by any translation and any grid isometry, so
    the 2D kernel counts each shape, a congruence class of masks, once. The
    first mask met of an orbit under H files the whole orbit's flat count.
    It looks up its translation-normalised ``Region2D.cells`` in the shapes
    counted so far, each filed under its 8 grid images, and counts a new
    shape. A mask whose two colour classes differ in size has no flat tiling
    and is counted 0 unbuilt. Moves, flat counts, shapes and orbits are
    cached for the call only: at most one flat count per balanced mask (2^15
    for the largest cross-section ``budget.layer_dp`` admits) and at most 8
    entries per shape.
    """
    budget.layer_dp(prism.layers, len(prism.cross_section), prism.cell_count)
    cross = sorted(prism.cross_section)
    bit = {cell: 1 << i for i, cell in enumerate(cross)}
    full = (1 << len(cross)) - 1
    masks = {prism.layers: 0}
    for r, c, z in prism.deleted:
        masks[z] = masks.get(z, full) & ~bit[r, c]
    isometries = _isometries(bit)
    group = [perm for perm in isometries if all(_image(perm, m) == m for m in masks.values())]
    black = sum(bit[r, c] for r, c in cross if (r + c) % 2)
    flats: dict[int, int] = {}  # each balanced mask met, to its flat count
    shapes: dict[frozenset[Cell], int] = {}  # each shape counted, under its grid images

    def flat_count(mask: int) -> int:
        if 2 * (mask & black).bit_count() != mask.bit_count():
            return 0
        if mask not in flats:
            images = [_image(perm, mask) for perm in isometries]
            region = Region2D(cell for cell in cross if mask & bit[cell])
            if region.cells not in shapes:
                congruent = map(frozenset, _grid_images(region.cells))
                shapes.update(dict.fromkeys(congruent, count_tilings(region)))
            flats.update(dict.fromkeys(images, shapes[region.cells]))
        return flats[mask]

    reps: dict[int, int] = {}  # each mask met, to its orbit's representative

    def orbit(mask: int) -> int:
        if mask not in reps:
            images = [_image(perm, mask) for perm in group]
            reps.update(dict.fromkeys(images, min(images)))
        return reps[mask]

    @cache
    def moves(free: int, above: int) -> tuple[tuple[int, int], ...]:
        found: dict[int, int] = {}
        allowed_up = free & above
        up = allowed_up
        while True:
            flat = flat_count(free & ~up)
            if flat:
                rep = orbit(up)
                found[rep] = found.get(rep, 0) + flat
            if up == 0:
                return tuple(found.items())
            up = (up - 1) & allowed_up

    return full, masks, moves


def _step(moves, states: dict[int, int], present: int, above: int) -> dict[int, int]:
    """The state weights after one layer: states map an orbit's protrusion mask to its count."""
    nxt: dict[int, int] = {}
    for protruding, ways in states.items():
        for up, flat in moves(present & ~protruding, above):
            nxt[up] = nxt.get(up, 0) + ways * flat
    return nxt


def layer_counts(prism: Prism3D) -> Iterator[int]:
    """Yield, after each layer z, the number of brick tilings of layers 0..z.

    Sparse transfer: states are protrusion masks (cells covered from below),
    one per orbit, stepped through every layer by the moves of
    ``_transfer``. The count after layer z is the weight of the state with
    nothing protruding.

    A prism over ``budget.layer_dp`` raises ``BudgetError`` on the first
    ``next()``, before any flat count.
    """
    full, masks, moves = _transfer(prism)
    states = {0: 1}
    for z in range(prism.layers):
        states = _step(moves, states, masks.get(z, full), masks.get(z + 1, full))
        yield states.get(0, 0)


Pair = tuple[int, int]  # a layer's present cells and those of the layer above


def _runs(layers: int, full: int, masks: dict[int, int]) -> list[tuple[Pair, int]]:
    """The maximal runs of the prism's layer word bottom up, as (pair, layers).

    The layer word, the (present, above) mask pair of each layer, is built in
    O(deleted cells) from ``_transfer``'s masks: only a layer with deleted
    cells, the one below it and the top layer differ from a full layer under
    a full one, and the rest are runs of that pair. Equal neighbouring pairs
    merge, so no two neighbouring runs share a pair.
    """
    runs: list[tuple[Pair, int]] = []
    z = 0
    for top in sorted({y for d in masks for y in (d - 1, d) if 0 <= y < layers}):
        pair = (masks.get(top, full), masks.get(top + 1, full))
        if top > z:
            runs.append(((full, full), top - z))
        if runs and runs[-1][0] == pair:
            runs[-1] = (pair, runs[-1][1] + 1)
        else:
            runs.append((pair, 1))
        z = top + 1
    return runs


def count_bricks(prism: Prism3D) -> int:
    """Exact number of perfect 1x1x2 brick tilings of a prism.

    The layer budget is checked first, as in ``layer_counts``. One upward
    sweep runs the DP through the runs of the prism's layer word (``_runs``).
    A run of N equal layer pairs is a linear map B applied N times to the
    entry vector v_0, the states below it, and every run is stepped as the one
    sequence of vectors v_j = v_0 B^j. From N = 6 on, its first half goes to
    ``certified_recurrence``, and a certified recurrence jumps to v_N by
    ``vector_jump``, so a jump skips at least as many steps as the fit read.
    Otherwise, when the run is shorter or the vectors run out first, the DP
    steps the rest of the run, so no count rests on an unchecked identity.
    The count is the weight of the empty state after the top layer.
    """
    full, masks, moves = _transfer(prism)
    states = {0: 1}
    for pair, n in _runs(prism.layers, full, masks):
        if not states:  # no tiling of the layers below, so none of the prism
            return 0
        vectors = accumulate(range(n), lambda v, _: _step(moves, v, *pair), initial=states)
        # under 6 layers no half of the run holds the 3 vectors of the shortest certificate
        rec = certified_recurrence(islice(vectors, n // 2)) if n >= 6 else None
        if rec is not None:
            states = vector_jump(rec, n)
            continue
        for states in vectors:  # the vectors the certificate left, up to v_N
            pass
    return states.get(0, 0)


def count_bricks_bruteforce(prism: Prism3D) -> int:
    """Oracle counter: backtracking on the first free cell in (z, row, col) order.

    Placements are tried in a fixed order: along the column, along the row,
    then up one layer. Over ``budget.MAX_BRUTEFORCE_CELLS`` cells it raises ``BudgetError``.
    """
    cross, deleted = prism.cross_section, prism.deleted
    cells = frozenset(
        (z, r, c) for z in range(prism.layers) for r, c in cross if (r, c, z) not in deleted
    )
    matchings = _guarded_matchings(cells, STEPS_3D, budget.MAX_BRUTEFORCE_CELLS, "oracle")
    return sum(1 for _ in matchings)
