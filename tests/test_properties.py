"""Property tests: the counting invariants on generated regions and prisms.

Hypothesis runs derandomized, so every run draws the same examples.
"""
from __future__ import annotations

import io
from collections import Counter
from contextlib import redirect_stdout
from itertools import combinations
from math import isqrt
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import grid_images, strip_prism
from tilecount import count2d
from tilecount.cli import main
from tilecount.budget import MAX_BRUTEFORCE_CELLS, MAX_ORACLE_CELLS
from tilecount.count2d import (
    count_tilings,
    count_tilings_bruteforce,
    enumerate_tilings,
)
from tilecount.regions2d import Region2D, rect, reflect_h
from tilecount.sequences import ClosedForm, catalog, closed_eval, rec_eval_matpow, rec_values
from tilecount.solid3d import (
    Prism3D,
    _runs,
    _transfer,
    count_bricks,
    count_bricks_bruteforce,
    layer_counts,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def _neighbours(cell):
    r, c = cell
    return [(r, c + 1), (r + 1, c), (r, c - 1), (r - 1, c)]


def _border(cells):
    return {n for cell in cells for n in _neighbours(cell)} - cells


@st.composite
def connected_regions(draw, max_cells: int = 20) -> Region2D:
    """A region grown from one cell by adding edge neighbours one at a time."""
    size = draw(st.integers(1, max_cells))
    cells = {(0, 0)}
    while len(cells) < size:
        cells.add(draw(st.sampled_from(sorted(_border(cells)))))
    return Region2D(cells)


@st.composite
def domino_regions(draw, max_dominoes: int = 10) -> Region2D:
    """A connected region grown one domino at a time, so it has a tiling."""
    size = draw(st.integers(1, max_dominoes))
    cells = {(0, 0), (0, 1)}
    while len(cells) < 2 * size:
        free = _border(cells)
        dominoes = sorted((a, b) for a in free for b in _neighbours(a) if b not in cells)
        cells.update(draw(st.sampled_from(dominoes)))
    return Region2D(cells)


REGIONS = st.one_of(connected_regions(), domino_regions())


@st.composite
def punched_rectangles(draw, max_side: int = 8) -> Region2D:
    """A rectangle of 3..max_side per side with 1-5 interior cells removed.

    The removed cells form holes of odd and even size, often several per
    region; these are where the determinant's signs need the cut.
    """
    rows, cols = draw(st.integers(3, max_side)), draw(st.integers(3, max_side))
    interior = [(r, c) for r in range(1, rows - 1) for c in range(1, cols - 1)]
    removed = draw(st.sets(st.sampled_from(interior), min_size=1, max_size=min(5, len(interior))))
    return Region2D((r, c) for r in range(rows) for c in range(cols) if (r, c) not in removed)


@PROPERTY
@given(REGIONS)
def test_dp_equals_oracle_equals_enumeration(region):
    count = count_tilings(region)
    assert count == count_tilings_bruteforce(region)
    assert count_bricks(strip_prism(region)) == count
    assert len(enumerate_tilings(region, 10**6)) == count


@PROPERTY
@given(punched_rectangles())
def test_determinant_equals_dp_around_holes(region):
    count = count_tilings(region)
    assert count == count_bricks(strip_prism(region))
    if region.cell_count <= MAX_ORACLE_CELLS:
        assert count == count_tilings_bruteforce(region)


@PROPERTY
@given(REGIONS)
def test_count_is_invariant_under_square_symmetries(region):
    counts = {count_tilings(image) for image in grid_images(region)}
    assert counts == {count_tilings(region)}


@PROPERTY
@given(domino_regions(max_dominoes=7), domino_regions(max_dominoes=7))
def test_regions_split_by_an_empty_row_count_as_a_product(top, bottom):
    gap = top.height + 1  # leaves row top.height empty
    union = Region2D(top.cells | {(r + gap, c) for r, c in bottom.cells})
    assert union.cell_count == top.cell_count + bottom.cell_count
    assert count_tilings(union) == count_tilings(top) * count_tilings(bottom)


@st.composite
def mirror_symmetric_regions(draw, max_side: int = 8) -> Region2D:
    """A square of 2..max_side cells a side with holes in mirror pairs, so the
    transpose maps it onto itself. When drawn so, it keeps only the cells whose
    half-turn image it holds, so the half-turn maps it onto itself too. Then
    diagonal cells, which share one colour, are removed or put back in
    half-turn pairs until the colours balance, when they can.
    """
    n = draw(st.integers(2, max_side))
    off_axis = [(r, c) for r in range(n) for c in range(r + 1, n)]
    holes = draw(st.sets(st.sampled_from(off_axis), min_size=1, max_size=4))
    cells = {(r, c) for r in range(n) for c in range(n)} - holes - {(c, r) for r, c in holes}
    if draw(st.booleans()):
        cells = {(r, c) for r, c in cells if (n - 1 - r, n - 1 - c) in cells}
    excess = sum(1 if (r + c) % 2 == 0 else -1 for r, c in cells)  # even cells over odd ones
    for i in draw(st.permutations(range((n + 1) // 2))):
        pair = {(i, i), (n - 1 - i, n - 1 - i)}
        if excess > 0 and pair <= cells:
            cells -= pair
            excess -= len(pair)
        elif excess < 0 and not pair & cells:
            cells |= pair
            excess += len(pair)
    return Region2D(cells)


@PROPERTY
@given(mirror_symmetric_regions())
def test_a_mirror_symmetric_region_counts_as_its_halves(region):
    # the split from an axis of any length, on the diagonal and, with the
    # columns mirrored, on the anti-diagonal, against the whole region's
    # determinant, the layer DP and, up to its budget, the oracle
    count = count_bricks(strip_prism(region))
    if region.cell_count <= MAX_ORACLE_CELLS:
        assert count == count_tilings_bruteforce(region)
    for image in (region, reflect_h(region)):
        cells = image.cells
        if cells and 2 * sum((r + c) % 2 for r, c in cells) == len(cells):
            assert count2d._kasteleyn_det(*zip(*cells), add, image.width + 1) == count
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(count2d, "MIN_SPLIT_AXIS", 0)
            assert count_tilings(image) == count


@st.composite
def small_prisms(draw) -> Prism3D:
    """A connected cross-section of up to 6 cells, 1-4 layers, some cells deleted."""
    cross = draw(connected_regions(max_cells=6)).cells
    layers = draw(st.integers(1, 4))  # at most 24 cells, the oracle's budget
    cells = sorted((r, c, z) for r, c in cross for z in range(layers))
    deleted = draw(st.sets(st.sampled_from(cells), max_size=3))
    return Prism3D(cross, layers, deleted)


@PROPERTY
@given(small_prisms())
def test_layer_dp_equals_3d_oracle(prism):
    assert count_bricks(prism) == count_bricks_bruteforce(prism)


@PROPERTY
@given(small_prisms())
def test_every_layer_count_is_the_oracle_on_its_prefix(prism):
    # layers 0..z with only the deleted cells that lie in them
    for z, count in enumerate(layer_counts(prism)):
        deleted = {cell for cell in prism.deleted if cell[2] <= z}
        assert count == count_bricks_bruteforce(Prism3D(prism.cross_section, z + 1, deleted)), z


_SQUARE_SYMMETRIES = (
    lambda r, c: (c, r),  # transpose
    lambda r, c: (c, -r),  # rotate by a quarter turn
    lambda r, c: (-r, -c),  # by a half turn
    lambda r, c: (-c, r),  # by three quarters
)


@st.composite
def long_prisms(draw) -> Prism3D:
    """A connected cross-section of up to 6 cells, more layers than the oracle
    takes, and up to 4 deleted cells in interior layers."""
    cross = draw(connected_regions(max_cells=6)).cells
    layers = draw(st.integers((MAX_BRUTEFORCE_CELLS + 4) // len(cross) + 1, 40))
    interior = sorted((r, c, z) for r, c in cross for z in range(1, layers - 1))
    deleted = draw(st.sets(st.sampled_from(interior), max_size=4))
    return Prism3D(cross, layers, deleted)


@PROPERTY
@given(long_prisms(), st.sampled_from(_SQUARE_SYMMETRIES))
def test_layer_dp_is_invariant_under_cross_section_symmetries(prism, move):
    assert prism.cell_count > MAX_BRUTEFORCE_CELLS
    image = Prism3D(
        (move(r, c) for r, c in prism.cross_section),
        prism.layers,
        ((*move(r, c), z) for r, c, z in prism.deleted),
    )
    assert count_bricks(image) == count_bricks(prism)


@st.composite
def thin_prisms(draw) -> Prism3D:
    """A connected cross-section of up to 4 cells and either of two deletions.

    Periodic: up to 80 layers, one or two cells deleted every e layers, e from
    2 to 6, so the repeated word of layers is short runs, stepped. Scattered:
    1-30 layers and up to 8 deleted cells anywhere, so the full runs lie
    below, between or above them, or there is none.
    """
    cross = draw(connected_regions(max_cells=4)).cells
    if draw(st.booleans()):
        layers, every = draw(st.integers(1, 80)), draw(st.integers(2, 6))
        first = draw(st.integers(0, every - 1))
        cells = draw(st.lists(st.sampled_from(sorted(cross)), min_size=1, max_size=2, unique=True))
        deleted = {(r, c, z) for z in range(first, layers, every) for r, c in cells}
        return Prism3D(cross, layers, deleted)
    layers = draw(st.integers(1, 30))
    cells = sorted((r, c, z) for r, c in cross for z in range(layers))
    deleted = draw(st.sets(st.sampled_from(cells), max_size=8))
    return Prism3D(cross, layers, deleted)


@PROPERTY
@given(thin_prisms())
def test_count_bricks_is_the_last_layer_count(prism):
    assert count_bricks(prism) == list(layer_counts(prism))[-1]


@PROPERTY
@given(thin_prisms())
def test_runs_spell_out_the_layer_word(prism):
    full, masks, _ = _transfer(prism)
    word = [(masks.get(z, full), masks.get(z + 1, full)) for z in range(prism.layers)]
    runs = _runs(prism.layers, full, masks)
    assert [pair for pair, n in runs for _ in range(n)] == word
    assert all(n >= 1 for _, n in runs)
    assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))


def _reference_count(prism: Prism3D) -> int:
    """The layer DP on sets of cells, each protrusion set a state of its own:
    no symmetry, no bitmasks and no jump."""
    flat: dict[frozenset, int] = {}
    states = Counter({frozenset(): 1})
    for z in range(prism.layers):
        present, above = (
            {(r, c) for r, c in prism.cross_section if (r, c, y) not in prism.deleted}
            for y in (z, z + 1)
        )
        above = above if z + 1 < prism.layers else set()
        nxt: Counter = Counter()
        for protruding, ways in states.items():
            free = present - protruding
            for k in range(len(free & above) + 1):
                for up in combinations(sorted(free & above), k):
                    rest = frozenset(free.difference(up))
                    if rest not in flat:
                        flat[rest] = count_tilings(Region2D(rest))
                    if flat[rest]:
                        nxt[frozenset(up)] += ways * flat[rest]
        states = nxt
    return states[frozenset()]


_LUMPED_CROSS_SECTIONS = (
    *(rect(rows, cols).cells for rows, cols in ((2, 2), (2, 3), (2, 4), (3, 3), (1, 4))),
    frozenset({(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)}),  # an L, symmetric about a diagonal
)
_GRID_ISOMETRIES = (
    lambda r, c: (r, c),
    lambda r, c: (r, -c),
    lambda r, c: (-r, c),
    lambda r, c: (-c, -r),
    *_SQUARE_SYMMETRIES,
)


def _self_maps(cross: frozenset) -> list[dict]:
    """The cell maps of the grid isometries that map ``cross``, placed at (0, 0), onto itself."""
    maps = []
    for move in _GRID_ISOMETRIES:
        image = {cell: move(*cell) for cell in cross}
        r0, c0 = min(r for r, _ in image.values()), min(c for _, c in image.values())
        placed = {cell: (r - r0, c - c0) for cell, (r, c) in image.items()}
        if set(placed.values()) == cross:
            maps.append(placed)
    return maps


@st.composite
def symmetric_prisms(draw) -> Prism3D:
    """One of the cross-sections above, 1-40 layers and 0-6 deleted cells:
    any cells, or a union of orbits under one of the cross-section's own
    symmetries, so that the layer DP's symmetry group stays nontrivial."""
    cross = draw(st.sampled_from(_LUMPED_CROSS_SECTIONS))
    layers = draw(st.integers(1, 40))
    cells = sorted((r, c, z) for r, c in cross for z in range(layers))
    if draw(st.booleans()):
        return Prism3D(cross, layers, draw(st.sets(st.sampled_from(cells), max_size=6)))
    move = draw(st.sampled_from(_self_maps(cross)))
    deleted: set = set()
    for r, c, z in draw(st.lists(st.sampled_from(cells), max_size=3)):
        orbit, cell = set(), (r, c)
        while (*cell, z) not in orbit:
            orbit.add((*cell, z))
            cell = move[cell]
        if len(deleted | orbit) <= 6:
            deleted |= orbit
    return Prism3D(cross, layers, deleted)


@PROPERTY
@given(symmetric_prisms())
# one flat shape is met as masks that no layer symmetry relates: here G is trivial and H is not
@example(Prism3D(rect(2, 4).cells, 12, {(0, 0, 3), (0, 1, 3)}))
@example(Prism3D(rect(2, 2).cells, 9, {(0, 0, 4), (1, 0, 4)}))
def test_lumped_layer_dp_equals_the_dp_without_symmetry(prism):
    count = count_bricks(prism)
    assert count == _reference_count(prism)
    if prism.cell_count <= MAX_BRUTEFORCE_CELLS:
        assert count == count_bricks_bruteforce(prism)


@PROPERTY
@given(st.one_of(connected_regions(max_cells=8), domino_regions(max_dominoes=4)))
def test_one_layer_prism_counts_as_its_cross_section(region):
    assert count_bricks(Prism3D(region.cells, 1)) == count_tilings(region)


@st.composite
def index_windows(draw, max_index: int = 3000):
    """A catalog family, a window lo..hi of its indices, hi <= max_index, and
    a method the family serves."""
    family = catalog()[draw(st.sampled_from(sorted(catalog())))]
    lo = draw(st.integers(family.start, max_index))
    hi = draw(st.integers(lo, min(lo + 12, max_index)))
    methods = ("iter", "matpow", "closed") if family.closed else ("iter", "matpow")
    method = draw(st.sampled_from(methods))
    return family, lo, hi, method


@PROPERTY
@given(index_windows())
def test_jump_equals_forward_pass(window):
    family, lo, hi, method = window
    rec = family.recurrence
    values = rec_values(rec, lo, hi)
    assert [rec_eval_matpow(rec, n) for n in range(lo, hi + 1)] == values
    assert list(family.terms(lo, hi, method)) == values


@st.composite
def printed_windows(draw, max_index: int = 1000):
    """A family token and a window lo..hi to print: lo at the start index or
    anywhere up to max_index, and 1, order, order + 1 or up to 40 terms."""
    name = draw(st.sampled_from(sorted(catalog())))
    rec = catalog()[name].recurrence
    lo = draw(st.one_of(st.just(rec.start), st.integers(rec.start, max_index)))
    count = draw(st.one_of(st.sampled_from((1, rec.order, rec.order + 1)), st.integers(1, 40)))
    return name, lo, lo + count - 1


def _stdout(*argv: str) -> str:
    with redirect_stdout(io.StringIO()) as out:
        assert main(list(argv)) == 0
    return out.getvalue()


@PROPERTY
@given(printed_windows())
def test_iter_and_bfile_print_str_of_the_forward_pass(window):
    name, lo, hi = window
    rec = catalog()[name].recurrence
    values = list(enumerate(rec_values(rec, lo, hi), lo))
    assert _stdout("seq", name, str(lo), str(hi)) == "".join(
        f"{n}\t{str(v)}\n" for n, v in values
    )
    assert _stdout("seq", name, str(lo), str(hi), "--json") == "".join(
        f'{{"family":"{name}","n":{n},"value":"{str(v)}"}}\n' for n, v in values
    )
    assert _stdout("bfile", name, "--to", str(hi)) == "".join(
        f"{n} {str(v)}\n" for n, v in enumerate(rec_values(rec, rec.start, hi), rec.start)
    )


_JUMPS = [
    (name, method)
    for name, family in sorted(catalog().items())
    for method in ("matpow", "closed")
    if method == "matpow" or family.closed
]


@pytest.mark.parametrize("name, method", _JUMPS)
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(data=st.data())
def test_jumps_print_str_of_the_library_int(name, method, data):
    # seq --method matpow|closed jumps in Decimals; each printed term must be
    # str() of the int the library's own jump or closed form returns.
    family = catalog()[name]
    low = st.integers(family.start, family.start + family.recurrence.order)
    lo = data.draw(st.one_of(low, st.integers(family.start, 3000)), label="lo")
    hi = data.draw(st.integers(lo, lo + 3), label="hi")
    values = [(n, str(family.eval(n, method))) for n in range(lo, hi + 1)]
    argv = ("seq", name, str(lo), str(hi), "--method", method)
    assert _stdout(*argv) == "".join(f"{n}\t{v}\n" for n, v in values)
    assert _stdout(*argv, "--json") == "".join(
        f'{{"family":"{name}","n":{n},"value":"{v}"}}\n' for n, v in values
    )


@st.composite
def positive_quads(draw, d: int, max_rational: int = 60) -> tuple[int, int]:
    """(p, r) with p > 0 and p^2 > d r^2, so p + r sqrt(d) and its conjugate are positive."""
    p = draw(st.integers(1, max_rational))
    bound = isqrt((p * p - 1) // d)
    return p, draw(st.integers(-bound, bound))


@st.composite
def conjugate_pair_forms(draw):
    """d, b and integers (cp, cr, p, r) for (cp + cr sqrt d)((p + r sqrt d) / b)^n + conjugate.

    Over b = 2 the base is an algebraic integer: d = 1 mod 4 and p = r mod 2.
    """
    b = draw(st.sampled_from((1, 2)))
    d = draw(st.sampled_from((2, 3, 5, 6, 7) if b == 1 else (5, 13, 17)))
    cp, cr = draw(positive_quads(d))
    p, r = draw(positive_quads(d).filter(lambda base: (base[0] - base[1]) % b == 0))
    return d, b, cp, cr, p, r


@PROPERTY
@given(conjugate_pair_forms())
def test_conjugate_pair_closed_form_follows_its_order_2_recurrence(form):
    d, b, cp, cr, p, r = form
    cf = ClosedForm(d, 1, b, ((cp, cr, p, r), (cp, -cr, p, -r)))
    trace, norm = 2 * p // b, (p * p - d * r * r) // (b * b)
    expected = [2 * cp, 2 * (cp * p + d * cr * r) // b]
    while len(expected) <= 200:
        expected.append(trace * expected[-1] - norm * expected[-2])
    assert [closed_eval(cf, n) for n in range(201)] == expected
