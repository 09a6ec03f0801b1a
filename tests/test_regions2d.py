import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilecount.regions2d import (
    ORIENTATIONS,
    Region2D,
    a_grid,
    b_grid,
    c_grid,
    from_ascii,
    l2_region,
    l3_region,
    rect,
    reflect_h,
    reflect_v,
    to_ascii,
)


def test_rect_basics():
    assert rect(1, 1).cells == frozenset({(0, 0)})
    r = rect(3, 4)
    assert r.cell_count == 12
    assert (r.height, r.width) == (3, 4)
    assert rect(2, 5).cell_count == 10


@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (-1, 2)])
def test_rect_rejects_bad_dimensions(rows, cols):
    with pytest.raises(ValueError):
        rect(rows, cols)


def test_region_normalizes_on_construction():
    shifted = Region2D([(5, 7), (5, 8), (6, 7)])
    assert shifted.cells == frozenset({(0, 0), (0, 1), (1, 0)})


class _Index(int):
    """An int subclass, as an enum member or a library's integer scalar is."""


_COORDS = st.one_of(st.integers(-3, 6), st.booleans(), st.integers(-3, 6).map(_Index))
_SHIFTS = st.sampled_from([0, 0, 1, -4, 10**6, -(10**6)])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(_COORDS, _COORDS), max_size=25),
    repeats=st.integers(0, 5),
    shift=st.tuples(_SHIFTS, _SHIFTS),
    as_generator=st.booleans(),
)
@example(pairs=[(0, True), (1, False)], repeats=0, shift=(0, 0), as_generator=False)
@example(pairs=[(_Index(1), 0), (2, 1)], repeats=1, shift=(0, 0), as_generator=True)
def test_region_cells_are_the_shifted_pairs_as_exact_ints(pairs, repeats, shift, as_generator):
    pairs = pairs + pairs[:repeats]  # duplicates
    # a shifted axis holds plain ints; an unshifted one keeps the bools and subclasses drawn
    pairs = [(r + shift[0] if shift[0] else r, c + shift[1] if shift[1] else c) for r, c in pairs]
    region = Region2D((pair for pair in pairs) if as_generator else pairs)
    top = min((int(r) for r, _ in pairs), default=0)
    left = min((int(c) for _, c in pairs), default=0)
    assert region.cells == frozenset((int(r) - top, int(c) - left) for r, c in pairs)
    assert all(type(r) is int and type(c) is int for r, c in region.cells)


@pytest.mark.parametrize(
    "cells",
    [
        [(0, 0), (1, 2, 3)],  # a triple among pairs: zip(*cells) alone would truncate it
        [(1, 2, 3), (0, 0)],
        [(0, 0, 0), (0, 1, 0)],
        [(0,), (1,)],
        [(0, 0), (1,)],
        [(0, 0), 5],
        [5],
    ],
)
@pytest.mark.parametrize("as_generator", [False, True])
def test_region_rejects_elements_that_are_not_pairs(cells, as_generator):
    with pytest.raises((TypeError, ValueError)):
        Region2D((cell for cell in cells) if as_generator else cells)


def test_empty_region():
    empty = Region2D()
    assert empty.cell_count == 0
    assert empty.width == 0 and empty.height == 0
    assert to_ascii(empty) == ""
    assert from_ascii("") == empty


def test_a_grid_shape():
    assert a_grid(1) == rect(3, 2)
    assert a_grid(2).cell_count == 12
    assert a_grid(5).cell_count == 30
    with pytest.raises(ValueError):
        a_grid(0)


@pytest.mark.parametrize("n", range(0, 6))
def test_b_grid_cell_count(n):
    assert b_grid(n).cell_count == 6 * n + 2


def test_b_grid_zero_is_a_domino_column():
    assert b_grid(0).cells == frozenset({(0, 0), (1, 0)})


@pytest.mark.parametrize("n", range(0, 6))
def test_c_grid_cell_count(n):
    assert c_grid(n).cell_count == 6 * n + 4


def test_c_grid_zero_is_a_square():
    assert c_grid(0) == rect(2, 2)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(1, 6)])
def test_l2_region_cell_count(n, k):
    assert l2_region(n, k).cell_count == 2 * n + 2 * k


def test_l2_region_small_shapes():
    assert l2_region(1, 1) == rect(2, 2)
    assert l2_region(3, 1) == rect(2, 4)
    assert l2_region(1, 3) == rect(4, 2)
    assert l2_region(3, 2) == from_ascii("####\n####\n##..")


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (1, 2), (3, 2)])
def test_l3_region_cell_count(n, k, orientation):
    assert l3_region(n, k, orientation).cell_count == 6 * n + 6 * k


def test_l3_region_default_shape():
    assert l3_region(1, 1) == from_ascii("###\n###\n##.\n##.\n##.")
    assert l3_region(2, 2).cell_count == 24


@pytest.mark.parametrize(
    "orientation, picture",
    [
        ("SW", "###.\n###.\n####\n####\n####"),
        ("SE", ".###\n.###\n####\n####\n####"),
        ("NW", "##.\n##.\n##.\n###\n###\n###\n###"),
        ("NE", ".##\n.##\n.##\n###\n###\n###\n###"),
    ],
)
def test_l3_region_shape_in_each_orientation(orientation, picture):
    # the 2n = 2 arm is the vertical one in SW/SE and the top one in NW/NE
    assert to_ascii(l3_region(1, 2, orientation)) == picture


@pytest.mark.parametrize(
    "builder, args, message",
    [
        (b_grid, (-1,), r"b_grid needs n >= 0, got -1"),
        (c_grid, (-1,), r"c_grid needs n >= 0, got -1"),
        (l2_region, (0, 2), r"l2_region needs n, k >= 1, got \(0, 2\)"),
        (l2_region, (2, 0), r"l2_region needs n, k >= 1, got \(2, 0\)"),
        (l3_region, (0, 2), r"l3_region needs n, k >= 1, got \(0, 2\)"),
        (l3_region, (2, 0), r"l3_region needs n, k >= 1, got \(2, 0\)"),
    ],
)
def test_builders_reject_indices_below_their_range(builder, args, message):
    with pytest.raises(ValueError, match=message):
        builder(*args)


def test_l3_region_rejects_unknown_orientation():
    with pytest.raises(ValueError):
        l3_region(2, 2, "UP")


@pytest.mark.parametrize(
    "builder",
    [
        lambda: rect(3, 4),
        lambda: a_grid(3),
        lambda: b_grid(2),
        lambda: c_grid(2),
        lambda: l2_region(3, 2),
        lambda: l3_region(2, 1),
        lambda: l3_region(2, 1, "NE"),
    ],
)
def test_builders_are_normalized(builder):
    region = builder()
    assert min(r for r, _ in region.cells) == 0
    assert min(c for _, c in region.cells) == 0


def test_ascii_round_trip():
    for text in ["##\n##", ".##\n###", "#.#\n###", "#"]:
        region = from_ascii(text)
        assert to_ascii(region) == str(region) == text
        assert from_ascii(to_ascii(region)) == region


def test_to_ascii_reads_width_once():
    # width is a max over every cell; reading it per row made a tall picture
    # cost O(rows * cells)
    reads = []

    class CountingRegion(Region2D):
        @property
        def width(self) -> int:
            reads.append(1)
            return super().width

    for region in (rect(300, 2), from_ascii(".##\n###\n#.."), l3_region(3, 2)):
        reads.clear()
        picture = to_ascii(CountingRegion(region.cells))
        assert picture == to_ascii(region)
        assert len(reads) <= 1
    assert to_ascii(CountingRegion()) == ""


def test_from_ascii_counts_cells():
    assert from_ascii(".##\n###").cell_count == 5


def test_from_ascii_rejects_garbage():
    with pytest.raises(ValueError):
        from_ascii("#x#")


def test_from_ascii_normalizes_padding():
    assert from_ascii("...\n.##\n.##") == rect(2, 2)


def test_transforms():
    region = l3_region(2, 1)
    assert reflect_h(reflect_h(region)) == region
    assert reflect_v(reflect_v(region)) == region


def test_transform_preserves_cell_count():
    region = l2_region(3, 2)
    for op in (reflect_h, reflect_v):
        assert op(region).cell_count == region.cell_count


def test_region_is_hashable_and_frozen():
    region = rect(2, 2)
    assert hash(region) == hash(rect(2, 2))
    with pytest.raises(Exception):
        region.cells = frozenset()
