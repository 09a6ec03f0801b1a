import time

import pytest

from conftest import grid_images, prism_corpus
from tilecount import BudgetError, budget, solid3d
from tilecount.count2d import count_rectangle, count_tilings
from tilecount.regions2d import Region2D, rect
from tilecount.sequences import catalog, rec_values
from tilecount.solid3d import (
    Prism3D,
    box,
    count_bricks,
    count_bricks_bruteforce,
    layer_counts,
    m_tower,
    tower,
)


def test_tower_geometry():
    t = tower(1)
    assert t.cell_count == 4
    assert t.layers == 1
    assert tower(5).cell_count == 20
    with pytest.raises(ValueError):
        tower(0)


def test_m_tower_geometry():
    m = m_tower(3)
    assert m.cell_count == 10
    assert m.cross_section == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert m.deleted == frozenset({(0, 0, 2), (0, 1, 2)})  # two adjacent top-layer cells
    with pytest.raises(ValueError):
        m_tower(0)


def test_prism_validation():
    with pytest.raises(ValueError):
        Prism3D({(0, 0)}, -1)
    with pytest.raises(ValueError):
        Prism3D({(0, 0)}, 2, deleted={(1, 1, 0)})
    with pytest.raises(ValueError):
        Prism3D({(0, 0)}, 2, deleted={(0, 0, 5)})


def test_small_tower_counts():
    assert count_bricks(tower(1)) == 2
    assert count_bricks(tower(2)) == 9
    assert count_bricks(tower(3)) == 32
    assert count_bricks(tower(10)) == 326041
    assert count_bricks_bruteforce(tower(2)) == 9
    assert count_bricks_bruteforce(tower(4)) == 121


def test_small_m_tower_counts():
    assert count_bricks(m_tower(1)) == 1
    assert count_bricks(m_tower(2)) == 3
    assert count_bricks_bruteforce(m_tower(2)) == 3
    # one layer more adds a full tower on top of the previous defect tower
    assert count_bricks(m_tower(3)) == 12 == count_bricks(tower(2)) + count_bricks(m_tower(2))


def test_towers_track_their_sequences():
    t_values = rec_values(catalog()["T"].recurrence, 1, 8)
    m_values = rec_values(catalog()["M"].recurrence, 1, 8)
    for n in range(1, 9):
        assert count_bricks(tower(n)) == t_values[n - 1]
        assert count_bricks(m_tower(n)) == m_values[n - 1]


def test_long_towers_track_their_sequences():
    assert count_bricks(tower(500)) == rec_values(catalog()["T"].recurrence, 500, 500)[0]
    assert count_bricks(m_tower(500)) == rec_values(catalog()["M"].recurrence, 500, 500)[0]


def test_flat_counts_are_cached(monkeypatch):
    # one 2D count per flat shape met, up to translation and the grid's 8 isometries
    calls = []

    def counting(region):
        calls.append(region)
        return count_tilings(region)

    monkeypatch.setattr(solid3d, "count_tilings", counting)
    for prism, shapes in (
        (tower(300), 3),  # the empty shape, a domino and the 2 x 2 square
        (m_tower(9), 3),
        (box(2, 4, 300), 22),
        (box(4, 2, 300), 22),
        (box(3, 3, 40), 21),
    ):
        calls.clear()
        count_bricks(prism)
        assert len(calls) == shapes
        assert len({frozenset(i.cells for i in grid_images(region)) for region in calls}) == shapes


def test_flat_counts_see_only_colour_balanced_regions(monkeypatch):
    # a mask whose colour classes differ in size has no flat tiling: it returns 0 unbuilt
    regions = []

    def counting(region):
        regions.append(region)
        return count_tilings(region)

    monkeypatch.setattr(solid3d, "count_tilings", counting)
    lshape = {(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 1)}
    lprism = Prism3D(lshape, 30, {(1, 1, 4), (2, 1, 4)})
    for prism in (box(2, 4, 300), box(3, 3, 40), m_tower(9), lprism):
        assert count_bricks(prism) == list(layer_counts(prism))[-1]
    assert regions
    for region in regions:
        assert 2 * sum((r + c) % 2 for r, c in region.cells) == region.cell_count, region


def test_odd_cell_count_is_zero():
    prism = Prism3D({(0, 0), (0, 1)}, 3, deleted={(0, 0, 2)})
    assert prism.cell_count == 5
    assert count_bricks(prism) == 0
    assert count_bricks_bruteforce(prism) == 0


def test_single_cell_column():
    # 1x1 cross-section: only upright bricks fit, so parity decides
    assert count_bricks(Prism3D({(0, 0)}, 4)) == 1
    assert count_bricks(Prism3D({(0, 0)}, 5)) == 0
    assert list(layer_counts(Prism3D({(0, 0)}, 5))) == [0, 1, 0, 1, 0]


def test_empty_prism_counts_one():
    assert count_bricks(Prism3D(set(), 0)) == 1
    assert count_bricks(Prism3D({(0, 0), (0, 1)}, 0)) == 1
    assert list(layer_counts(Prism3D({(0, 0), (0, 1)}, 0))) == []


def test_over_budget_prism_is_refused_before_any_flat_count(monkeypatch):
    def no_flat_count(region):
        raise AssertionError("a flat count ran before the budget check")

    monkeypatch.setattr(solid3d, "count_tilings", no_flat_count)
    counts = layer_counts(tower(1_000_000))
    with pytest.raises(BudgetError, match="estimated layer-DP work"):
        next(counts)


def test_a_huge_cross_section_is_refused_at_once():
    prism = Prism3D([(0, c) for c in range(10**6)], 1)
    for count in (count_bricks, lambda prism: next(layer_counts(prism))):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=r"^estimated layer-DP work [0-9,]{1,60} exceeds"):
            count(prism)
        assert time.perf_counter() - start < 0.05


def test_cross_section_guard():
    # the guard is a budget on layers * 3^cells, not a cap on the cross-section
    nine = {(r, c) for r in range(3) for c in range(3)}
    assert count_bricks(Prism3D(nine, 2)) == count_bricks_bruteforce(Prism3D(nine, 2)) == 229
    assert count_bricks(Prism3D(nine, 40)) > 0
    with pytest.raises(BudgetError, match="exceeds the budget of 30,000,000"):
        count_bricks(tower(1_000_000))
    twenty_five = {(r, c) for r in range(5) for c in range(5)}
    with pytest.raises(BudgetError, match="estimated layer-DP work"):
        count_bricks(Prism3D(twenty_five, 2))


def test_bruteforce_guard():
    with pytest.raises(BudgetError):
        count_bricks_bruteforce(tower(7))


def test_cross_section_rotation_invariance():
    # rotate the 2x2 cross-section: (r, c) -> (c, 1 - r)
    def rotated(prism, times):
        cross = prism.cross_section
        deleted = prism.deleted
        for _ in range(times):
            cross = frozenset((c, 1 - r) for r, c in cross)
            deleted = frozenset((c, 1 - r, z) for r, c, z in deleted)
        return Prism3D(cross, prism.layers, deleted)

    for n in (2, 3, 4):
        for prism in (tower(n), m_tower(n)):
            baseline = count_bricks(prism)
            for times in (1, 2, 3):
                assert count_bricks(rotated(prism, times)) == baseline


def test_oracle_equivalence_on_corpus():
    corpus = prism_corpus()
    assert len(corpus) >= 70
    for prism in corpus:
        assert count_bricks(prism) == count_bricks_bruteforce(prism), prism


def test_flat_only_prism_matches_2d():
    # a single layer is exactly a 2D tiling problem
    cross = {(r, c) for r in range(2) for c in range(4)}
    assert count_bricks(Prism3D(cross, 1)) == count_tilings(rect(2, 4))
    lshape = {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)}
    assert count_bricks(Prism3D(lshape, 1)) == count_tilings(Region2D(lshape))


# (rows, cols) -> layers at which the box first jumps. The first half of its run
# of full layers, all but the top one, must hold the 2K + 1 vectors v_0 .. v_2K
# the certificate reads, K the order of the run's vector recurrence, so the
# point is 4K + 3.
_CERTIFICATE_POINTS = {
    (1, 1): 11,
    (1, 2): 11,
    (1, 3): 19,
    (1, 4): 19,
    (1, 5): 35,
    (1, 6): 35,
    (1, 7): 67,
    (1, 8): 67,
    (2, 2): 15,
    (2, 3): 43,
    (2, 4): 87,
    (2, 5): 307,
    (3, 3): 155,
}


def _spy(monkeypatch, name):
    """Record, in call order, what each call of ``solid3d``'s ``name`` returns."""
    found = []
    real = getattr(solid3d, name)

    def spy(*args):
        result = real(*args)
        found.append(result)
        return result

    monkeypatch.setattr(solid3d, name, spy)
    return found


@pytest.mark.parametrize("rows, cols", sorted(_CERTIFICATE_POINTS))
def test_jump_equals_the_layer_dp_on_both_sides_of_the_certificate(monkeypatch, rows, cols):
    point = _CERTIFICATE_POINTS[rows, cols]
    far = min(2 * point + 3, _layer_dp_edge(rows * cols))
    lengths = sorted({1, 2, 3, point - 1, point, point + 1, far} - {0})
    counts = list(layer_counts(box(rows, cols, lengths[-1])))
    found = _spy(monkeypatch, "certified_recurrence")
    for n in lengths:
        found.clear()
        assert count_bricks(box(rows, cols, n)) == counts[n - 1], n
        jumped = any(rec is not None for rec in found)
        assert jumped == (n >= point), n


# An entry vector past deleted cells spans more states than the box's {0: 1},
# so its run has a longer recurrence (order 34 to 54 here, against 21) and
# needs a longer run before its first half holds the certificate.
@pytest.mark.parametrize(
    "deleted, jumps",
    [
        ({(0, 0, 0), (0, 1, 0)}, True),  # below the run
        ({(1, 2, 3), (1, 3, 3)}, True),  # at the run's foot: an entry of four layers
        ({(0, 0, 60), (1, 0, 60)}, True),  # inside: the longer run above jumps
        ({(0, 1, 248), (0, 2, 248)}, True),  # above, under the top layer
        ({(0, 3, 249), (1, 3, 249)}, True),  # in the top layer
        # runs of 39 and 208 layers: neither half holds a certificate of order 54
        ({(0, 0, 0), (0, 1, 0), (1, 1, 40), (1, 2, 40), (0, 3, 249), (1, 3, 249)}, False),
        ({(0, 0, 5)}, False),  # odd: no tiling, though the entry has some
        ({(0, 0, 0), (1, 1, 0)}, True),  # the entry layer has no flat tiling of its own
    ],
    ids=[f"deleted{i}" for i in range(8)],
)
def test_jump_equals_the_layer_dp_with_deleted_cells(monkeypatch, deleted, jumps):
    cross = {(r, c) for r in range(2) for c in range(4)}
    prism = Prism3D(cross, 250, deleted)
    found = _spy(monkeypatch, "certified_recurrence")
    assert count_bricks(prism) == list(layer_counts(prism))[-1]
    assert any(rec is not None for rec in found) == jumps


def test_a_varied_top_above_a_jumped_run(monkeypatch):
    # the run is layers 0-148; an adjacent pair, moving along the row, is
    # deleted every 7 layers from 150 on, whose short runs are stepped
    cross = {(r, c) for r in range(2) for c in range(4)}
    deleted = {(z % 2, c, z) for z in range(150, 250, 7) for c in (z % 3, z % 3 + 1)}
    prism = Prism3D(cross, 250, deleted)
    found = _spy(monkeypatch, "certified_recurrence")
    assert count_bricks(prism) == list(layer_counts(prism))[-1]
    assert found[0] is not None and not any(found[1:])


@pytest.mark.parametrize("rows, cols", [(2, 4), (4, 2)])
def test_jump_equals_the_layer_dp_on_the_long_box(monkeypatch, rows, cols):
    found = _spy(monkeypatch, "certified_recurrence")
    assert count_bricks(box(rows, cols, 300)) == list(layer_counts(box(rows, cols, 300)))[-1]
    # the run of 299 full layers jumps; the top layer is one step, with no fit
    assert [rec.order for rec in found] == [21]


# Cells deleted near the foot give the run above them a recurrence of order 54-114,
# and the prism runs to its layer-DP edge: budget.layer_dp is its only admission, so
# the certified run jumps, however long its recurrence.
@pytest.mark.parametrize(
    "rows, cols, layers, deleted",
    [
        (2, 4, 2527, {(0, 0, 0), (0, 1, 0)}),
        (1, 8, 2527, {(0, 0, 0), (0, 1, 0)}),
        (3, 3, 1093, {(0, 0, 0)}),
    ],
)
def test_a_certified_block_always_jumps(monkeypatch, rows, cols, layers, deleted):
    prism = Prism3D({(r, c) for r in range(rows) for c in range(cols)}, layers, deleted)
    jumps = _spy(monkeypatch, "vector_jump")
    steps = _spy(monkeypatch, "_step")
    count = count_bricks(prism)
    assert len(jumps) == 1
    assert 2 * len(steps) < layers
    assert count == list(layer_counts(prism))[-1]


@pytest.mark.parametrize(
    "rows, cols, layers, every",
    [(2, 2, 2000, 10), (2, 4, 600, 7)],
)
def test_a_periodic_prism_is_stepped_once_a_layer(monkeypatch, rows, cols, layers, every):
    # an adjacent pair deleted every few layers leaves runs too short to hold a
    # certificate, so every layer is stepped once, a failed fit's layers too
    cross = {(r, c) for r in range(rows) for c in range(cols)}
    deleted = {(1, c, z) for z in range(every - 1, layers, every) for c in (0, 1)}
    prism = Prism3D(cross, layers, deleted)
    jumps = _spy(monkeypatch, "vector_jump")
    steps = _spy(monkeypatch, "_step")
    count = count_bricks(prism)
    assert len(steps) == layers
    assert not jumps
    assert count == list(layer_counts(prism))[-1]


# A full box's states are the orbits, under the cross-section's symmetries, of
# the upright sets reached by a BFS from the empty state: (rows, cols) -> the
# states held after each full layer, and over all layers, wherever the box
# stands. The 3 x 3 box alternates between two halves of its 46 orbits, by
# the parity of a layer.
_ORBITS = {
    (2, 2): (3, 3),
    (2, 3): (10, 10),
    (2, 4): (27, 27),
    (4, 2): (27, 27),
    (2, 5): (82, 82),
    (3, 4): (274, 274),
    (3, 3): (23, 46),
}


@pytest.mark.parametrize("rows, cols", sorted(_ORBITS))
def test_a_full_box_steps_one_state_per_orbit(monkeypatch, rows, cols):
    per_layer, orbits = _ORBITS[rows, cols]
    steps = _spy(monkeypatch, "_step")
    list(layer_counts(Prism3D({(r - 1, c + 2) for r in range(rows) for c in range(cols)}, 8)))
    # from the third layer on, every orbit of the layer's parity is reached; the top empties
    assert [len(states) for states in steps[2:-1]] == [per_layer] * 5
    assert len(set().union(*steps)) == orbits


@pytest.mark.parametrize("width", range(1, 9))
def test_a_one_row_box_is_the_rectangle_norms_count(width):
    # the 1 x W box's mirror symmetry lumps its states; the norm shares no code with the DP
    point = _CERTIFICATE_POINTS[1, width]
    counts = list(layer_counts(box(1, width, 300)))
    assert counts == [count_rectangle(width, n) for n in range(1, 301)]
    for n in sorted({1, 2, 3, point - 1, point, point + 1, 150, 299, 300}):
        assert count_bricks(box(1, width, n)) == counts[n - 1], n


def test_the_layer_word_is_read_from_the_deleted_cells(monkeypatch):
    # a tower's word is one run and the top layer, whatever its length
    steps = _spy(monkeypatch, "_step")
    count_bricks(tower(300))
    short = len(steps)
    steps.clear()
    assert count_bricks(tower(45000)) == catalog()["T"].eval(45000)
    assert len(steps) == short


def _layer_dp_edge(cells: int) -> int:
    """The most layers the layer budget admits for a full box of ``cells`` cross cells."""
    lo, hi = 1, 10**6
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            budget.layer_dp(mid, cells, cells * mid)
            lo = mid
        except BudgetError:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("rows, cols", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (1, 8)])
def test_the_jump_is_admitted_at_every_layer_dp_edge(monkeypatch, rows, cols):
    edge = _layer_dp_edge(rows * cols)
    jumps = _spy(monkeypatch, "vector_jump")
    count = count_bricks(box(rows, cols, edge))
    # the run, every layer but the top, jumps
    assert len(jumps) == 1
    if (rows, cols) == (2, 2):
        assert count == catalog()["T"].eval(edge)
    with pytest.raises(BudgetError, match="^estimated layer-DP work [0-9,]+ exceeds"):
        count_bricks(box(rows, cols, edge + 1))


def test_box_geometry_and_width_guard():
    assert box(2, 3, 4) == Prism3D({(r, c) for r in range(2) for c in range(3)}, 4)
    assert count_bricks(box(2, 2, 10)) == count_bricks(tower(10))
    with pytest.raises(ValueError, match="box needs positive dimensions"):
        box(2, 0, 3)
    with pytest.raises(ValueError, match="box needs positive dimensions"):
        box(2, 2, 0)
    # 3^16 splits a layer are over budget at one layer, so no such box is built
    with pytest.raises(BudgetError, match="^estimated layer-DP work 43,074,270 exceeds"):
        box(4, 4, 1)
    with pytest.raises(BudgetError, match="^estimated layer-DP work [0-9,]+ exceeds"):
        box(10**5, 10**5, 1)
    assert count_bricks(box(3, 5, 1)) == count_tilings(rect(3, 5))  # 15 cells: 3^15 fits
