import pytest

from conftest import prism_corpus
from tilecount import solid3d
from tilecount.count2d import BudgetError, count_tilings
from tilecount.sequences import catalog, rec_values
from tilecount.solid3d import (
    Prism3D,
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
    assert m.layer_cells(0) == m.cross_section
    assert m.layer_cells(2) == frozenset({(1, 0), (1, 1)})
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


def test_layers_are_read_once_from_the_prism(monkeypatch):
    def no_rebuild(self, z):
        raise AssertionError("count_bricks rebuilt a layer")

    monkeypatch.setattr(Prism3D, "layer_cells", no_rebuild)
    assert count_bricks(m_tower(50)) == rec_values(catalog()["M"].recurrence, 50, 50)[0]


def test_flat_counts_are_cached(monkeypatch):
    calls = []

    def counting(region):
        calls.append(region)
        return count_tilings(region)

    monkeypatch.setattr(solid3d, "count_tilings", counting)
    count_bricks(tower(300))
    assert len(calls) <= 16  # one per subset of the 2x2 cross-section
    calls.clear()
    count_bricks(Prism3D({(r, c) for r in range(3) for c in range(3)}, 40))
    assert len(calls) <= 512  # one per subset of the 3x3 cross-section


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
    from tilecount.count2d import BudgetError, count_tilings
    from tilecount.regions2d import Region2D, rect

    cross = {(r, c) for r in range(2) for c in range(4)}
    assert count_bricks(Prism3D(cross, 1)) == count_tilings(rect(2, 4))
    lshape = {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)}
    assert count_bricks(Prism3D(lshape, 1)) == count_tilings(Region2D(lshape))
