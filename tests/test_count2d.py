import random
import time
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_images, random_connected_region, region_corpus_2d, strip_prism
from tilecount import BudgetError, budget, count2d
from tilecount.cli import main
from tilecount.count2d import (
    Tiling,
    _abs_det,
    _ktf_norm,
    count_rectangle,
    count_tilings,
    count_tilings_bruteforce,
    enumerate_tilings,
    parse_tiling_ascii,
    render_tiling_ascii,
)
from tilecount.regions2d import (
    Region2D,
    a_grid,
    b_grid,
    c_grid,
    l2_region,
    l3_region,
    rect,
    reflect_h,
)
from tilecount.sequences import catalog, l2, l3
from tilecount.solid3d import count_bricks, layer_counts

# frozen oracle values: 2 x n rectangle counts are the shifted Fibonacci run
FIB = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233]


def aztec_diamond(n: int) -> Region2D:
    """The Aztec diamond of order n: rows of 2, 4, ..., 2n, 2n, ..., 2 cells."""
    cells = []
    for r in range(2 * n):
        half = r + 1 if r < n else 2 * n - r
        cells.extend((r, c) for c in range(n - half, n + half))
    return Region2D(cells)


def ktf_rectangle(rows: int, cols: int) -> int:
    """Domino tilings of a rows x cols rectangle by the Kasteleyn-Temperley-Fisher
    product of 4cos^2(pi j/(rows+1)) + 4cos^2(pi k/(cols+1)), evaluated with
    mpmath at more than twice the result's digits and rounded."""
    import mpmath

    def product(dps: int):
        with mpmath.workdps(dps):
            p = mpmath.mpf(1)
            for j in range(1, (rows + 1) // 2 + 1):
                for k in range(1, (cols + 1) // 2 + 1):
                    p *= 4 * mpmath.cos(mpmath.pi * j / (rows + 1)) ** 2 + 4 * mpmath.cos(
                        mpmath.pi * k / (cols + 1)
                    ) ** 2
            return p

    digits = int(mpmath.log10(product(30))) + 1
    with mpmath.workdps(2 * digits + 20):
        exact = product(2 * digits + 20)
        nearest = mpmath.nint(exact)
        assert abs(exact - nearest) < mpmath.mpf("0.01")
        return int(nearest)


def test_empty_region_counts_one():
    assert count_tilings(Region2D()) == 1
    assert count_bricks(strip_prism(Region2D())) == 1
    assert count_tilings_bruteforce(Region2D()) == 1


def test_odd_cell_count_is_zero():
    assert count_tilings(rect(3, 3)) == 0
    assert count_bricks(strip_prism(rect(3, 3))) == 0
    assert count_tilings_bruteforce(rect(3, 3)) == 0
    assert count_tilings(Region2D([(0, 0)])) == 0


def test_even_regions_without_a_tiling_count_zero():
    # two cells of the same colour: unequal colour classes
    assert count_tilings(Region2D([(0, 0), (1, 1)])) == 0
    # one cell of each colour, not adjacent: the elimination finds no pivot
    assert count_tilings(Region2D([(0, 0), (0, 3)])) == 0


def test_ring_around_one_missing_cell():
    # the 3x3 square minus its centre; column-parity signs alone give 0
    ring = Region2D((r, c) for r in range(3) for c in range(3) if (r, c) != (1, 1))
    assert count_tilings(ring) == count_tilings_bruteforce(ring) == 2


def test_island_inside_a_hole():
    # a 7x7 frame around a 5x5 hole that holds one domino: 23 missing cells
    frame = [(r, c) for r in range(7) for c in range(7) if r in (0, 6) or c in (0, 6)]
    region = Region2D(frame + [(3, 2), (3, 3)])
    assert count_tilings(region) == count_bricks(strip_prism(region)) == 2


@pytest.mark.parametrize("n", [*range(1, 17), 20, 30, 40])
def test_aztec_diamond_counts_a_power_of_two(n):
    # order 16 is 32 cells across both ways; the determinant has no width cap;
    # order 40 (3,280 cells) is counted as one half, squared
    assert count_tilings(aztec_diamond(n)) == 2 ** (n * (n + 1) // 2)


def diagonal_halves(region: Region2D) -> tuple[Region2D, Region2D]:
    """G- and G+ of a region that the transpose maps onto itself: the cells below
    the diagonal with the even-numbered diagonal cells, and the cells above it
    with the odd-numbered ones, numbered from the top left."""
    axis = sorted(r for r, c in region.cells if r == c)
    below = [(r, c) for r, c in region.cells if r > c]
    above = [(r, c) for r, c in region.cells if r < c]
    return (
        Region2D(below + [(i, i) for i in axis[::2]]),
        Region2D(above + [(i, i) for i in axis[1::2]]),
    )


def _spied_determinants(monkeypatch, counts: list | None = None) -> list[tuple]:
    """The cell count and level order (``add`` or ``sub``) of each region
    ``count2d._kasteleyn_det`` is called on, from now on; each call's result is
    appended to ``counts`` too, if given."""
    calls = []
    kernel = count2d._kasteleyn_det

    def spy(rows, cols, along, width):
        calls.append((len(rows), along))
        count = kernel(rows, cols, along, width)
        if counts is not None:
            counts.append(count)
        return count

    monkeypatch.setattr(count2d, "_kasteleyn_det", spy)
    return calls


@pytest.mark.parametrize("n", range(1, 7))
def test_a_square_half_counts_pachters_s_n(n):
    # R(2n x 2n) = 2^n s_n^2 (Pachter 1997): the half by the determinant, the
    # square by the Kasteleyn-Temperley-Fisher norm, two routes
    s_n = [1, 3, 29, 901, 89_893, 28_793_575][n - 1]
    lower, upper = diagonal_halves(rect(2 * n, 2 * n))
    assert count_tilings(lower) == count_tilings(upper) == s_n
    assert 2**n * s_n**2 == count_rectangle(2 * n, 2 * n) == count_tilings(rect(2 * n, 2 * n))


@pytest.mark.parametrize("n", range(1, 11))
def test_both_halves_of_an_aztec_diamond_count_a_power_of_two(n):
    lower, upper = diagonal_halves(aztec_diamond(n))
    assert count_tilings(lower) == count_tilings(upper) == 2 ** (n * n // 4)


def test_the_split_labels_its_axis_alternately_and_keeps_its_power_of_two(monkeypatch):
    # Labelling the axis's first half a, the rest b, gives 4, 8 and 256; dropping
    # the factor 2^(w/2) gives 9, 841 and 256. Swapping a and b cannot fail, here
    # or anywhere, and a mutant that swaps them passes every test: by the
    # reflection, G- with the b's is the transpose of G+ with the a's, so the
    # two halves trade places and the product stays the same.
    monkeypatch.setattr(count2d, "MIN_SPLIT_AXIS", 0)
    calls = _spied_determinants(monkeypatch)
    assert count_tilings(rect(4, 4)) == 36
    assert count_tilings(rect(6, 6)) == 6728
    assert count_tilings(aztec_diamond(4)) == 1024
    assert calls == [(8, add), (18, add), (20, add)]  # one half of each, squared by the half-turn


def test_the_split_starts_at_its_crossover(monkeypatch):
    # an axis of 2 cells is dearer split, so l2:n,n and the 2 x 2 square are
    # counted whole; the order-9 diamond (w = 10) is one half, squared
    calls = _spied_determinants(monkeypatch)
    regions = [l2_region(n, n) for n in range(1, 30)] + [rect(2, 2)]
    for region in regions:
        count_tilings(region)
    assert [size for size, _ in calls] == [region.cell_count for region in regions]
    calls.clear()
    assert count_tilings(aztec_diamond(9)) == 2**45
    assert calls == [((180 - 10) // 2 + 5, add)]


def test_the_split_runs_one_path_in_the_whole_regions_level_order(monkeypatch):
    # The 12 x 12 square without (0,1), (10,11), (0,2), (9,11) maps onto itself
    # by the reflection about its anti-diagonal only. Its r - c levels are the
    # cheaper, so once its columns are mirrored both halves are numbered along
    # r + c; the mirrored picture is split about its main diagonal in the same
    # order, unmirrored. The band is its own transpose and splits unmirrored
    # along its cheaper r - c levels; its whole count is the same kernel's.
    anti = Region2D(
        (r, c) for r in range(12) for c in range(12) if (r, c) not in {(0, 1), (10, 11), (0, 2), (9, 11)}
    )
    mirrored = Region2D((r, 11 - c) for r, c in anti.cells)
    band = Region2D((r, c) for r in range(40) for c in range(40) if 31 <= r + c <= 46)
    whole_band = count2d._kasteleyn_det(*zip(*band.cells), sub, 42)
    assert count_bricks(strip_prism(anti)) == 2024715899187200
    calls = _spied_determinants(monkeypatch)
    expected = [
        (aztec_diamond(9), 2**45, [(90, add)]),
        (aztec_diamond(10), 2**55, [(110, add)]),
        (rect(16, 16), count_rectangle(16, 16), [(128, add)]),
        (anti, 2024715899187200, [(70, add), (70, add)]),
        (mirrored, 2024715899187200, [(70, add), (70, add)]),
        (band, whole_band, [(288, sub), (288, sub)]),
    ]
    for region, count, kernel_calls in expected:
        calls.clear()
        assert count_tilings(region) == count
        assert calls == kernel_calls


def test_l2_n_n_is_twice_a_product_of_consecutive_fibonacci_numbers(monkeypatch):
    # l2:n,n maps onto itself by the reflection about its main diagonal, whose axis
    # holds 2 cells: split at any axis, its halves count Fib(n) and Fib(n + 1), with
    # Fib(1) = Fib(2) = 1, and at n = 1 (the 2 x 2 square) the one half is squared
    fib = [0, 1]
    while len(fib) < 42:
        fib.append(fib[-2] + fib[-1])
    for n in range(1, 41):
        assert count_tilings(l2_region(n, n)) == l2(n, n) == 2 * fib[n] * fib[n + 1], n
    monkeypatch.setattr(count2d, "MIN_SPLIT_AXIS", 0)
    halves = []
    _spied_determinants(monkeypatch, halves)
    for n in range(1, 41):
        halves.clear()
        assert count_tilings(l2_region(n, n)) == 2 * fib[n] * fib[n + 1], n
        assert sorted(halves) == ([1] if n == 1 else [fib[n], fib[n + 1]]), n


def test_count_rect_24_by_24_matches_the_product_formula(capsys):
    assert main(["count", "rect:24,24"]) == 0
    assert capsys.readouterr().out == f"{ktf_rectangle(24, 24)}\n"


@pytest.mark.parametrize("n", range(1, 13))
def test_two_by_n_is_fibonacci(n):
    assert count_tilings(rect(2, n)) == FIB[n]


@pytest.mark.parametrize("width", range(2, 7))
def test_one_layer_pass_counts_every_rectangle_of_a_strip(width):
    # a W x n rectangle is the first n layers of the 1 x W strip prism,
    # zeros for odd W * n included; the 2-wide pass is the Fibonacci run
    counts = list(layer_counts(strip_prism(rect(len(FIB) - 1, width))))
    assert counts == [count_tilings(rect(n, width)) for n in range(1, len(FIB))]
    if width == 2:
        assert counts == FIB[1:]


def test_small_rectangles():
    assert count_tilings(rect(2, 2)) == 2
    assert count_tilings(rect(3, 4)) == 11
    assert count_tilings(rect(2, 5)) == 8


def test_known_defect_grids():
    assert count_tilings_bruteforce(b_grid(1)) == 4
    assert count_tilings_bruteforce(c_grid(1)) == 7
    assert count_tilings(b_grid(2)) == 15
    assert count_tilings(c_grid(2)) == 26


def test_disconnected_region_multiplies():
    # two 2x2 blocks far apart: 2 * 2 tilings
    block = [(0, 0), (0, 1), (1, 0), (1, 1)]
    far = [(r, c + 10) for r, c in block]
    assert count_tilings(Region2D(block + far)) == 4
    # disconnected with one odd component
    assert count_tilings(Region2D(block + [(0, 10), (1, 10), (2, 10)])) == 0


def test_region_with_hole():
    # 4x4 with the two middle-left cells removed: even, but compare to oracle
    region = Region2D([(r, c) for r in range(4) for c in range(4) if (r, c) not in ((1, 1), (2, 1))])
    assert count_tilings(region) == count_tilings_bruteforce(region)


def test_a_long_strip_counts_alike_lying_and_standing():
    count = count_tilings(rect(3, 40))
    assert count == count_tilings(rect(40, 3)) == count_bricks(strip_prism(rect(3, 40)))


def test_width_guard():
    # the determinant refuses on its work estimate, not on a width cap
    with pytest.raises(BudgetError, match="exceeds the budget of 100,000,000"):
        count_tilings(rect(200, 200))
    # zero counts come first, however large the region
    assert count_tilings(rect(201, 201)) == 0
    assert count_tilings(Region2D(rect(200, 200).cells - {(0, 0), (1, 1)})) == 0


def _refusal(count, *args):
    try:
        count(*args)
    except BudgetError as exc:
        return str(exc)
    return None


def test_the_rect_estimate_from_its_size_is_the_determinants(monkeypatch):
    # on both sides of the budget's edge, for squares, near-squares and strips;
    # an admitted rectangle skips its elimination here
    monkeypatch.setattr(count2d, "_abs_det", lambda rows: 0)
    sizes = [(m, m + d) for m in range(50, 62) for d in (0, 1, 2)]
    sizes += [(m, 2000 // m) for m in (8, 9, 10, 11, 12, 24)] + [(1, 4), (2, 2), (3, 3), (7, 9)]
    refused = 0
    for rows, cols in sizes:
        for r, c in ((rows, cols), (cols, rows)):
            message = _refusal(budget.rectangle, r, c)
            assert message == _refusal(count_tilings, rect(r, c)), (r, c)
            refused += message is not None
    assert 0 < refused < 2 * len(sizes)
    for rows, cols in ((0, 5), (-3, 4), (1001, 1001)):  # left to the builder and the parity check
        budget.rectangle(rows, cols)


def _fraction_det(matrix: list[list[int]]) -> Fraction:
    """det by Gaussian elimination over the rationals, row swaps counted."""
    a = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p], det = a[p], a[k], -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            factor = a[i][k] / a[k][k]
            a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


def test_the_elimination_is_exact_on_random_sparse_matrices():
    # Kasteleyn matrices this small seldom reach a pivot or base other than 1,
    # nor a pivot row last updated steps ago: entries up to 3 in size, zero
    # leading entries and singular matrices run every branch of the scalings
    rng = random.Random(20260101)
    for _ in range(3000):
        n = rng.randint(1, 10)
        density = rng.choice((0.2, 0.4, 0.7))
        matrix = [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.1:  # a repeated row
            matrix[rng.randrange(n)] = list(matrix[rng.randrange(n)])
        rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
        assert _abs_det(rows) == abs(_fraction_det(matrix)), matrix


def test_the_norm_is_the_determinant_on_every_small_rectangle():
    for m in range(1, 13):
        for n in range(1, 13):
            assert count_rectangle(m, n) == count_tilings(rect(m, n)), (m, n)


def test_the_norm_is_the_product_formula_at_the_largest_admitted_squares():
    assert _refusal(budget.rectangle, 58, 58) is not None
    assert count_rectangle(56, 58) == count_rectangle(58, 56) == ktf_rectangle(56, 58)


def _edge(rows: int, step: int) -> int:
    """The largest n with the rows x (step * n) rectangle admitted: doubling, then bisection."""
    lo, hi = 1, 2
    while _refusal(budget.rectangle, rows, step * hi) is None:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _refusal(budget.rectangle, rows, step * mid) is None else (lo, mid)
    return lo


def test_strips_are_their_families_terms_at_their_admission_edges():
    fams = catalog()
    n = _edge(2, 1)
    assert count_rectangle(2, n) == count_rectangle(n, 2) == fams["F"].eval(n)
    with pytest.raises(BudgetError, match="estimated elimination work"):
        count_rectangle(2, n + 1)
    n = _edge(3, 2)
    assert count_rectangle(3, 2 * n) == count_rectangle(2 * n, 3) == fams["A"].eval(n)
    with pytest.raises(BudgetError, match="estimated elimination work"):
        count_rectangle(3, 2 * n + 2)


def test_the_norm_refuses_what_the_determinant_refuses_and_checks_its_sides():
    for rows, cols in ((58, 58), (24, 2000), (3, 20000000)):
        with pytest.raises(BudgetError) as refusal:
            count_rectangle(rows, cols)
        assert str(refusal.value) == _refusal(budget.rectangle, rows, cols)
    for rows, cols in ((0, 5), (-3, 4)):
        with pytest.raises(ValueError, match=f"positive dimensions, got {rows}x{cols}"):
            count_rectangle(rows, cols)
    # an odd rectangle counts 0 at once, however large
    assert count_rectangle(1001, 1001) == count_rectangle(3, 3000001) == 0
    # an estimate past the int -> str digit limit is refused with its digits in full
    refusal = r"^estimated elimination work [0-9,]+ exceeds the budget of 100,000,000$"
    with pytest.raises(BudgetError, match=refusal):
        count_rectangle(2, 10**2200)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40))
def test_a_transposed_rectangle_has_the_same_norm(m, n):
    # the norm taken modulo either side's polynomial: two different computations
    assert _ktf_norm(m, n) == _ktf_norm(n, m)
    assert count_rectangle(m, n) == count_rectangle(n, m) == (0 if m * n % 2 else _ktf_norm(m, n))


def test_long_thin_and_wide_regions_match_their_formulas():
    assert count_tilings(l3_region(30, 30)) == l3(30, 30)
    assert count_tilings(l3_region(150, 150)) == l3(150, 150)
    assert count_tilings(l2_region(200, 200)) == l2(200, 200)
    assert count_tilings(rect(33, 33)) == ktf_rectangle(33, 33) == 0
    assert count_tilings(rect(40, 40)) == ktf_rectangle(40, 40)


def block_staircase(steps: int, size: int = 6) -> Region2D:
    """``steps`` size x size squares, each one right of the last, then below it, in turn."""
    cells = []
    for i in range(steps):
        top, left = i // 2 * size, (i + 1) // 2 * size
        cells += [(top + r, left + c) for r in range(size) for c in range(size)]
    return Region2D(cells)


def _best_seconds(fn, region, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        value = fn(region)
        best = min(best, time.perf_counter() - start)
    return value, best


def test_a_staircase_and_its_mirror_image_count_alike_and_fast():
    # The chosen anti-diagonal order runs across the staircase in either
    # image. A fixed one runs along it in one of them, where levels of 180
    # cells put it far over the work budget.
    stairs = block_staircase(60)
    count, seconds = _best_seconds(count_tilings, stairs)
    mirror_count, mirror_seconds = _best_seconds(count_tilings, reflect_h(stairs))
    assert count == mirror_count > 0
    assert seconds < 0.1 and mirror_seconds < 0.1


def test_an_over_budget_region_is_refused_before_any_elimination():
    region = rect(24, 2000)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="estimated elimination work"):
        count_tilings(region)
    assert time.perf_counter() - start < 1


def test_the_colour_check_comes_before_the_budget_and_the_budget_before_any_sort(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the region was sorted or eliminated")

    monkeypatch.setattr(count2d, "sorted", refused, raising=False)
    monkeypatch.setattr(count2d, "_abs_det", refused)
    big = rect(200, 200).cells
    # unequal colour classes count 0 at once, however large the region
    assert count_tilings(Region2D(big - {(0, 0), (1, 1)})) == 0
    assert count_tilings(Region2D(big - {(0, 1), (1, 0)})) == 0
    # a balanced region over the budget is refused before any sort or build
    for cells in (big, big - {(0, 0), (0, 1)}, big - {(5, 5), (7, 8)}):
        with pytest.raises(BudgetError, match="estimated elimination work"):
            count_tilings(Region2D(cells))


def test_oracle_size_guard():
    with pytest.raises(BudgetError):
        count_tilings_bruteforce(rect(4, 8))
    with pytest.raises(BudgetError):
        enumerate_tilings(rect(4, 8), 1)


def test_oracle_equivalence_on_corpus():
    corpus = region_corpus_2d()
    assert len(corpus) >= 250
    # keyed r * W + c with no spare column, (0, 2) and (1, 0) would get adjacent
    # keys and opposite colours: a false edge
    corpus.append(Region2D({(0, 1), (0, 2), (1, 0), (1, 1)}))
    for region in corpus:
        count = count_tilings(region)
        assert count == count_tilings_bruteforce(region), to_fail_msg("determinant", region)
        assert count_bricks(strip_prism(region)) == count, to_fail_msg("layer DP", region)


def to_fail_msg(route, region):
    return f"{route} != brute force on:\n{region}"


def test_every_one_row_region_matches_the_oracle():
    # The layer DP counts a strip prism's flat layers with the determinant,
    # on one row of cells. Pinning those counts to the search keeps the
    # strip route an independent check of the determinant.
    for width in range(1, 13):
        for mask in range(2**width):
            region = Region2D((0, c) for c in range(width) if mask >> c & 1)
            assert count_tilings(region) == count_tilings_bruteforce(region), region


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_symmetry_invariance(seed):
    rng = random.Random(seed)
    for _ in range(20):
        region = random_connected_region(rng, rng.randint(4, 20))
        assert {count_tilings(image) for image in grid_images(region)} == {count_tilings(region)}


def test_enumerate_single_domino():
    tilings = enumerate_tilings(rect(2, 1), 10)
    assert len(tilings) == 1
    assert tilings[0].dominoes == frozenset({((0, 0), (1, 0))})


def test_enumerate_matches_counts():
    for region in [rect(3, 2), rect(2, 4), b_grid(1), c_grid(1), a_grid(2)]:
        tilings = enumerate_tilings(region, 10_000)
        assert len(tilings) == count_tilings_bruteforce(region)
        seen = set()
        for tiling in tilings:
            assert tiling.dominoes not in seen
            seen.add(tiling.dominoes)
            covered = []
            for a, b in tiling.dominoes:
                (r1, c1), (r2, c2) = sorted((a, b))
                assert (r2 - r1, c2 - c1) in ((0, 1), (1, 0))
                covered.extend((a, b))
            assert len(covered) == len(set(covered))
            assert frozenset(covered) == region.cells
            assert len(tiling) == len(region.cells) // 2


def test_enumerate_respects_limit_and_order():
    full = enumerate_tilings(a_grid(1), 100)
    assert len(full) == 3
    assert enumerate_tilings(a_grid(1), 2) == full[:2]
    with pytest.raises(ValueError):
        enumerate_tilings(a_grid(1), 0)


def test_enumerate_odd_region_is_empty():
    assert enumerate_tilings(rect(3, 3), 5) == []


def test_render_vertical_domino():
    tiling = Tiling(frozenset({((0, 0), (1, 0))}))
    assert render_tiling_ascii(tiling) == "^\nv"


def test_render_square_both_ways():
    horizontal = Tiling(frozenset({((0, 0), (0, 1)), ((1, 0), (1, 1))}))
    assert render_tiling_ascii(horizontal) == "<>\n<>"
    vertical = Tiling(frozenset({((0, 0), (1, 0)), ((0, 1), (1, 1))}))
    assert render_tiling_ascii(vertical) == "^^\nvv"


def test_render_parse_round_trip():
    for region in [Region2D(), rect(2, 3), rect(3, 4), b_grid(1), c_grid(1)]:
        for tiling in enumerate_tilings(region, 50):
            assert parse_tiling_ascii(render_tiling_ascii(tiling)) == tiling
    assert render_tiling_ascii(Tiling(frozenset())) == ""


def test_render_rejects_a_pair_that_is_not_adjacent():
    with pytest.raises(ValueError, match=r"not adjacent: \(0, 0\), \(1, 1\)"):
        render_tiling_ascii(Tiling(frozenset({((0, 0), (1, 1))})))


def test_parse_rejects_broken_pictures():
    with pytest.raises(ValueError):
        parse_tiling_ascii("<.")
    with pytest.raises(ValueError):
        parse_tiling_ascii("^\n.")
    with pytest.raises(ValueError):
        parse_tiling_ascii(">")
    with pytest.raises(ValueError, match="unexpected character 'x' at row 1, column 1"):
        parse_tiling_ascii("<>\n.x")
