"""Shared corpus builders for oracle-equivalence and property tests, the
reference rendering of verify records, a region's grid images, and a runner
for scripts in a fresh interpreter."""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import tilecount
from tilecount.regions2d import (
    Region2D,
    a_grid,
    b_grid,
    c_grid,
    l2_region,
    l3_region,
    rect,
    reflect_h,
    reflect_v,
)
from tilecount.sequences import decimal_str
from tilecount.solid3d import Prism3D, m_tower, tower


def dumped_records(report) -> list[str]:
    """Each check of ``report`` as ``json.dumps`` renders its record, sorted keys, no spaces."""
    records = (
        {
            "check": c.name,
            "params": list(c.params),
            "left": decimal_str(c.left),
            "right": decimal_str(c.right),
            "pass": c.passed,
        }
        for c in report.checks
    )
    return [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` with ``args`` as ``sys.argv[1:]`` in a bare interpreter
    (``python -I -S``: no environment, no site), after ``import sys`` and with
    the package's source first on ``sys.path``, utf-8 streams and an 80-column
    terminal."""
    src = str(Path(tilecount.__file__).parents[1])
    script = f"import sys; sys.path.insert(0, {src!r})\n{script}"
    return subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, *args],
        capture_output=True,
        encoding="utf-8",
        env={**os.environ, "COLUMNS": "80"},
        timeout=120,
    )


def grid_images(region: Region2D) -> list[Region2D]:
    """The region's images under the square grid's 8 isometries: the region and
    its transpose, each as it is, mirrored by ``reflect_h``, by ``reflect_v``,
    and by both."""
    images = []
    for image in (region, Region2D((c, r) for r, c in region.cells)):
        images += [image, reflect_h(image), reflect_v(image), reflect_h(reflect_v(image))]
    return images


def random_connected_region(rng: random.Random, n_cells: int) -> Region2D:
    """Grow a connected region cell by cell; deterministic for a seeded rng."""
    cells = {(0, 0)}
    while len(cells) < n_cells:
        r, c = rng.choice(sorted(cells))
        nbr = rng.choice([(r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)])
        cells.add(nbr)
    return Region2D(cells)


def region_corpus_2d(seed: int = 20240229, n_random: int = 200) -> list[Region2D]:
    """Every sub-rectangle up to 4x7, the named builders at small indices,
    and a seeded batch of random connected regions, all within 28 cells."""
    regions = []
    for rows in range(1, 5):
        for cols in range(1, 8):
            regions.append(rect(rows, cols))
    regions.extend(a_grid(n) for n in range(1, 5))
    regions.extend(b_grid(n) for n in range(0, 5))
    regions.extend(c_grid(n) for n in range(0, 5))
    regions.extend(l2_region(n, k) for n in range(1, 5) for k in range(1, 5))
    for n, k in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
        regions.append(l3_region(n, k, "SW"))
        regions.append(l3_region(n, k, "NW"))
    rng = random.Random(seed)
    for _ in range(n_random):
        size = rng.randint(4, 26)
        regions.append(random_connected_region(rng, size))
    assert all(r.cell_count <= 28 for r in regions)
    return regions


def strip_prism(region: Region2D) -> Prism3D:
    """The region as a 1 x W prism, W its narrow side, for the layer DP.

    A region wider than tall is transposed first. The cross-section is the
    row of W cells, each row of the region is one layer, and each missing
    bounding-box cell is a deleted cell.
    """
    if region.width > region.height:
        region = Region2D((c, r) for r, c in region.cells)
    width, height = region.width, region.height
    missing = {(0, c, r) for r in range(height) for c in range(width) if (r, c) not in region}
    return Prism3D({(0, c) for c in range(width)}, height, missing)


_CROSS_SECTIONS = [
    frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
    frozenset({(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)}),
    frozenset({(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)}),
    frozenset({(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)}),
    frozenset({(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3)}),
]


def random_prism(rng: random.Random) -> Prism3D:
    """A small prism with an even-sized random deletion pattern, <= 24 cells."""
    while True:
        cross = rng.choice(_CROSS_SECTIONS)
        layers = rng.randint(1, 24 // len(cross))
        all_cells = [(r, c, z) for (r, c) in sorted(cross) for z in range(layers)]
        max_deletions = min(len(all_cells) - 2, 6)
        n_del = rng.randrange(0, max_deletions + 1) & ~1  # keep it even
        deleted = rng.sample(all_cells, n_del) if n_del else []
        prism = Prism3D(cross, layers, deleted)
        if prism.cell_count <= 24:
            return prism


def prism_corpus(seed: int = 20240301, n_random: int = 60) -> list[Prism3D]:
    prisms = [tower(n) for n in range(1, 7)]
    prisms.extend(m_tower(n) for n in range(1, 7))
    rng = random.Random(seed)
    prisms.extend(random_prism(rng) for _ in range(n_random))
    assert all(p.cell_count <= 24 for p in prisms)
    return prisms
