"""The benchmark's four workloads: which jobs one pass runs and how each is checked.

A job is one thing a user asks tilecount for: a CLI invocation, or one
library call where the CLI has no token for the input. The seed picks only
orientations, mirror images, small index offsets and the order of jobs in a
pass; it never changes a workload's size class.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("count-wide", "count-sparse", "seq-big", "verify-all")

# Workloads that spend a large share of their time (about 40% in seq-big)
# converting huge integers to decimal; their reference kernel includes an
# int -> str part (see run.reference_kernel).
DECIMAL_HEAVY = frozenset({"seq-big"})


@dataclass(frozen=True)
class Job:
    """One job and the way its output is judged.

    ``argv`` is passed to ``tilecount.cli.main``; a job without ``argv`` is
    the library call ``solid3d.count_bricks`` on the ``box`` rows x cols x
    layers. ``check`` names the comparison in ``run.check_output``;
    ``witness`` is resolved by ``witness.py`` into the expected text.
    """

    label: str
    check: str
    argv: tuple[str, ...] | None = None
    witness: tuple = ()
    box: tuple[int, int, int] | None = None
    lines: int = 0
    checks: int = 0


def aztec_ascii(n: int) -> str:
    """The Aztec diamond of order n as a '#'/'.' picture."""
    rows = []
    for r in range(2 * n):
        half = r + 1 if r < n else 2 * n - r
        rows.append("." * (n - half) + "#" * (2 * half) + "." * (n - half))
    return "\n".join(rows) + "\n"


def _count(spec: str, witness: tuple) -> Job:
    return Job(f"count {spec}", "stdout", ("count", spec), witness)


def _count_wide(rng: random.Random, workdir: Path, tiny: bool) -> list[Job]:
    # The narrow dimension is 12-20 and the profile state sets are dense, so
    # the 2D kernel dominates. Squares and Aztec diamonds are their own
    # symmetric images; only the 12 x 22 rectangle has a distinct one.
    rects = [(4, 4), (6, 6), (4, 6)] if tiny else [(14, 14), (16, 16), (12, 22)]
    orders = [2, 3] if tiny else [9, 10]
    jobs = []
    for rows, cols in rects:
        if rng.random() < 0.5:
            rows, cols = cols, rows
        jobs.append(_count(f"rect:{rows},{cols}", ("rect", rows, cols)))
    for n in orders:
        path = workdir / f"aztec-{n}.txt"
        path.write_text(aztec_ascii(n))
        jobs.append(Job(f"count @{path.name}", "stdout", ("count", f"@{path}"), ("aztec", n)))
    return jobs


def _count_sparse(rng: random.Random, workdir: Path, tiny: bool) -> list[Job]:
    # Wide bounding boxes but arms only 3 cells thick, so few DP states are
    # live; plus the only real 3D work. The seed picks the mirror image (SW
    # or SE, same bounding box, same cost) of the first angle only: the SE
    # image of l3:9,11 holds 12% more DP states at peak than SW, which would
    # make peak memory depend on the seed, and its NW/NE images have a
    # narrow side of 18 instead of 21 and run six times faster.
    (n1, k1), (n2, k2) = [(3, 3), (2, 4)] if tiny else [(10, 10), (9, 11)]
    layers = 40 if tiny else 4000
    box_layers = 10 if tiny else 300
    orientation = rng.choice(("SW", "SE"))
    rows, cols = (2, 4) if rng.random() < 0.5 else (4, 2)
    return [
        _count(f"l3:{n1},{k1},{orientation}", ("l3", n1, k1)),
        _count(f"l3:{n2},{k2},SW", ("l3", n2, k2)),
        _count(f"tower:{layers}", ("family", "T", layers)),
        _count(f"mtower:{layers}", ("family", "M", layers)),
        Job(
            f"solid3d.count_bricks {rows}x{cols}x{box_layers}",
            "value",
            witness=("box", cols, rows, box_layers),
            box=(rows, cols, box_layers),
        ),
    ]


def _seq_big(rng: random.Random, workdir: Path, tiny: bool) -> list[Job]:
    # Index offsets stay below 1% so the digit counts, and the cost of
    # binary powering, stay in one size class.
    t = (2000 if tiny else 250000) + rng.randrange(20 if tiny else 2500)
    l3 = (1000 if tiny else 100000) + rng.randrange(10 if tiny else 1000)
    a = (50 if tiny else 1000) + rng.randrange(10)
    b = (100 if tiny else 4000) + rng.randrange(40)
    return [
        Job(
            f"seq T {t} {t} --method matpow",
            "stdout",
            ("seq", "T", str(t), str(t), "--method", "matpow"),
            ("evals", "T", t, t, "closed"),
        ),
        Job(
            f"seq L3 {l3} {l3} --method closed",
            "stdout",
            ("seq", "L3", str(l3), str(l3), "--method", "closed"),
            ("evals", "L3", l3, l3, "matpow"),
        ),
        Job(f"seq A 1 {a}", "stdout", ("seq", "A", "1", str(a)), ("evals", "A", 1, a, "matpow")),
        # L3 starts at index 1, so the b-file has b lines
        Job(
            f"bfile L3 --to {b}",
            "last_line",
            ("bfile", "L3", "--to", str(b)),
            ("bfile", "L3", b),
            lines=b,
        ),
    ]


def _verify_all(rng: random.Random, workdir: Path, tiny: bool) -> list[Job]:
    # `verify all` runs fixed bounds, so the seed only orders the two jobs.
    argv, checks = (("verify", "table1", "--max", "3"), 36) if tiny else (("verify", "all"), 3738)
    return [
        Job(" ".join(argv), "verify_text", argv, checks=checks),
        Job(" ".join(argv) + " --json", "verify_json", argv + ("--json",), checks=checks),
    ]


_BUILDERS = {
    "count-wide": _count_wide,
    "count-sparse": _count_sparse,
    "seq-big": _seq_big,
    "verify-all": _verify_all,
}


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    """The jobs of one pass of ``workload``, in the order the seed gives them.

    ``tiny`` keeps every job and check but shrinks the inputs, for the smoke
    test. Region files are written into ``workdir``.
    """
    rng = random.Random(f"{workload}/{seed}")
    jobs = _BUILDERS[workload](rng, workdir, tiny)
    rng.shuffle(jobs)
    return jobs
