"""Expected outputs of the benchmark's jobs, each by a route other than the job's own.

Run as ``python3 witness.py <src-dir>`` with a JSON list of witness specs
on stdin; prints a JSON list with the expected text of each (null where the
witness raised). It runs in its own process, before any timing, so neither
its time nor its memory (mpmath, big Fractions) lands in the workload's
figures.

Specs:
  ["rect", R, C]          Kasteleyn-Temperley-Fisher product for the R x C rectangle
  ["aztec", n]            2^(n(n+1)/2) for the Aztec diamond of order n
  ["l3", n, k]            sequences.l3(n, k), the A/B/C product decomposition
  ["family", F, n]        a(n) of catalog family F by one forward pass (rec_values)
  ["box", R, C, L]        count_bricks of the R x C x L box (the job's cross-section transposed)
  ["evals", F, lo, hi, m] `seq` output for lo..hi, computed by method m
  ["bfile", F, n]         the last b-file line "n a(n)", a(n) by matpow
"""
from __future__ import annotations

import json
import sys
import traceback


def ktf_rectangle(rows: int, cols: int) -> int:
    """Domino tilings of a rows x cols rectangle (rows * cols even) from the
    product of 4cos^2(pi j/(rows+1)) + 4cos^2(pi k/(cols+1)), evaluated at more
    than twice the result's digits and rounded."""
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
        if abs(exact - nearest) > mpmath.mpf("0.01"):
            raise ArithmeticError(f"KTF product for {rows}x{cols} is not near an integer")
        return int(nearest)


def expected(spec: list) -> str:
    from tilecount import sequences, solid3d

    kind, *args = spec
    fams = sequences.catalog()
    if kind == "rect":
        return f"{ktf_rectangle(*args)}\n"
    if kind == "aztec":
        (n,) = args
        return f"{2 ** (n * (n + 1) // 2)}\n"
    if kind == "l3":
        return f"{sequences.l3(*args)}\n"
    if kind == "family":
        name, n = args
        return f"{sequences.rec_values(fams[name].recurrence, n, n)[0]}\n"
    if kind == "box":
        rows, cols, layers = args
        cross = {(r, c) for r in range(rows) for c in range(cols)}
        return str(solid3d.count_bricks(solid3d.Prism3D(cross, layers)))
    if kind == "evals":
        name, lo, hi, method = args
        return "".join(f"{n}\t{fams[name].eval(n, method)}\n" for n in range(lo, hi + 1))
    if kind == "bfile":
        name, n = args
        return f"{n} {fams[name].eval(n, 'matpow')}"
    raise ValueError(f"unknown witness {spec!r}")


def expected_or_none(spec: list) -> str | None:
    """The expected text, or None (every output then fails) if the witness
    itself raises."""
    try:
        return expected(spec)
    except Exception:  # reported, and the job is counted as failed
        traceback.print_exc()
        return None


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    sys.set_int_max_str_digits(0)
    json.dump([expected_or_none(spec) for spec in json.load(sys.stdin)], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
