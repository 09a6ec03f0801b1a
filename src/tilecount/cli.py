"""Command-line interface: counting, sequence tables, verification, rendering.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Every command raises ValueError or OSError for a usage or input error;
``main`` alone reports it as ``error: <message>`` on stderr and exits 2.
``count`` and ``render`` parse a region spec once, by one token table, and
refuse a 2D region from its cell count before a cell is built; ``render``
refuses a prism before its builder runs.
``seq`` and ``bfile`` only print: ``Family.terms`` checks each range, refuses
one over budget and computes its terms, here in exact Decimals.
A command imports what it runs when it runs. Start-up loads ``budget``,
``regions2d`` and ``sequences``. ``count`` and ``render`` load ``count2d``, and
a prism spec ``solid3d``; ``verify`` loads ``identities``; ``seq`` and
``bfile`` load ``decimal``. The others load ``decimal`` only to print a
refusal, or to print or read an integer past the int -> str digit limit.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from . import budget, regions2d, sequences

# identities.SUITES's names, so that building the parser loads no suite
_SUITE_NAMES = ("table1", "table2", "thm21", "crux", "thm32", "tauraso", "recurrences")


def _json_line(record: dict) -> str:
    import json  # only --json output needs it, so a plain count never loads it

    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# token -> (module, builder, number of integers, cells, size). The module is named,
# so that only a prism spec loads solid3d, and the builder is looked up on it at each
# call, so a wrapper installed there sees every build.
# cells(*integers) is a 2D region's cell count, None for a prism. The size of rect:
# and a: checks their integers as their builders do and gives count_rectangle's.
_TOKENS = {
    "rect": ("regions2d", "rect", 2, lambda r, c: r * c, regions2d.rect_size),
    "a": ("regions2d", "a_grid", 1, lambda n: 6 * n, regions2d.a_grid_size),
    "b": ("regions2d", "b_grid", 1, lambda n: 6 * n + 2, None),
    "c": ("regions2d", "c_grid", 1, lambda n: 6 * n + 4, None),
    "l2": ("regions2d", "l2_region", 2, lambda n, k: 2 * n + 2 * k, None),
    "l3": ("regions2d", "l3_region", 2, lambda n, k: 6 * n + 6 * k, None),  # and an orientation
    "tower": ("solid3d", "tower", 1, None, None),
    "mtower": ("solid3d", "m_tower", 1, None, None),
    "box": ("solid3d", "box", 3, None, None),
}


def _integer(text: str) -> int:
    """``int(text)``, also for an integer of more than 4,300 digits.

    ``int`` refuses those under the int -> str digit limit, which is left as
    it is; Decimal reads them exactly once they are checked to be an optional
    sign and decimal digits.
    """
    try:
        return int(text)
    except ValueError:
        text = text.strip()
        if not (text[1:] if text[:1] in ("+", "-") else text).isdecimal():
            raise
        from decimal import Decimal

        return int(Decimal(text))


def _parse_spec(spec: str) -> tuple:
    """Parse ``spec`` once into (build, cells, rectangle): ``build()`` makes its
    region or prism; ``cells`` is a 2D region's cell count before it is built,
    the ``#`` marks of an ``@file`` picture, None for a prism and 0 if an integer
    is below 1, so that its builder gives its own message; ``rectangle`` is the
    (rows, cols) of ``rect:`` and ``a:``, else None.
    """
    if spec.startswith("@"):
        with open(spec[1:]) as picture:
            text = picture.read()
        return functools.partial(regions2d.from_ascii, text), text.count("#"), None
    token, sep, argtext = spec.partition(":")
    if not sep:
        raise ValueError(f"malformed region spec {spec!r}; expected token:args")
    if token not in _TOKENS:
        raise ValueError(f"unknown region token {token!r}; known: {' '.join(_TOKENS)}")
    module, builder, count, cells, size = _TOKENS[token]
    args = argtext.split(",") if argtext else []
    orientation = [args.pop().upper()] if token == "l3" and len(args) == 3 else []
    if len(args) != count:
        raise ValueError(f"spec {token!r} takes {count} argument(s), got {len(args)}")
    try:
        integers = [_integer(a) for a in args]
    except ValueError:
        raise ValueError(f"non-integer argument in spec {spec!r}") from None
    module = getattr(__import__(f"{__package__}.{module}"), module)  # by full name, as in cmd_count
    build = functools.partial(getattr(module, builder), *integers, *orientation)
    rectangle = size and size(*integers)
    if cells is None:
        return build, None, None
    return build, cells(*integers) if min(integers) >= 1 else 0, rectangle


def cmd_count(args) -> int:
    # Importing a loaded module by its full name runs no Python code; a relative
    # import runs some of importlib's on every call, a few us a count.
    import tilecount.count2d as count2d

    build, cells, rectangle = _parse_spec(args.spec)
    if rectangle:  # counted, and refused, from its size alone: no cell is built
        count = count2d.count_rectangle(*rectangle)
    elif cells is None:
        import tilecount.solid3d as solid3d

        prism = build()
        count, cells = solid3d.count_bricks(prism), prism.cell_count
    else:  # the determinant's estimate is at least this bound on its cells
        budget.determinant(cells, cells)
        region = build()
        count, cells = count2d.count_tilings(region), region.cell_count
    text = sequences.decimal_str(count)
    if args.json:
        print(_json_line({"spec": args.spec, "cells": cells, "count": text}))
    else:
        print(text)
    return 0


def _family(name: str) -> sequences.Family:
    """Catalog family ``name``; ValueError naming the known families."""
    fams = sequences.catalog()
    family = fams.get(name)
    if family is None:
        raise ValueError(f"unknown family {name!r}; known: {' '.join(fams)}")
    return family


def cmd_seq(args) -> int:
    from decimal import Decimal

    family = _family(args.family)
    values = family.terms(args.start, args.end, args.method, Decimal(1))
    write = sys.stdout.write
    for n, value in enumerate(map(str, values), args.start):
        if args.json:
            write(_json_line({"family": family.name, "n": n, "value": value}) + "\n")
        else:
            write(f"{n}\t{value}\n")
    return 0


def cmd_verify(args) -> int:
    import tilecount.identities as identities

    bounds = {k: v for k, v in (("max_n", args.max_n), ("max_k", args.max_k)) if v is not None}
    if args.suite == "all":
        if bounds:
            raise ValueError("'verify all' runs fixed default bounds")
        report = identities.verify_all()
    else:
        for name in bounds:
            if name not in identities.BOUNDS[args.suite]:
                raise ValueError(f"suite {args.suite} takes no {name} bound")
        report = identities.SUITES[args.suite](**bounds)
    if not report.checks:
        raise ValueError(f"suite {args.suite} has no checks within these bounds")
    if args.json:
        print(report.json_lines())
        failed = len(report.failures)
        print(_json_line({"suite": args.suite, "checks": len(report.checks), "failed": failed}))
    else:
        print(report.to_text())
    return 0 if report.all_passed else 1


def cmd_render(args) -> int:
    import tilecount.count2d as count2d

    build, cells, _ = _parse_spec(args.spec)
    if cells is None:  # a prism, refused before its builder runs
        raise ValueError("render supports 2D regions only")
    budget.search(cells, budget.MAX_ORACLE_CELLS, "enumeration")  # before a cell is built
    for i, tiling in enumerate(count2d.enumerate_tilings(build(), args.limit)):
        if i:
            print()
        print(count2d.render_tiling_ascii(tiling))
    return 0


def cmd_bfile(args) -> int:
    from decimal import Decimal

    family = _family(args.family)
    if args.to < family.start:
        raise ValueError(f"family {family.name} starts at index {family.start}")
    values = family.terms(family.start, args.to, "iter", Decimal(1))
    write = sys.stdout.write
    for n, value in enumerate(map(str, values), family.start):
        write(f"{n} {value}\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; ``main`` reuses it."""
    parser = argparse.ArgumentParser(
        prog="tilecount",
        description="Exact domino and brick tiling counts for grid regions and prisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count tilings of a region or prism")
    p_count.add_argument(
        "spec", help="region spec, e.g. rect:3,4 a:2 l3:2,2 tower:5 box:2,3,10 @file"
    )
    p_count.add_argument("--json", action="store_true")
    p_count.set_defaults(func=cmd_count)

    p_seq = sub.add_parser("seq", help="print a sequence family over an index range")
    p_seq.add_argument("family", help="family token: F A B C T M L3 L2D")
    p_seq.add_argument("start", type=int)
    p_seq.add_argument("end", type=int)
    p_seq.add_argument(
        "--method",
        choices=("iter", "matpow", "closed"),
        default="iter",
        help="iter (default): jump to the first terms of the range, then one forward pass; "
        "matpow: Fiduccia's jump to each term; closed: the closed form at each term",
    )
    p_seq.add_argument("--json", action="store_true")
    p_seq.set_defaults(func=cmd_seq)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=_SUITE_NAMES + ("all",))
    p_verify.add_argument(
        "--max", "--max-n", type=int, dest="max_n", help="largest n (the n arm for thm21, tauraso)"
    )
    p_verify.add_argument("--max-k", type=int, dest="max_k", help="largest k arm (thm21, tauraso)")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_render = sub.add_parser("render", help="draw tilings of a small 2D region")
    p_render.add_argument("spec")
    p_render.add_argument("--limit", type=int, default=10)
    p_render.set_defaults(func=cmd_render)

    p_bfile = sub.add_parser("bfile", help="emit OEIS-style 'n a(n)' lines")
    p_bfile.add_argument("family")
    p_bfile.add_argument("--to", type=int, required=True)
    p_bfile.set_defaults(func=cmd_bfile)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (e.g. `| head`) closed the pipe; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        # BrokenPipeError is an OSError, so it must be caught first
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
