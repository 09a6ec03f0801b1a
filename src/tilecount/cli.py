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
One table, ``_COMMANDS``, holds the grammar. A matcher reads a well-formed
argv by it, so a command's start-up loads no ``argparse``. Every other argv
(help, a usage error, an abbreviated, repeated or ``--opt=value`` option,
``--``, a signed or non-ASCII integer) goes to the ``argparse`` parser built
from the same table, whose help, usage and error texts are its own.
"""
from __future__ import annotations

import functools
import os
import sys
import types

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


# The CLI's grammar, read by the matcher and by argparse alike: command -> (function,
# help, arguments), each argument its add_argument names and keywords. An option
# names its dest; a flag is store_true with the default False.
_JSON = (("--json",), {"dest": "json", "action": "store_true", "default": False})
_COMMANDS = {
    "count": (
        cmd_count,
        "count tilings of a region or prism",
        [
            (("spec",), {"help": "region spec, e.g. rect:3,4 a:2 l3:2,2 tower:5 box:2,3,10 @file"}),
            _JSON,
        ],
    ),
    "seq": (
        cmd_seq,
        "print a sequence family over an index range",
        [
            (("family",), {"help": "family token: F A B C T M L3 L2D"}),
            (("start",), {"type": int}),
            (("end",), {"type": int}),
            (
                ("--method",),
                {
                    "dest": "method",
                    "choices": ("iter", "matpow", "closed"),
                    "default": "iter",
                    "help": "iter (default): jump to the first terms of the range, then one "
                    "forward pass; matpow: Fiduccia's jump to each term; closed: the closed "
                    "form at each term",
                },
            ),
            _JSON,
        ],
    ),
    "verify": (
        cmd_verify,
        "run a verification suite",
        [
            (("suite",), {"choices": _SUITE_NAMES + ("all",)}),
            (
                ("--max", "--max-n"),
                {"dest": "max_n", "type": int, "help": "largest n (the n arm for thm21, tauraso)"},
            ),
            (
                ("--max-k",),
                {"dest": "max_k", "type": int, "help": "largest k arm (thm21, tauraso)"},
            ),
            _JSON,
        ],
    ),
    "render": (
        cmd_render,
        "draw tilings of a small 2D region",
        [(("spec",), {}), (("--limit",), {"dest": "limit", "type": int, "default": 10})],
    ),
    "bfile": (
        cmd_bfile,
        "emit OEIS-style 'n a(n)' lines",
        [(("family",), {}), (("--to",), {"dest": "to", "type": int, "required": True})],
    ),
}


def _value(token, keywords):
    """``token`` read as its argument's type; None if it is missing or starts with
    ``-``, if an int is not plain ASCII digits or is past the int -> str digit
    limit, or if it is not one of the argument's choices."""
    if token is None or token.startswith("-"):
        return None
    if keywords.get("type") is int:
        if not (token.isascii() and token.isdigit()):
            return None
        try:
            token = int(token)
        except ValueError:  # past the digit limit: argparse's own error
            return None
    choices = keywords.get("choices")
    return None if choices is not None and token not in choices else token


def _match(argv):
    """The namespace argparse makes of a well-formed ``argv`` in its plainest form:
    a command, its positionals in any order among its options, each option at
    most once and spelled in full, with its value as the next token. Anything
    else is None, for argparse to parse: help, ``--``, a prefix, ``--opt=value``,
    a repeat, a sign, a bad value or a usage error."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    func, _, arguments = command
    options = {name: kw for names, kw in arguments for name in names if name.startswith("-")}
    values = {"command": argv[0], "func": func}
    words = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        keywords = options.get(token)
        if keywords is None or keywords["dest"] in values:
            return None
        flag = keywords.get("action") == "store_true"
        value = values[keywords["dest"]] = True if flag else _value(next(tokens, None), keywords)
        if value is None:
            return None
    positionals = [(names[0], kw) for names, kw in arguments if "dest" not in kw]
    if len(words) != len(positionals):
        return None
    for word, (name, keywords) in zip(words, positionals):
        value = values[name] = _value(word, keywords)
        if value is None:
            return None
    for keywords in options.values():
        if keywords["dest"] not in values:
            if keywords.get("required"):
                return None
            values[keywords["dest"]] = keywords.get("default")
    return types.SimpleNamespace(**values)


@functools.cache
def _argparse_parser():
    """The argparse parser of ``_COMMANDS``, built on the first argv the matcher
    leaves to it, so that every help, usage and error text is argparse's own."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tilecount",
        description="Exact domino and brick tiling counts for grid regions and prisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for names, keywords in arguments:
            command.add_argument(*names, **keywords)
        command.set_defaults(func=func)
    return parser


class _Parser:
    """``main``'s parser: the matcher's namespace for a well-formed argv, else
    argparse's parse of it."""

    def parse_args(self, argv=None):
        if argv is None:
            argv = sys.argv[1:]
        args = _match(argv)
        return _argparse_parser().parse_args(argv) if args is None else args


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process; ``main`` reuses it. Building it
    and parsing a well-formed argv load no ``argparse``."""
    return _Parser()


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
