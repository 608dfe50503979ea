"""Command line frontend.

Subcommands cover the algebraic tables (trees, coproduct), method
analysis (compose, substitute, modified, order, geometric, series), and
the numerical side (integrate, converge). Output is plain text, TSV, or
CSV, with every listing in a canonical sort so runs are byte-stable.

Exit codes: 0 on success, 1 on usage or parse errors, 2 on domain
errors (unknown names, unsupported combinations, capacity limits). A
negative order (``-N``, ``--table``) is a usage error, refused before
any output.

``main`` parses with one parser per process, built on its first call:
the parser keeps no state between calls, since every default is
immutable and argparse makes a new help formatter each time it formats
help.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import re
import sys
from fractions import Fraction

from .algebra import render_sum
from .errors import CapacityError, DomainError, ParseError
from .forest_core import (
    _check_capacity,
    enumerate_forests,
    enumerate_trees,
    parse_forest,
    parse_tree,
    tree_stats,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage errors are 1 here
        raise _UsageError(message)


def _numbers(text: str) -> list[float]:
    """argparse type for a comma-separated list of numbers."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _whole_number(text: str) -> int:
    """argparse type for a truncation order: a whole number >= 0."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a whole number >= 0, got {text!r}")


def _tensor_key(t):
    return (-t.left.order, t.left.serial, t.right.serial)


def _parse_bell_word(text: str):
    from .lbseries import BellWord

    text = text.strip()
    if text == "1":
        return BellWord(())
    letters = []
    for pos, chunk in enumerate(text.split(".")):
        if not chunk.startswith("d") or not chunk[1:].isdigit() or int(chunk[1:]) < 1:
            raise ParseError(f"bad Bell letter {chunk!r}", text, pos)
        letters.append(int(chunk[1:]))
    return BellWord(letters)


# algebra: (parser, module, coproduct), the module imported when the
# coproduct is used, so each subcommand loads only the layer it runs
_COPRODUCTS = {
    "bck": (lambda text: parse_forest(text), "bseries_hopf", "delta_bck"),
    "cefm": (lambda text: parse_tree(text), "bseries_hopf", "delta_cefm"),
    "mkw": (lambda text: parse_forest(text, planar=True), "lbseries", "delta_mkw"),
    "fdb": (_parse_bell_word, "lbseries", "fdb_coproduct"),
}


def cmd_trees(args) -> int:
    for n in range(1, args.N + 1):
        if args.forests:
            for forest in enumerate_forests(n, planar=args.planar):
                print(f"{forest.serial}\t{forest.order}")
        elif args.planar:
            for tree in enumerate_trees(n, planar=True):
                print(f"{tree.serial}\t{tree.order}")
        else:
            for tree in enumerate_trees(n):
                order, sigma, factorial = tree_stats(tree)
                print(f"{tree.serial}\t{order}\t{sigma}\t{factorial}")
    return 0


def cmd_coproduct(args) -> int:
    parse, layer, name = _COPRODUCTS[args.algebra]
    module = importlib.import_module(f".{layer}", __package__)
    delta = getattr(module, name)
    key = _tensor_key if args.algebra != "fdb" else lambda t: (t.left.serial, t.right.serial)
    if args.table is not None:
        if args.algebra == "fdb":
            basis = [
                w
                for n in range(args.table + 1)
                for w in sorted(module._fdb_words(n), key=lambda word: word.serial)
            ]
        elif args.algebra == "bck":
            basis = [f for n in range(1, args.table + 1) for f in enumerate_forests(n)]
        elif args.algebra == "mkw":
            basis = [
                w for n in range(1, args.table + 1) for w in enumerate_forests(n, planar=True)
            ]
        else:
            basis = [t for n in range(1, args.table + 1) for t in enumerate_trees(n)]
        for x in basis:
            print(f"{x.serial}\t{render_sum(delta(x), sort_key=key)}")
        return 0
    if args.element is None:
        raise _UsageError("coproduct needs an element or --table N")
    x = parse(args.element)
    print(render_sum(delta(x), sort_key=key))
    return 0


def _load_character(args, N: int, name_attr: str = "builtin", file_attr: str = "tableau"):
    from .bseries_hopf import builtin_tableau, read_tableau, rk_character

    path = getattr(args, file_attr, None)
    if path:
        return rk_character(read_tableau(path), N)
    name = getattr(args, name_attr, None)
    if name is None:
        raise _UsageError(f"missing --{name_attr.replace('_', '-')} (or a tableau file)")
    return rk_character(builtin_tableau(name), N)


def _print_tree_table(alpha, N: int) -> None:
    unit = alpha.unit_value()
    if unit:
        print(f"1\t{unit}")
    for n in range(1, N + 1):
        for tree in enumerate_trees(n):
            value = alpha.tree_value(tree)
            if value:
                print(f"{tree.serial}\t{value}")


def cmd_compose(args) -> int:
    from .bseries_hopf import convolve_bck

    first = _load_character(args, args.N, "first", "tableau_first")
    second = _load_character(args, args.N, "second", "tableau_second")
    _print_tree_table(convolve_bck(first, second, args.N), args.N)
    return 0


def cmd_substitute(args) -> int:
    from .bseries_hopf import (
        builtin_tableau,
        exact_gamma,
        rk_character,
        solve_modified,
        substitute_b,
    )

    alpha = _load_character(args, args.N)
    beta = solve_modified(alpha, args.mode, args.N)
    if args.into == "exact":
        gamma = exact_gamma(args.N)
    else:
        gamma = rk_character(builtin_tableau(args.into), args.N)
    _print_tree_table(substitute_b(beta, gamma, args.N), args.N)
    return 0


def cmd_modified(args) -> int:
    from .bseries_hopf import solve_modified

    alpha = _load_character(args, args.N)
    _print_tree_table(solve_modified(alpha, args.mode, args.N), args.N)
    return 0


def cmd_order(args) -> int:
    from .bseries_hopf import order_report

    alpha = _load_character(args, args.N)
    order, witness = order_report(alpha, args.N)
    print(f"order: {order}")
    if witness is None:
        print(f"no violations through order {args.N}")
    else:
        got = alpha.tree_value(witness)
        want = Fraction(1, tree_stats(witness)[2])
        print(f"first violation: {witness.serial} (weight {got}, exact flow {want})")
    return 0


def cmd_geometric(args) -> int:
    from .bseries_hopf import check_geometric, solve_modified

    kind = {"symplectic": "symplectic_method", "hamiltonian": "hamiltonian_field"}[args.kind]
    alpha = _load_character(args, args.N)
    if args.kind == "hamiltonian":
        alpha = solve_modified(alpha, "backward_error", args.N)
    violations = check_geometric(alpha, kind, args.N)
    if not violations:
        print("OK")
        return 0
    for t1, t2 in violations:
        print(f"violation: {t1.serial} | {t2.serial}")
    return 0


def cmd_series(args) -> int:
    from .lbseries import method_series

    series = method_series(args.method, args.rep, args.N)
    for n in range(0, args.N + 1):
        for word in enumerate_forests(n, planar=True):
            value = series(word)
            if value:
                print(f"{word.serial}\t{value}")
    return 0


def cmd_integrate(args) -> int:
    from ._cli_run import integrate_command

    return integrate_command(args)


def cmd_converge(args) -> int:
    from ._cli_run import converge_command

    return converge_command(args)


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="bflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("trees", help="list trees or forests with their statistics")
    p.add_argument("-N", type=_whole_number, required=True, help="maximum order")
    p.add_argument("--planar", action="store_true")
    p.add_argument("--forests", action="store_true")
    p.set_defaults(fn=cmd_trees)

    p = sub.add_parser("coproduct", help="print a coproduct, or a table of them")
    p.add_argument("algebra", choices=sorted(_COPRODUCTS))
    p.add_argument("element", nargs="?", help="serialized element")
    p.add_argument("--table", type=_whole_number, metavar="N", help="all basis elements up to N")
    p.set_defaults(fn=cmd_coproduct)

    def add_character_options(p):
        p.add_argument("--builtin", help="builtin tableau name")
        p.add_argument("--tableau", help="tableau file", metavar="FILE")
        p.add_argument("-N", type=_whole_number, required=True)

    p = sub.add_parser("compose", help="coefficients of one method after another")
    p.add_argument("--first", help="builtin name of the first step")
    p.add_argument("--second", help="builtin name of the second step")
    p.add_argument("--tableau-first", dest="tableau_first", metavar="FILE")
    p.add_argument("--tableau-second", dest="tableau_second", metavar="FILE")
    p.add_argument("-N", type=_whole_number, required=True)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("substitute", help="substitute a solved modified field into a series")
    add_character_options(p)
    p.add_argument("--mode", choices=["backward_error", "modifying_integrator"], required=True)
    p.add_argument("--into", default="exact", help="exact or a builtin name")
    p.set_defaults(fn=cmd_substitute)

    p = sub.add_parser("modified", help="modified-equation coefficients of a method")
    add_character_options(p)
    p.add_argument("--mode", choices=["backward_error", "modifying_integrator"], required=True)
    p.set_defaults(fn=cmd_modified)

    p = sub.add_parser("order", help="classical order of a method with first violation")
    add_character_options(p)
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("geometric", help="check a tree-pair geometric condition")
    add_character_options(p)
    p.add_argument("--kind", choices=["symplectic", "hamiltonian"], required=True)
    p.set_defaults(fn=cmd_geometric)

    p = sub.add_parser("series", help="word coefficients of a Lie-Butcher method")
    p.add_argument("--method", required=True)
    p.add_argument("--rep", choices=["type1", "type3"], required=True)
    p.add_argument("-N", type=_whole_number, required=True)
    p.set_defaults(fn=cmd_series)

    def add_run_options(p):
        p.add_argument("--method", required=True)
        p.add_argument(
            "--action",
            choices=["rotation", "isospectral", "translation", "affine"],
            required=True,
        )
        p.add_argument("--f", help="named field or comma-separated components")
        p.add_argument("--y0", type=_numbers, help="comma-separated initial state")
        p.add_argument("--tableau", metavar="FILE")
        p.add_argument("-m", type=int, help="dexpinv truncation for rkmk")
        p.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")

    p = sub.add_parser("integrate", help="run a trajectory, CSV per step")
    add_run_options(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--check-invariant", dest="check_invariant", choices=["norm", "spectrum"])
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("converge", help="measure a convergence slope, CSV per step size")
    add_run_options(p)
    p.add_argument("--h", type=_numbers, required=True, help="comma-separated step sizes")
    p.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    p.set_defaults(fn=cmd_converge)

    return parser


def _attach_signed_y0(argv: list[str]) -> list[str]:
    """Rewrite "--y0 -0.6,0.8,0" as "--y0=-0.6,0.8,0": argparse takes a
    separate value that starts with "-" for an option unless it is a
    single number."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--y0" and re.match(r"-\.?\d", arg):
            out[-1] = f"--y0={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_signed_y0(sys.argv[1:] if argv is None else argv))
        # fail before any output when a truncation order exceeds the cap
        for attr in ("N", "table"):
            value = getattr(args, attr, None)
            if value is not None:
                _check_capacity(value)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
