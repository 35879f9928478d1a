"""Command-line front end.

Subcommands mirror the library layers: `kummer`, `og6`, and `rank4` emit
theta reports; `lattice` answers pairing/divisibility/orbit questions about
the built-in lattices; `pairing` analyzes a pairing loaded from a JSON file;
`heisenberg` and `schrodinger` expose the group computations; `sweep` runs
the property battery (one sweep with --only), reporting counts and seconds.
The parser is built once per process.  A well-formed request (exact option
names, once each, no `--name value` whose value starts with a dash) is read
straight off its subcommand parser's own actions; any other argv is parsed
once, by its subcommand's parser, which gives every usage error and help text.

Every subcommand accepts --json for machine-readable output (absent optional
fields are omitted, never null).  Exit codes: 0 success, 1 domain error
(single-line diagnostic on stderr), 2 usage error, 3 internal check failure
(an `AssertionError` from a cross-check, reported as the single line
`internal check failed: <msg>` on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .finabgrp import (
    QmodZ,
    _order_literal,
    _reduced,
    brute_cokernel,
    is_nondegenerate,
    pairing_cokernel,
    pairing_from_dict,
    pairing_radical,
)
from .heisenberg import h_commutator, heis_elem, schrodinger_matrix
from .invariants import (
    Family,
    LineBundleInvariants,
    kum_class_invariants,
    kum_cokernel_from_class,
    report_to_dict,
    theta_report,
)
from .lattices import (
    _OG6,
    GramLattice,
    _kum_lattice,
    bbf_square,
    divisibility,
    kum_orbit_split,
    og6_class,
)
from .sweeps import SWEEPS, SweepResult, run_all

__all__ = ["main"]


def _parse_lattice(name: str) -> tuple[GramLattice, int | None]:
    if name == "og6":
        return _OG6, None
    if name.startswith("kum:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad lattice name {name!r}") from exc
        return _kum_lattice(n), n
    raise ValueError(f"unknown lattice {name!r}; use kum:<n> or og6")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad {what} {text!r}: expected comma-separated integers") from exc


def _parse_heis_elem(d_text: str, elem_text: str):
    d = _parse_ints(d_text, "type d")
    parts = elem_text.split(";")
    if len(parts) != 3:
        raise ValueError(f"bad element {elem_text!r}: expected 't;(x1,..);(f1,..)'")
    scalar_text, x_text, f_text = (p.strip() for p in parts)
    try:
        scalar = QmodZ.parse(scalar_text)
    except ValueError as exc:
        raise ValueError(f"bad scalar {scalar_text!r}") from exc
    coords = []
    for part in (x_text, f_text):
        if not (part.startswith("(") and part.endswith(")")):
            raise ValueError(f"bad component {part!r}: expected '(c1,..,cg)'")
        coords.append(_parse_ints(part[1:-1], "component"))
    if any(len(c) != len(d) for c in coords):
        raise ValueError("component length must match the type d")
    return heis_elem(d, scalar, coords[0], coords[1])


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _report_lines(record: dict) -> list[str]:
    lines = []
    for key, value in record.items():
        if isinstance(value, bool):
            value = _bool_text(value)
        elif isinstance(value, list):
            value = "[" + ", ".join(str(v) for v in value) + "]"
        lines.append(f"{key}: {value}")
    return lines


def _theta_record(inv: LineBundleInvariants) -> tuple[dict, list[str]]:
    record = report_to_dict(theta_report(inv))
    return record, _report_lines(record)


def _cmd_kummer(args) -> tuple[dict, list[str]]:
    q_route = args.div is not None or args.q is not None
    class_route = args.a1 is not None or args.a2 is not None or args.x is not None
    if q_route == class_route:
        raise _Usage("provide either --div and --q, or --a1, --a2 and --x")
    if q_route:
        if args.div is None or args.q is None:
            raise _Usage("the (div, q) route needs both --div and --q")
        return _theta_record(
            LineBundleInvariants(family=Family.KUM, div=args.div, q=args.q, n=args.n))
    if args.a1 is None or args.a2 is None or args.x is None:
        raise _Usage("the class route needs --a1, --a2 and --x")
    # the one comparison of the class formula with the (div, q) route
    from_class = list(kum_cokernel_from_class(args.n, args.a1, args.a2, args.x).invariant_factors)
    base = report_to_dict(theta_report(kum_class_invariants(args.n, args.a1, args.a2, args.x)))
    if base["cokernel"] != from_class:
        raise AssertionError(
            f"class route and (div, q) route disagree: {from_class} vs {base['cokernel']}")
    record = {"family": base["family"], "n": args.n, "a1": args.a1, "a2": args.a2,
              "x": args.x, "b1": math.gcd(args.n + 1, args.a1),
              "b2": math.gcd(args.n + 1, args.a2)}
    record.update((k, v) for k, v in base.items() if k not in ("family", "n"))
    return record, _report_lines(record)


def _cmd_og6(args) -> tuple[dict, list[str]]:
    return _theta_record(LineBundleInvariants(family=Family.OG6, div=args.div, q=args.q))


def _cmd_rank4(args) -> tuple[dict, list[str]]:
    return _theta_record(LineBundleInvariants(family=Family.RANK4, div=2, q=args.e))


def _cmd_lattice(args) -> tuple[dict, list[str]]:
    lat, n = _parse_lattice(args.lattice)
    vec = _parse_ints(args.vector, "vector")
    if args.question == "div":
        value = divisibility(lat, vec)
        return {"div": value}, [str(value)]
    if args.question == "q":
        value = bbf_square(lat, vec)
        return {"q": value}, [str(value)]
    if args.question == "class":
        if lat.name != "og6":
            raise ValueError("orbit classes are defined on the og6 lattice")
        cls = og6_class(vec)
        return {"class": cls.value}, [cls.value]
    if n is None:
        raise ValueError("orbit splitting is defined on kum:<n> lattices")
    split = kum_orbit_split(n, vec)
    record = {k: list(v) if isinstance(v, tuple) else v for k, v in split._asdict().items()}
    return record, _report_lines(record)


def _load_pairing(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle, parse_int=_order_literal)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting
        raise ValueError(f"malformed pairing document: {exc}") from exc
    return pairing_from_dict(doc)


def _cmd_pairing(args) -> tuple[dict, list[str]]:
    pairing = _load_pairing(args.file)
    if args.question == "cokernel":
        structure = brute_cokernel(pairing) if args.oracle else pairing_cokernel(pairing)
        return {"cokernel": list(structure.invariant_factors)}, [str(structure)]
    if args.question == "radical":
        structure = pairing_radical(pairing)
        return {"radical": list(structure.invariant_factors)}, [str(structure)]
    value = is_nondegenerate(pairing)
    return {"nondegenerate": value}, [_bool_text(value)]


def _cmd_heisenberg(args) -> tuple[dict, list[str]]:
    a = _parse_heis_elem(args.d, args.a)
    b = _parse_heis_elem(args.d, args.b)
    value = h_commutator(a, b)
    return {"commutator": str(value)}, [str(value)]


def _cmd_schrodinger(args) -> tuple[dict, list[str]]:
    elem = _parse_heis_elem(args.d, args.elem)
    mat = schrodinger_matrix(elem)
    phases = ["%d/%d" % _reduced(p, mat.modulus) for p in mat.phases]
    record = {"dim": mat.dim, "perm": list(mat.perm), "phases": phases}
    lines = [f"dim: {mat.dim}", "perm: " + " ".join(map(str, mat.perm)),
             "phases: " + " ".join(record["phases"])]
    return record, lines


def _cmd_sweep(args) -> tuple[list, list[str]]:
    results = run_all() if args.only is None else [
        next(s for s in SWEEPS if s.__name__ == f"sweep_{args.only}")()]
    # a record carries "witnesses" only when the sweep has some
    record = [{k: v for k, v in r._asdict().items() if k != "witnesses" or v} for r in results]
    total = SweepResult("total", sum(r.passed for r in results),
                        sum(r.failed for r in results), sum(r.seconds for r in results))
    lines = []
    for r in (*results, total):
        lines.append(f"{r.name}: passed={r.passed} failed={r.failed} seconds={r.seconds:.2f}")
        lines += [f"  witness: {w}" for w in r.witnesses]
    if total.failed:
        raise _SweepFailure(record, lines)
    return record, lines


class _Usage(Exception):
    """Missing/conflicting flags detected after parsing: maps to exit code 2."""


class _SweepFailure(Exception):
    def __init__(self, record, lines):
        super().__init__("property sweeps reported failures")
        self.record = record
        self.lines = lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hktheta",
        description="Exact theta-group invariants for Kummer-type and OG6-type manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)
        return p

    p = add("kummer", _cmd_kummer, "theta report for the Kummer-type family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--div", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--a1", type=int)
    p.add_argument("--a2", type=int)
    p.add_argument("--x", type=int)

    p = add("og6", _cmd_og6, "theta report for the OG6 family")
    p.add_argument("--div", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = add("rank4", _cmd_rank4, "theta report for the rank-4 modular sheaves")
    p.add_argument("--e", type=int, required=True)

    p = add("lattice", _cmd_lattice, "lattice pairing, divisibility, and orbit data")
    p.add_argument("question", choices=["div", "q", "class", "orbit"])
    p.add_argument("--lattice", required=True, help="kum:<n> or og6")
    p.add_argument("--vector", required=True, help="comma-separated coordinates")

    p = add("pairing", _cmd_pairing, "analyze a pairing from a JSON file")
    p.add_argument("question", choices=["cokernel", "radical", "nondeg"])
    p.add_argument("--file", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="force the brute-force enumeration path (cokernel only)")

    p = add("heisenberg", _cmd_heisenberg, "Heisenberg group computations")
    p.add_argument("question", choices=["commutator"])
    p.add_argument("--d", required=True, help="type, e.g. '3,3'")
    p.add_argument("--a", required=True, help="element 't;(x1,..);(f1,..)'")
    p.add_argument("--b", required=True, help="element 't;(x1,..);(f1,..)'")

    p = add("schrodinger", _cmd_schrodinger, "exact Schrodinger matrices")
    p.add_argument("question", choices=["matrix"])
    p.add_argument("--d", required=True, help="type, e.g. '3,3'")
    p.add_argument("--elem", required=True, help="element 't;(x1,..);(f1,..)'")

    p = add("sweep", _cmd_sweep, "run the property suites and report pass/fail counts")
    p.add_argument("--only", metavar="NAME", help="run one sweep, named without 'sweep_'",
                   choices=[s.__name__.removeprefix("sweep_") for s in SWEEPS])
    return parser


def _emit(args, record, lines):
    if args.json:
        print(json.dumps(record))
    else:
        for line in lines:
            print(line)


_PARSER: argparse.ArgumentParser | None = None  # built by the first main() call


@functools.cache
def _exact_tables(parser: argparse.ArgumentParser) -> dict:
    """Subcommand -> (its parser, its table for _exact_parse), read once off the
    subparser's own actions; the table is None where an action is of a kind
    _exact_parse does not read."""
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    tables = {}
    for name, sub in commands.items():
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        positionals = [a for a in actions if not a.option_strings]
        readable = len(positionals) <= 1 and all(
            type(a) is argparse._StoreTrueAction or type(a) is argparse._StoreAction
            and a.nargs is None and not isinstance(a.default, str) for a in actions)
        table = ({s: a for a in actions for s in a.option_strings}, (positionals or [None])[0],
                 {a.dest for a in actions if a.required},
                 {**{a.dest: a.default for a in actions}, **sub._defaults})
        tables[name] = sub, table if readable else None
    return tables


def _exact_parse(table, command: str, words: list[str]) -> argparse.Namespace | None:
    """The namespace argparse builds for words, or None wherever argparse might
    answer otherwise: an unknown or abbreviated option, a repeat, `--`, a value
    that starts with a dash, a failed conversion or choice, a missing option."""
    options, positional, required, defaults = table
    values, rest = {}, iter(words)
    for word in rest:
        name, eq, value = word.partition("=") if word.startswith("-") else (None, "", word)
        action = positional if name is None else options.get(name)
        if action is None or action.dest in values or value == "--" or eq and action.nargs == 0:
            return None
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        if name and not eq and (value := next(rest, "-")).startswith("-"):
            return None
        try:  # convert, then check the choices, as argparse does
            value = (action.type or str)(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required <= values.keys():
        return None
    return argparse.Namespace(command=command, **{**defaults, **values})


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    # the top-level parser would only scan argv, set args.command and hand the
    # rest to the subcommand's parser; it serves just the argv that names no
    # subcommand (none, -h, unknown)
    tables = _exact_tables(parser)
    if not argv or argv[0] not in tables:
        return parser.parse_args(argv)
    sub, table = tables[argv[0]]
    if table and (args := _exact_parse(table, argv[0], argv[1:])):
        return args
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    args = _parse(parser, sys.argv[1:] if argv is None else argv)
    if [] in vars(args).values():  # argparse drops the "--" of --name=-- and stores []
        dest = next(dest for dest, value in vars(args).items() if value == [])
        parser.error(f"argument --{dest}: expected one argument")
    try:
        record, lines = args.handler(args)
    except _Usage as exc:
        parser.error(str(exc))  # exits with code 2
    except _SweepFailure as exc:
        _emit(args, exc.record, exc.lines)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    _emit(args, record, lines)
    return 0
