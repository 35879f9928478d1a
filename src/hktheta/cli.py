"""Command-line front end.

Subcommands mirror the library layers: `kummer`, `og6`, and `rank4` emit
theta reports (the class route's b1, b2 are the report's div0, m, which
kum_class_invariants checks); `lattice` answers pairing/divisibility/orbit
questions about the built-in lattices; `pairing` analyzes a pairing loaded from
a JSON file, by the Smith form or, with --oracle, by enumeration;
`heisenberg` and `schrodinger` expose the group computations; `sweep` runs
the property battery (one sweep with --only), reporting counts and seconds.
One option table, `_COMMANDS`, describes every subcommand.  A well-formed
request (exact option names, once each, no `--name value` whose value starts
with a dash) is read straight off it, and argparse is never imported.  Any
other argv goes to the full argparse parser, built from the same table at most
once per process, which gives every usage error and help text.

A handler returns its record, plus its own text lines only where they differ
from the record's `key: value` lines (pairing, heisenberg, schrodinger, lattice
div|q|class, sweep), else None.  Only the output asked for is rendered, and it
is written in one print: under --json, which every subcommand accepts, the
record as one JSON line (absent optional fields are omitted, never null), else
the text lines.  Exit codes: 0 success, 1 domain error (one line on stderr, cut
as a long usage message is), 2 usage error, 3 internal check failure (an
`AssertionError` from a cross-check, reported as the single line
`internal check failed: <msg>` on stderr).
"""

from __future__ import annotations

import functools
import json
import sys
from types import SimpleNamespace

from .finabgrp import (
    MAX_ENTRY_DIGITS,
    QmodZ,
    _order_literal,
    _reduced,
    _too_long,
    brute_cokernel,
    pairing_cokernel,
    pairing_from_dict,
    pairing_radical,
)
from .heisenberg import h_commutator, heis_elem, schrodinger_matrix
from .invariants import (
    Family,
    LineBundleInvariants,
    kum_class_invariants,
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


_QUOTED_CHARS = 40  # of an input echoed in an error line
_USAGE_CHARS, _USAGE_CUT = 250, 150  # a longer usage/error message keeps 150 chars and "..."
_DIGITS_ERROR = f"integer exceeds the limit MAX_ENTRY_DIGITS = {MAX_ENTRY_DIGITS} digits"
MAX_DOCUMENT_BYTES = 2**25  # a compact rank-100 document at MAX_ENTRY_DIGITS is about 20 MB
# json.loads with parse_int builds a decoder per call; it stays only for a BOM's error
_DOCUMENT_DECODER = json.JSONDecoder(parse_int=_order_literal)


def _cut(message: str) -> str:
    return message if len(message) <= _USAGE_CHARS else message[:_USAGE_CUT] + "..."


def _quoted(text: str) -> str:
    return repr(text) if len(text) <= _QUOTED_CHARS else repr(text[:_QUOTED_CHARS]) + "..."


def _parse_lattice(name: str) -> tuple[GramLattice, int | None]:
    if name == "og6":
        return _OG6, None
    if name.startswith("kum:"):
        if _too_long(name[4:]):  # before int() reads it
            raise ValueError(f"bad lattice name {_quoted(name)}: {_DIGITS_ERROR}")
        try:
            n = int(name[4:])
        except ValueError as exc:
            raise ValueError(f"bad lattice name {_quoted(name)}") from exc
        return _kum_lattice(n), n
    raise ValueError(f"unknown lattice {_quoted(name)}; use kum:<n> or og6")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if any(map(_too_long, parts)):  # before int() reads it
        raise ValueError(f"bad {what} {_quoted(text)}: {_DIGITS_ERROR}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad {what} {_quoted(text)}: expected comma-separated integers") from exc


def _parse_heis_elem(d: tuple[int, ...], elem_text: str):
    parts = elem_text.split(";")
    if len(parts) != 3:
        raise ValueError(f"bad element {_quoted(elem_text)}: expected 't;(x1,..);(f1,..)'")
    scalar_text, x_text, f_text = (p.strip() for p in parts)
    try:
        scalar = QmodZ.parse(scalar_text)
    except ValueError as exc:  # a cut quote cannot show what is wrong: say it
        reason = f": {exc}" if len(scalar_text) > _QUOTED_CHARS else ""
        raise ValueError(f"bad scalar {_quoted(scalar_text)}{reason}") from exc
    coords = []
    for part in (x_text, f_text):
        if not (part.startswith("(") and part.endswith(")")):
            raise ValueError(f"bad component {_quoted(part)}: expected '(c1,..,cg)'")
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


def _theta_record(inv: LineBundleInvariants) -> tuple[dict, None]:
    return report_to_dict(theta_report(inv)), None


def _cmd_kummer(args) -> tuple[dict, None]:
    q_route = args.div is not None or args.q is not None
    class_route = args.a1 is not None or args.a2 is not None or args.x is not None
    if q_route == class_route:
        _parser().error("provide either --div and --q, or --a1, --a2 and --x")
    if q_route:
        if args.div is None or args.q is None:
            _parser().error("the (div, q) route needs both --div and --q")
        return _theta_record(
            LineBundleInvariants(family=Family.KUM, div=args.div, q=args.q, n=args.n))
    if args.a1 is None or args.a2 is None or args.x is None:
        _parser().error("the class route needs --a1, --a2 and --x")
    base = report_to_dict(theta_report(kum_class_invariants(args.n, args.a1, args.a2, args.x)))
    record = {"family": base["family"], "n": args.n, "a1": args.a1, "a2": args.a2,
              "x": args.x, "b1": base["div0"], "b2": base["m"]}
    record.update((k, v) for k, v in base.items() if k not in ("family", "n"))
    return record, None


def _cmd_og6(args) -> tuple[dict, None]:
    return _theta_record(LineBundleInvariants(family=Family.OG6, div=args.div, q=args.q))


def _cmd_rank4(args) -> tuple[dict, None]:
    return _theta_record(LineBundleInvariants(family=Family.RANK4, div=2, q=args.e))


def _cmd_lattice(args) -> tuple[dict, list[str] | None]:
    lat, n = _parse_lattice(args.lattice)
    vec = _parse_ints(args.vector, "vector")
    if args.question in ("div", "q"):
        value = (divisibility if args.question == "div" else bbf_square)(lat, vec)
        return {args.question: value}, [str(value)]
    if args.question == "class":
        if lat.name != "og6":
            raise ValueError("orbit classes are defined on the og6 lattice")
        cls = og6_class(vec)
        return {"class": cls.value}, [cls.value]
    if n is None:
        raise ValueError("orbit splitting is defined on kum:<n> lattices")
    split = kum_orbit_split(n, vec)
    return {k: list(v) if isinstance(v, tuple) else v for k, v in split._asdict().items()}, None


def _load_pairing(path: str):
    try:
        with open(path, "rb") as handle:  # read(n) allocates n bytes: a small read first
            data = handle.read(1 << 16)
            if len(data) == 1 << 16:
                data += handle.read(MAX_DOCUMENT_BYTES + 1 - len(data))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if len(data) > MAX_DOCUMENT_BYTES:
        raise ValueError(f"pairing document exceeds the limit MAX_DOCUMENT_BYTES = "
                         f"{MAX_DOCUMENT_BYTES} bytes")
    # decoded as a text-mode open() reads it: UTF-8, universal newlines
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = (json.loads if text.startswith("\ufeff") else _DOCUMENT_DECODER.decode)(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting
        raise ValueError(f"malformed pairing document: {exc}") from exc
    return pairing_from_dict(doc)


def _cmd_pairing(args) -> tuple[dict, list[str]]:
    # by skewness the radical has the cokernel's factors; nondeg is the cokernel's triviality
    route = pairing_radical if args.question == "radical" else pairing_cokernel
    structure = (brute_cokernel if args.oracle else route)(_load_pairing(args.file))
    if args.question == "nondeg":
        value = structure.is_trivial()
        return {"nondegenerate": value}, [_bool_text(value)]
    return {args.question: list(structure.invariant_factors)}, [str(structure)]


def _cmd_heisenberg(args) -> tuple[dict, list[str]]:
    d = _parse_ints(args.d, "type d")
    value = h_commutator(_parse_heis_elem(d, args.a), _parse_heis_elem(d, args.b))
    return {"commutator": str(value)}, [str(value)]


def _cmd_schrodinger(args) -> tuple[dict, list[str] | None]:
    mat = schrodinger_matrix(_parse_heis_elem(_parse_ints(args.d, "type d"), args.elem))
    labels = {p: "%d/%d" % _reduced(p, mat.modulus) for p in set(mat.phases)}
    record = {"dim": mat.dim, "perm": list(mat.perm), "phases": list(map(labels.get, mat.phases))}
    return record, None if args.json else [
        f"dim: {mat.dim}", "perm: " + " ".join(map(str, mat.perm)),
        "phases: " + " ".join(record["phases"])]


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


class _SweepFailure(Exception):
    """Failed sweeps; its args are the battery's record and lines, emitted with exit 1."""


class _DigitLimit(Exception):
    """An integer option past MAX_ENTRY_DIGITS; argparse lets it through to main."""


def _int_option(text: str) -> int:
    if _too_long(text) and text.strip().lstrip("+-").replace("_", "").isdecimal():
        raise _DigitLimit(f"bad integer {_quoted(text)}: {_DIGITS_ERROR}")
    return int(text)  # argparse reads a ValueError as "invalid int value"


_JSON = ("--json", {"action": "store_true", "help": "machine-readable output"})
_ELEM = {"required": True, "help": "element 't;(x1,..);(f1,..)'"}
_TYPE_D = ("--d", {"required": True, "help": "type, e.g. '3,3'"})
_INT, _REQUIRED_INT = {"type": int}, {"type": int, "required": True}

# subcommand -> (handler, help, its arguments as add_argument's name and
# keywords); build_parser and the exact parse both read this one table
_COMMANDS = {
    "kummer": (_cmd_kummer, "theta report for the Kummer-type family", [
        _JSON, ("--n", _REQUIRED_INT), ("--div", _INT), ("--q", _INT), ("--a1", _INT),
        ("--a2", _INT), ("--x", _INT)]),
    "og6": (_cmd_og6, "theta report for the OG6 family",
            [_JSON, ("--div", _REQUIRED_INT), ("--q", _REQUIRED_INT)]),
    "rank4": (_cmd_rank4, "theta report for the rank-4 modular sheaves",
              [_JSON, ("--e", _REQUIRED_INT)]),
    "lattice": (_cmd_lattice, "lattice pairing, divisibility, and orbit data", [
        _JSON, ("question", {"choices": ["div", "q", "class", "orbit"]}),
        ("--lattice", {"required": True, "help": "kum:<n> or og6"}),
        ("--vector", {"required": True, "help": "comma-separated coordinates"})]),
    "pairing": (_cmd_pairing, "analyze a pairing from a JSON file", [
        _JSON, ("question", {"choices": ["cokernel", "radical", "nondeg"]}),
        ("--file", {"required": True}),
        ("--oracle", {"action": "store_true",
                      "help": "force the brute-force enumeration path"})]),
    "heisenberg": (_cmd_heisenberg, "Heisenberg group computations", [
        _JSON, ("question", {"choices": ["commutator"]}), _TYPE_D, ("--a", _ELEM),
        ("--b", _ELEM)]),
    "schrodinger": (_cmd_schrodinger, "exact Schrodinger matrices", [
        _JSON, ("question", {"choices": ["matrix"]}), _TYPE_D, ("--elem", _ELEM)]),
    "sweep": (_cmd_sweep, "run the property suites and report pass/fail counts", [
        _JSON, ("--only", {"metavar": "NAME", "help": "run one sweep, named without 'sweep_'",
                           "choices": [s.__name__.removeprefix("sweep_") for s in SWEEPS]})]),
}


def _exact_table(handler, arguments):
    """option name (None for the positional) -> (dest, conversion or None for a
    store_true flag, choices); the required dests; the namespace defaults."""
    fields, required, defaults = {}, set(), {"handler": handler}
    for name, spec in arguments:
        dest, flag = name.lstrip("-"), spec.get("action") == "store_true"
        fields[name if name.startswith("-") else None] = (
            dest, None if flag else _int_option if spec.get("type") is int else str,
            spec.get("choices"))
        if spec.get("required") or not name.startswith("-"):
            required.add(dest)
        defaults[dest] = False if flag else None
    return fields, required, defaults


_EXACT = {name: _exact_table(handler, args) for name, (handler, _, args) in _COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of _COMMANDS; it answers every argv _exact_parse declines."""
    import argparse

    class Parser(argparse.ArgumentParser):  # its subparsers are of this class too
        def error(self, message):  # cut only a message that an echoed input made long
            super().error(_cut(message))

    parser = Parser(prog="hktheta", description="Exact theta-group invariants "
                    "for Kummer-type and OG6-type manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.register("type", int, _int_option)  # type=int options convert by _int_option
        for arg, spec in arguments:
            p.add_argument(arg, **spec)
        p.set_defaults(handler=handler)
    parser.subcommands = sub.choices  # name -> its parser
    return parser


@functools.cache  # built the first time argparse must answer, once per process
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _exact_parse(command: str, words: list[str]) -> SimpleNamespace | None:
    """The namespace argparse builds for words, or None wherever argparse might
    answer otherwise: an unknown or abbreviated option, a repeat, `--`, a value
    that starts with a dash, a failed conversion or choice, a missing option."""
    fields, required, defaults = _EXACT[command]
    values, rest = {}, iter(words)
    for word in rest:
        name, eq, value = word.partition("=") if word.startswith("-") else (None, "", word)
        dest, convert, choices = fields.get(name, (None, None, None))
        if dest is None or dest in values or value == "--" or eq and convert is None:
            return None
        if convert is None:  # a store_true flag
            values[dest] = True
            continue
        if name and not eq and (value := next(rest, "-")).startswith("-"):
            return None
        try:  # convert, then check the choices, as argparse does
            value = convert(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required <= values.keys():
        return None
    return SimpleNamespace(command=command, **{**defaults, **values})


def _parse(argv: list[str]):
    if argv and argv[0] in _EXACT and (args := _exact_parse(argv[0], argv[1:])):
        return args
    return _parser().parse_args(argv)


def _emit(args, record, lines):
    if args.json:
        lines = [json.dumps(record)]
    elif lines is None:
        lines = _report_lines(record)
    if lines:  # one print for the whole output, and none for no lines
        print("\n".join(lines))


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if [] in vars(args).values():  # argparse drops the "--" of --name=-- and stores []
            dest = next(dest for dest, value in vars(args).items() if value == [])
            _parser().error(f"argument --{dest}: expected one argument")
        record, lines = args.handler(args)
    except _SweepFailure as exc:
        _emit(args, *exc.args)
        return 1
    except (ValueError, _DigitLimit) as exc:
        print(f"error: {_cut(str(exc))}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    _emit(args, record, lines)
    return 0
