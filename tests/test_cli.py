"""CLI surface: output shapes, JSON stability, exit codes."""

import argparse
import ast
import contextlib
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hktheta
import hktheta.cli as cli
import hktheta.finabgrp as finabgrp
import hktheta.invariants as invariants
import hktheta.lattices as lattices
from hktheta.cli import main
from hktheta.finabgrp import (
    MAX_ENTRY_DIGITS,
    MAX_EXPONENT_BITS,
    MAX_PAIRING_RANK,
    AbGroupStructure,
    OG6PairingCase,
    Pairing,
    pairing_from_dict,
    pairing_to_dict,
    standard_kum_pairing,
    standard_og6_pairing,
)
from hktheta.heisenberg import MAX_SCHRODINGER_DIM
from hktheta.invariants import MAX_H0_BITS
from hktheta.sweeps import SWEEPS, SweepResult
from hk_helpers import pairing_from_dict_by_qmodz, symplectic_pairing


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    # machine output is a single line that survives a parse/serialize cycle
    assert out.endswith("\n") and "\n" not in out[:-1]
    assert json.dumps(json.loads(out)) == out.strip()
    return json.loads(out)


# ---------------------------------------------------------------------------
# family reports


def test_kummer_text_output(capsys):
    code, out, err = run_cli(capsys, "kummer", "--n", "2", "--div", "1", "--q", "6")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "family: kum",
        "n: 2",
        "div: 1",
        "q: 6",
        "div0: 1",
        "m: 3",
        "cokernel: [3, 3]",
        "is_heisenberg: false",
        "h0: 30",
    ]


def test_kummer_huge_prime_m_finishes():
    # factoring m = 10**18 + 9 (a prime) by trial division took over 30 s
    proc = subprocess.run(
        [sys.executable, "-m", "hktheta", "kummer", "--n", "1000000000000000008",
         "--div", "1", "--q", "-2000000000000000018"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "m: 1000000000000000009" in lines
    assert "cokernel: [1000000000000000009, 1000000000000000009]" in lines
    assert "is_heisenberg: false" in lines


@pytest.mark.parametrize(
    "argv",
    [
        ["kummer", "--n", "200000", "--div", "1", "--q", "400000"],
        ["kummer", "--n", "1000000000000000008", "--div", "1", "--q", "2000000000000000018"],
    ],
    ids=["kummer-n200000", "kummer-n1e18"],
)
def test_section_count_limit_refuses_early(argv):
    # h0 has over 10^4 digits in the first and about 6*10^17 in the last: the first
    # ended in Python's int-to-str error (2.2 s), the last never ended; og6's h0 stays
    # under the limit up to MAX_ENTRY_DIGITS digits of --q
    proc = subprocess.run(
        [sys.executable, "-m", "hktheta", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"error: h0 exceeds the section-count limit MAX_H0_BITS = {MAX_H0_BITS} bits\n"
    )


def test_kummer_json(capsys):
    rec = run_json(capsys, "kummer", "--n", "2", "--div", "1", "--q", "2")
    assert rec == {
        "family": "kum",
        "n": 2,
        "div": 1,
        "q": 2,
        "div0": 1,
        "m": 1,
        "cokernel": [],
        "is_heisenberg": True,
        "h0": 9,
        "multiplicity": 1,
    }


def test_kummer_class_route(capsys):
    rec = run_json(capsys, "kummer", "--n", "2", "--a1", "1", "--a2", "3", "--x", "0")
    assert list(rec) == [
        "family", "n", "a1", "a2", "x", "b1", "b2",
        "div", "q", "div0", "m", "cokernel", "is_heisenberg", "h0",
    ]
    assert (rec["b1"], rec["b2"]) == (1, 3)
    assert (rec["div"], rec["q"]) == (1, 6)
    assert rec["cokernel"] == [3, 3]


def test_kummer_route_disagreement_is_an_internal_error(capsys, monkeypatch):
    # n = 2, a1 = a2 = 1 has (b1, b2) = (1, 1); a (div, q) route that answers m = 3
    # must not pass
    div0_m = invariants.kum_div0_m
    monkeypatch.setattr(invariants, "kum_div0_m", lambda n, div, q: (div0_m(n, div, q)[0], 3))
    code, out, err = run_cli(capsys, "kummer", "--n", "2", "--a1", "1", "--a2", "1", "--x", "0")
    assert code == 3 and out == ""
    assert err == ("internal check failed: class formula and (div, q) route disagree at "
                   "(n, a1, a2, x) = (2, 1, 1, 0): (b1, b2) = (1, 1), (div0, m) = (1, 3)\n")


def test_a_class_request_checks_its_key_once(capsys, monkeypatch):
    # the class key's n rule, then its record, built once by __init__ (whose kum_div0_m
    # gives the (div0, m) the formula is checked against), then the criterion's rules
    calls = {"kum_div0_m": 0, "__init__": 0}
    record = invariants.LineBundleInvariants
    div0_m, init = invariants.kum_div0_m, record.__init__

    def counted(name, function):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or function(*args)

    monkeypatch.setattr(invariants, "kum_div0_m", counted("kum_div0_m", div0_m))
    monkeypatch.setattr(record, "__init__", counted("__init__", init))
    code, out, _ = run_cli(capsys, "kummer", "--n", "4", "--a1", "1", "--a2", "5", "--x", "0")
    assert code == 0 and "cokernel: [5, 5]" in out.splitlines()
    assert calls["kum_div0_m"] <= 3 and calls["__init__"] == 1


@pytest.mark.parametrize("argv, rule, runs", [
    (["kummer", "--n", "4", "--div", "1", "--q", "6"], "kum_div0_m", 2),
    (["kummer", "--n", "4", "--a1", "1", "--a2", "5", "--x", "0"], "kum_div0_m", 3),
    (["og6", "--div", "2", "--q", "-2"], "og6_cokernel", 1),
    (["rank4", "--e", "42"], "rank4_a", 1),
], ids=["kummer-div-q", "kummer-class", "og6", "rank4"])
def test_a_theta_request_runs_its_key_rules_once(capsys, monkeypatch, argv, rule, runs):
    # the record runs its key's rule home once, and theta_report reads what it kept:
    # only KUM runs kum_div0_m again, in the criterion, and the class route once before,
    # for its n rule
    calls = []
    original = getattr(invariants, rule)
    monkeypatch.setattr(invariants, rule, lambda *args: calls.append(args) or original(*args))
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(calls) == runs


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_kummer_class_route_check_fires_on_a_wrong_div_q_route(flags):
    # the (div, q) route planted with div0 = 1, m = 7, so its cokernel is (7, 7): nontrivial,
    # as the criterion wants at n = 2, q = 6, so only the CLI's comparison can catch it
    planted = (
        "import sys\n"
        "import hktheta.cli as cli\n"
        "import hktheta.invariants as invariants\n"
        "invariants.kum_div0_m = lambda n, div, q: (1, 7)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", planted,
         "kummer", "--n", "2", "--a1", "1", "--a2", "3", "--x", "0"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    err = ("internal check failed: class formula and (div, q) route disagree at (n, a1, a2, x) "
           "= (2, 1, 3, 0): (b1, b2) = (1, 3), (div0, m) = (1, 7)\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", err)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_a_failed_multiplicity_check_is_an_internal_error(flags):
    # og6 --div 1 --q 2 is Heisenberg with h0 = 16; an h0 that is no multiple of
    # the Schrodinger dimension is the package's fault, not bad input: exit 3
    planted = (
        "import sys\n"
        "import hktheta.cli as cli\n"
        "import hktheta.invariants as invariants\n"
        "riemann_roch = invariants.riemann_roch\n"
        "invariants.riemann_roch = lambda inv: riemann_roch(inv) + 1\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", planted, "og6", "--div", "1", "--q", "2"],
        capture_output=True, text=True, env=_child_env(),
    )
    err = "internal check failed: h0 is not a multiple of the Schrodinger dimension 16\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", err)


def test_kummer_route_conflicts(capsys):
    code, _, err = run_cli(capsys, "kummer", "--n", "2")
    assert code == 2 and "either" in err
    code, _, err = run_cli(
        capsys, "kummer", "--n", "2", "--div", "1", "--q", "2", "--a1", "1", "--a2", "1", "--x", "0"
    )
    assert code == 2
    code, _, err = run_cli(capsys, "kummer", "--n", "2", "--div", "1")
    assert code == 2 and "both" in err
    code, _, err = run_cli(capsys, "kummer", "--n", "2", "--a1", "1")
    assert code == 2 and err.endswith("error: the class route needs --a1, --a2 and --x\n")


def test_kummer_domain_error(capsys):
    code, out, err = run_cli(capsys, "kummer", "--n", "2", "--div", "4", "--q", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_og6_report(capsys):
    rec = run_json(capsys, "og6", "--div", "1", "--q", "2")
    assert rec == {
        "family": "og6",
        "div": 1,
        "q": 2,
        "cokernel": [],
        "is_heisenberg": True,
        "h0": 16,
        "multiplicity": 1,
    }
    rec = run_json(capsys, "og6", "--div", "2", "--q", "-2")
    assert rec["cokernel"] == [2] * 8
    assert "h0" not in rec and "multiplicity" not in rec


def test_rank4_report(capsys):
    rec = run_json(capsys, "rank4", "--e", "10")
    assert rec == {
        "family": "rank4",
        "div": 2,
        "q": 10,
        "cokernel": [],
        "is_heisenberg": True,
        "h0": 9,
        "multiplicity": 1,
    }
    code, _, err = run_cli(capsys, "rank4", "--e", "12")
    assert code == 1 and err.startswith("error: ")


# ---------------------------------------------------------------------------
# lattice questions


DELTA2 = "0,0,0,0,0,0,1"


def test_lattice_div_and_q(capsys):
    code, out, _ = run_cli(capsys, "lattice", "div", "--lattice", "kum:2", "--vector", DELTA2)
    assert code == 0 and out == "6\n"
    assert run_json(capsys, "lattice", "div", "--lattice", "kum:2", "--vector", DELTA2) == {
        "div": 6
    }
    code, out, _ = run_cli(capsys, "lattice", "q", "--lattice", "kum:2", "--vector", DELTA2)
    assert code == 0 and out == "-6\n"


def test_lattice_class(capsys):
    code, out, _ = run_cli(
        capsys, "lattice", "class", "--lattice", "og6", "--vector", "0,0,0,0,0,0,1,0"
    )
    assert code == 0 and out == "II\n"
    rec = run_json(capsys, "lattice", "class", "--lattice", "og6", "--vector", "1,0,0,0,0,0,0,0")
    assert rec == {"class": "I"}
    code, _, err = run_cli(capsys, "lattice", "class", "--lattice", "kum:2", "--vector", DELTA2)
    assert code == 1 and "og6" in err


def test_lattice_orbit(capsys):
    rec = run_json(capsys, "lattice", "orbit", "--lattice", "kum:2", "--vector", DELTA2)
    assert rec == {
        "x0": 1,
        "p": 3,
        "q": 1,
        "beta": [0, 0, 0, 0, 0, 0],
        "e": [0, 0, 0, 0, 0, 0, 0, -1],
        "f": [0, 0, 0, 0, 0, 0, 1, 0],
    }
    code, _, err = run_cli(capsys, "lattice", "orbit", "--lattice", "og6", "--vector", "1,0,0,0,0,0,0,0")
    assert code == 1 and "kum" in err


def test_lattice_orbit_json_keeps_its_key_order(capsys):
    # the record is read off OrbitInvariant's fields in declaration order
    code, out, _ = run_cli(capsys, "lattice", "orbit", "--lattice", "kum:2", "--vector", DELTA2,
                           "--json")
    assert code == 0
    assert out == ('{"x0": 1, "p": 3, "q": 1, "beta": [0, 0, 0, 0, 0, 0], '
                   '"e": [0, 0, 0, 0, 0, 0, 0, -1], "f": [0, 0, 0, 0, 0, 0, 1, 0]}\n')


def test_lattice_orbit_huge_n_finishes():
    # listing the divisors of n+1 = 10**18 + 9 (a prime) by trial division took over 30 s
    proc = subprocess.run(
        [sys.executable, "-m", "hktheta", "lattice", "orbit",
         "--lattice", "kum:1000000000000000008", "--vector", DELTA2],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "x0: 1",
        "p: 1000000000000000009",
        "q: 1",
        "beta: [0, 0, 0, 0, 0, 0]",
        "e: [0, 0, 0, 0, 0, 0, 0, -1]",
        "f: [0, 0, 0, 0, 0, 0, 1, 0]",
    ]


def test_lattice_bad_inputs(capsys):
    code, _, err = run_cli(capsys, "lattice", "div", "--lattice", "kum:x", "--vector", DELTA2)
    assert code == 1 and err.startswith("error: ")
    code, _, err = run_cli(capsys, "lattice", "div", "--lattice", "k3", "--vector", DELTA2)
    assert code == 1
    code, _, err = run_cli(capsys, "lattice", "div", "--lattice", "kum:2", "--vector", "1,2")
    assert code == 1
    code, _, err = run_cli(capsys, "lattice", "div", "--lattice", "kum:2", "--vector", "a,b")
    assert code == 1
    code, _, err = run_cli(capsys, "lattice", "volume", "--lattice", "kum:2", "--vector", DELTA2)
    assert code == 2  # unknown question is a usage error


@pytest.mark.parametrize(
    "question, lattice, vector, line",
    [
        ("class", "og6", "0,0,0,0,0,0,0,0", "primitivity is undefined for the zero vector"),
        ("class", "og6", "2,2,0,0,0,0,0,0", "orbit class is defined for primitive vectors only"),
        ("orbit", "kum:2", "0,0,0,0,0,0,0", "primitivity is undefined for the zero vector"),
        ("orbit", "kum:2", "0,0,0,0,0,0,2", "orbit splitting requires a primitive vector"),
    ],
)
def test_lattice_classification_error_lines(capsys, question, lattice, vector, line):
    # og6_class and kum_orbit_split validate each vector once; the zero vector
    # keeps its own line rather than reading as imprimitive (gcd 0 != 1)
    code, out, err = run_cli(capsys, "lattice", question, "--lattice", lattice, "--vector", vector)
    assert (code, out, err) == (1, "", f"error: {line}\n")


# ---------------------------------------------------------------------------
# pairing files


@pytest.fixture
def kum_pairing_file(tmp_path):
    path = tmp_path / "pairing.json"
    path.write_text(json.dumps(pairing_to_dict(standard_kum_pairing(2, 1, 3))))
    return str(path)


def test_pairing_cokernel(capsys, kum_pairing_file):
    code, out, _ = run_cli(capsys, "pairing", "cokernel", "--file", kum_pairing_file)
    assert code == 0 and out == "Z/3 x Z/3\n"
    rec = run_json(capsys, "pairing", "cokernel", "--file", kum_pairing_file)
    assert rec == {"cokernel": [3, 3]}
    # the enumeration oracle agrees through the CLI as well
    rec = run_json(capsys, "pairing", "cokernel", "--oracle", "--file", kum_pairing_file)
    assert rec == {"cokernel": [3, 3]}


@pytest.mark.parametrize("question, planted, record", [
    ("cokernel", (7,), {"cokernel": [7]}), ("radical", (7,), {"radical": [7]}),
    ("nondeg", (), {"nondegenerate": True})], ids=["cokernel", "radical", "nondeg"])
def test_pairing_oracle_answers_every_question_by_enumeration(
        capsys, monkeypatch, kum_pairing_file, question, planted, record):
    # the document's cokernel is Z/3 x Z/3; a planted brute_cokernel that answers
    # otherwise shows that --oracle answers each question by enumeration
    monkeypatch.setattr(cli, "brute_cokernel", lambda pairing: AbGroupStructure(planted))
    assert run_json(capsys, "pairing", question, "--oracle", "--file", kum_pairing_file) == record


def test_pairing_radical_and_nondeg(capsys, kum_pairing_file, tmp_path):
    rec = run_json(capsys, "pairing", "radical", "--file", kum_pairing_file)
    assert rec == {"radical": [3, 3]}
    code, out, _ = run_cli(capsys, "pairing", "nondeg", "--file", kum_pairing_file)
    assert code == 0 and out == "false\n"

    sympl = tmp_path / "sympl.json"
    sympl.write_text(json.dumps(pairing_to_dict(symplectic_pairing(4, 1))))
    code, out, _ = run_cli(capsys, "pairing", "nondeg", "--file", str(sympl))
    assert code == 0 and out == "true\n"
    code, out, _ = run_cli(capsys, "pairing", "cokernel", "--file", str(sympl))
    assert code == 0 and out == "trivial\n"


def test_pairing_og6_document(capsys, tmp_path):
    path = tmp_path / "og6.json"
    path.write_text(json.dumps(pairing_to_dict(standard_og6_pairing(OG6PairingCase.DIV1_DIV4))))
    rec = run_json(capsys, "pairing", "radical", "--file", str(path))
    assert rec == {"radical": [2, 2, 2, 2]}


def test_pairing_file_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "pairing", "cokernel", "--file", str(tmp_path / "missing.json"))
    assert code == 1 and err.startswith("error: cannot read")

    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code, _, err = run_cli(capsys, "pairing", "cokernel", "--file", str(bad))
    assert code == 1 and "malformed" in err

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"orders": [2, 2]}))
    code, _, err = run_cli(capsys, "pairing", "cokernel", "--file", str(incomplete))
    assert code == 1 and "malformed" in err

    skewless = tmp_path / "skewless.json"
    skewless.write_text(
        json.dumps({"orders": [2, 2], "matrix": [["0/1", "1/2"], ["0/1", "0/1"]]})
    )
    code, _, err = run_cli(capsys, "pairing", "cokernel", "--file", str(skewless))
    assert code == 1 and "skew" in err

    overflowing = tmp_path / "overflowing.json"
    overflowing.write_text(
        '{"orders": [1e400, 4], "matrix": [["0/1", "0/1"], ["0/1", "0/1"]]}'
    )
    code, _, err = run_cli(capsys, "pairing", "nondeg", "--file", str(overflowing))
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert "order inf is not an integer" in err and "Traceback" not in err


@pytest.mark.parametrize("entry", [0, None, 1.5, True, ["1/2"]], ids=repr)
def test_pairing_document_entry_that_is_no_string_is_named(capsys, tmp_path, entry):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"orders": [2, 2], "matrix": [["0/1", entry], ["1/2", "0/1"]]}))
    line = f'error: malformed pairing document: entry {entry!r} is not an "a/b" string\n'
    assert run_cli(capsys, "pairing", "cokernel", "--file", str(path)) == (1, "", line)


def test_pairing_rank_limit(capsys, tmp_path):
    # the rank is checked before the matrix is read: this one is never parsed
    r = MAX_PAIRING_RANK + 1
    too_wide = tmp_path / "too_wide.json"
    too_wide.write_text(json.dumps({"orders": [2] * r, "matrix": []}))
    code, out, err = run_cli(capsys, "pairing", "cokernel", "--file", str(too_wide))
    assert code == 1 and out == ""
    assert err == f"error: pairing rank {r} exceeds the limit {MAX_PAIRING_RANK}\n"
    r = MAX_PAIRING_RANK
    widest = tmp_path / "widest.json"
    widest.write_text(json.dumps({"orders": [2] * r, "matrix": [["0/1"] * r] * r}))
    code, out, _ = run_cli(capsys, "pairing", "nondeg", "--file", str(widest))
    assert (code, out) == (0, "false\n")


_EXPONENT_ERROR = (f"error: pairing exponent exceeds the limit MAX_EXPONENT_BITS = "
                   f"{MAX_EXPONENT_BITS} bits\n")


@pytest.mark.parametrize("orders", [
    [10**3000 + i for i in range(8)],  # each order alone far past the limit
    [10**299 + i for i in range(100)],  # each under it, their lcm far past it
    [2**MAX_EXPONENT_BITS],  # one bit past
    [3**400, 2**400],  # 635 and 401 bits, coprime: the exponent is their product
], ids=["8x3000-digits", "100x300-digits", "one-bit-past", "coprime-pair"])
def test_pairing_exponent_limit(capsys, tmp_path, orders):
    # an 8 x 8 zero document of 3000-digit orders ran the Smith form for 67 s
    # before printing failed at the 4300-digit conversion limit
    r = len(orders)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"orders": orders, "matrix": [["0/1"] * r] * r}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "pairing", "cokernel", "--file", str(path))
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (1, "", _EXPONENT_ERROR)


_LONG = "1" + "0" * 5000  # past CPython's 4300-digit limit on int() of text


@pytest.mark.parametrize("text, line", [
    ('{"orders": [%s, 2], "matrix": [["0/1", "0/1"], ["0/1", "0/1"]]}' % _LONG, _EXPONENT_ERROR),
    ('{"orders": [2, 2], "matrix": [["0/1", "%s/2"], ["0/1", "0/1"]]}' % _LONG,
     f"error: fraction exceeds the limit MAX_ENTRY_DIGITS = {MAX_ENTRY_DIGITS} digits per side\n"),
    ('{"orders": [2, 2], "matrix": [["0/1", "1/%s"], ["0/1", "0/1"]]}' % _LONG,
     f"error: fraction exceeds the limit MAX_ENTRY_DIGITS = {MAX_ENTRY_DIGITS} digits per side\n"),
], ids=["order", "numerator", "denominator"])
def test_pairing_literals_past_the_digit_limits(capsys, tmp_path, text, line):
    # these exited with CPython's "use sys.set_int_max_str_digits()" text
    path = tmp_path / "long.json"
    path.write_text(text)
    assert run_cli(capsys, "pairing", "cokernel", "--file", str(path)) == (1, "", line)


def test_pairing_document_past_the_byte_limit(capsys, tmp_path):
    # the whole file went to json.load: /dev/zero grew until a MemoryError
    sparse = tmp_path / "sparse.json"
    with sparse.open("wb") as handle:
        handle.truncate(cli.MAX_DOCUMENT_BYTES + 1)
    line = f"error: pairing document exceeds the limit MAX_DOCUMENT_BYTES = {2**25} bytes\n"
    assert cli.MAX_DOCUMENT_BYTES == 2**25
    assert run_cli(capsys, "pairing", "cokernel", "--file", str(sparse)) == (1, "", line)
    if os.path.exists("/dev/zero"):
        assert run_cli(capsys, "pairing", "cokernel", "--file", "/dev/zero") == (1, "", line)


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"orders": [2, 2], "matrix": ' + "[" * 100_000 + "]" * 100_000 + "}",
], ids=["bare", "matrix"])
def test_pairing_deeply_nested_document(capsys, tmp_path, text):
    # the JSON decoder's RecursionError escaped main as a traceback
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "pairing", "cokernel", "--file", str(path))
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("error: malformed pairing document: maximum recursion depth exceeded")


def test_pairing_document_with_a_bom_gets_json_loads_error(capsys, tmp_path):
    # one decoder serves every document; a leading BOM still gets json.loads' line
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"orders": [2], "matrix": [["0/1"]]}).encode())
    assert run_cli(capsys, "pairing", "cokernel", "--file", str(path)) == (1, "", (
        "error: malformed pairing document: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)\n"))


def test_pairing_at_the_exponent_limit_answers(capsys, tmp_path):
    n = 2**MAX_EXPONENT_BITS - 1  # exponent of exactly MAX_EXPONENT_BITS bits
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"orders": [n, n], "matrix": [["0/1"] * 2] * 2}))
    assert run_cli(capsys, "pairing", "cokernel", "--file", str(zero)) == (
        0, f"Z/{n} x Z/{n}\n", "")
    # a dense pairing on (Z/n)^4 with entries near n: the Smith form still finishes
    u = [n // 3, n // 5 + 1, n // 7 + 2, n // 11 + 3, n // 13 + 4, n // 17 + 5]
    upper = [[0, u[0], u[1], u[2]], [0, 0, u[3], u[4]], [0, 0, 0, u[5]], [0, 0, 0, 0]]
    matrix = [[f"{upper[i][j] if i < j else -upper[j][i]}/{n}" for j in range(4)]
              for i in range(4)]
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps({"orders": [n] * 4, "matrix": matrix}))
    code, out, err = run_cli(capsys, "pairing", "cokernel", "--file", str(dense), "--json")
    assert (code, err) == (0, "")
    factors = json.loads(out)["cokernel"]  # a skew form's come in equal pairs
    assert factors and all(n % d == 0 for d in factors) and factors[0::2] == factors[1::2]


def test_pairing_wide_document_finishes(tmp_path, wide_pairing_doc):
    # an unreduced Smith form did not finish in 120 s on this document
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide_pairing_doc))
    for question, expected in [
        ("cokernel", "Z/3 x Z/120\n"),
        ("radical", "Z/3 x Z/120\n"),
        ("nondeg", "false\n"),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "hktheta", "pairing", question, "--file", str(path)],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (0, expected), proc.stderr


# ---------------------------------------------------------------------------
# heisenberg / schrodinger


def test_heisenberg_commutator(capsys):
    code, out, _ = run_cli(
        capsys, "heisenberg", "commutator", "--d", "2", "--a", "0;(1);(0)", "--b", "0;(0);(1)"
    )
    assert code == 0 and out == "1/2\n"
    rec = run_json(
        capsys, "heisenberg", "commutator", "--d", "3,3",
        "--a", "1/3;(1,0);(0,0)", "--b", "0;(0,0);(1,0)",
    )
    assert rec == {"commutator": "1/3"}


def test_heisenberg_parse_errors(capsys):
    code, _, err = run_cli(
        capsys, "heisenberg", "commutator", "--d", "2", "--a", "nonsense", "--b", "0;(0);(1)"
    )
    assert code == 1 and err.startswith("error: ")
    code, _, err = run_cli(
        capsys, "heisenberg", "commutator", "--d", "2,2", "--a", "0;(1);(0)", "--b", "0;(0,0);(1,0)"
    )
    assert code == 1
    code, _, err = run_cli(
        capsys, "heisenberg", "commutator", "--d", "2", "--a", "0;(1);[0]", "--b", "0;(0);(1)"
    )
    assert code == 1


@pytest.mark.parametrize("argv, line", [
    (["lattice", "q", "--lattice=og6", "--vector=a,b"],
     "bad vector 'a,b': expected comma-separated integers"),
    (["lattice", "q", "--lattice=kum:x", "--vector=1"], "bad lattice name 'kum:x'"),
    (["lattice", "q", "--lattice=k3", "--vector=1"], "unknown lattice 'k3'; use kum:<n> or og6"),
    (["heisenberg", "commutator", "--d=2", "--a=abc;(1);(0)", "--b=0;(0);(1)"],
     "bad scalar 'abc'"),
    (["heisenberg", "commutator", "--d=2", "--a=(1);(0)", "--b=0;(0);(1)"],
     "bad element '(1);(0)': expected 't;(x1,..);(f1,..)'"),
])
def test_short_inputs_are_quoted_whole(capsys, argv, line):
    assert run_cli(capsys, *argv) == (1, "", f"error: {line}\n")


_LONG = "1" * 5001


@pytest.mark.parametrize("argv, reason", [
    (["heisenberg", "commutator", "--d=2", "--a=1" + "0" * 5000 + "/2;(1);(0)",
      "--b=0;(0);(1)"], f"MAX_ENTRY_DIGITS = {MAX_ENTRY_DIGITS}"),
    (["heisenberg", "commutator", "--d=2", f"--a=0;({_LONG});(0)", "--b=0;(0);(1)"],
     "bad component '1111"),
    (["lattice", "q", "--lattice=og6", f"--vector={_LONG},0,0,0,0,0,0,0"], "bad vector '1111"),
    (["lattice", "q", f"--lattice=kum:{_LONG}", "--vector=1,0,0,0,0,0,0"],
     "bad lattice name 'kum:1111"),
    (["lattice", "q", f"--lattice={_LONG}", "--vector=1"], "unknown lattice '1111"),
])
def test_oversized_inputs_give_one_short_line(capsys, argv, reason):
    # an echoed input is cut to a fixed prefix; a cut scalar keeps its reason
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and err.count("\n") == 1 and len(err) < 200, err[:300]
    assert err.startswith("error: ") and reason in err and "'..." in err


_DIGITS_LINE = f"integer exceeds the limit MAX_ENTRY_DIGITS = {MAX_ENTRY_DIGITS} digits\n"
_SEPARATED = "_".join("9" * MAX_ENTRY_DIGITS)  # 1,000 digits with int()'s underscores


@pytest.mark.parametrize("argv, what", [
    (["lattice", "q", "--lattice=og6", f"--vector=0,{_LONG},0,0,0,0,0,0"], "vector"),
    (["heisenberg", "commutator", f"--d={_LONG}", "--a=0;(1);(0)", "--b=0;(0);(1)"],
     "type d"),
    (["heisenberg", "commutator", "--d=2", "--a=0;(1);(0)", f"--b=0;(0);({_LONG})"],
     "component"),
    (["lattice", "div", f"--lattice=kum:{_LONG}", "--vector=1,0,0,0,0,0,0"], "lattice name"),
    # 1,001 digits, however many underscores separate them
    (["lattice", "q", "--lattice=og6", f"--vector=0,9_{_SEPARATED},0,0,0,0,0,0"], "vector"),
    (["heisenberg", "commutator", f"--d={_SEPARATED}9", "--a=0;(1);(0)", "--b=0;(0);(1)"],
     "type d"),
    (["heisenberg", "commutator", "--d=2", "--a=0;(1);(0)", f"--b=0;(0);(-9_{_SEPARATED})"],
     "component"),
    (["lattice", "div", f"--lattice=kum:{_SEPARATED}_9", "--vector=1,0,0,0,0,0,0"],
     "lattice name"),
])
def test_integers_past_the_digit_limit_are_refused_by_name(capsys, argv, what):
    # one of more than 4,300 digits was reported as malformed, by CPython's own limit
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and err.count("\n") == 1 and len(err) < 200, err[:300]
    assert err.startswith(f"error: bad {what} '") and err.endswith("'...: " + _DIGITS_LINE)


def test_integers_at_the_digit_limit_answer(capsys):
    # 1,000 digits are read, also with underscores between them; "1_" * 600 + "1"
    # (601 digits) was refused as past the limit
    for big in ("9" * MAX_ENTRY_DIGITS, _SEPARATED):
        vector = f"-{big},1,0,0,0,0,0,0"
        assert run_cli(capsys, "lattice", "q", "--lattice=og6", f"--vector={vector}") == (
            0, f"{-2 * int(big)}\n", "")
        assert run_cli(capsys, "lattice", "div", f"--lattice=kum:{big}",
                       "--vector=1,0,0,0,0,0,0") == (0, "1\n", "")
    assert run_cli(capsys, "lattice", "class", "--lattice=og6",
                   "--vector=" + "1_" * 600 + "1,0,0,0,0,0,0,0") == (
        1, "", "error: orbit class is defined for primitive vectors only\n")


_OVER = "9" * 5000  # past MAX_ENTRY_DIGITS and past CPython's 4,300-digit limit on int()


@pytest.mark.parametrize("argv", [
    ["kummer", f"--n={_OVER}", "--div=1", "--q=6"],
    ["kummer", "--n", _OVER, "--div", "1", "--q", "6"],
    ["kummer", "--n", "9" * 4000, "--div", "7", "--q", "2"],
    ["kummer", "--n=2", "--div=1", f"--q=-{_OVER}"],
    ["kummer", "--n", "2", "--div", "1", "--q", "-" + _OVER],
    ["kummer", "--n=2", "--a1=1", "--a2=1", f"--x={_SEPARATED}_9"],
    ["og6", f"--div={_OVER}", "--q=2"],
    ["og6", "--div", _OVER, "--q", "2"],
    ["og6", "--div", "1", "--q", "2" + "0" * 3000],
    ["rank4", f"--e={_OVER}"],
    ["rank4", "--e", _OVER, "--json"],
], ids=["kummer-n-eq", "kummer-n", "kummer-n4000", "kummer-q-eq", "kummer-q", "kummer-x-sep",
        "og6-div-eq", "og6-div", "og6-q2e3000", "rank4-e-eq", "rank4-e"])
def test_report_options_past_the_digit_limit_are_refused_by_name(capsys, argv):
    # --n, --div, --q, --a1, --a2, --x and --e were read by int(): past 4,300 digits
    # argparse exited 2 with "invalid int value", which names no limit; the exact
    # parse and argparse refuse such an integer alike, before int() reads it
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and err.count("\n") == 1 and len(err) < 200, err[:300]
    assert err.startswith("error: bad integer '") and err.endswith("'...: " + _DIGITS_LINE)


def test_report_options_at_the_digit_limit_are_read(capsys):
    # 1,000 digits, also with underscores between them, are read as before, and
    # meet MAX_H0_BITS or their rule home
    big, even = "9" * MAX_ENTRY_DIGITS, "2" + "0" * (MAX_ENTRY_DIGITS - 1)
    code, out, err = run_cli(capsys, "kummer", "--n", big, "--div", "1", "--q", "6")
    assert (code, err) == (0, "") and f"n: {big}" in out.splitlines()
    code, out, err = run_cli(capsys, "og6", "--div", "1", f"--q={even}")
    assert (code, err) == (0, "") and f"q: {even}" in out.splitlines()
    assert run_cli(capsys, "kummer", "--n", "5", "--div", "1", "--q", even) == (
        1, "", f"error: h0 exceeds the section-count limit MAX_H0_BITS = {MAX_H0_BITS} bits\n")
    assert run_cli(capsys, "og6", "--div", big, "--q", "2") == (
        1, "", "error: OG6 divisibility must be 1 or 2\n")
    code, out, err = run_cli(capsys, "rank4", f"--e=-{_SEPARATED}")
    assert (code, out) == (1, "") and err.startswith("error: need e > 0 with e = -6 mod 16, got -9")
    assert run_cli(capsys, "kummer", "--n=2", f"--a1={big}", "--a2=1", "--x=0") == (
        1, "", "error: need 1 <= a1 | a2\n")


@pytest.mark.parametrize("value", ["abc", "9" * 4999 + "x", "x" * 5000])
def test_a_report_option_that_is_no_integer_stays_a_usage_error(capsys, value):
    # however long, a non-integer gets argparse's exit 2 and "invalid int value"
    code, out, err = run_cli(capsys, "kummer", "--n", value, "--div", "1", "--q", "6")
    assert (code, out) == (2, "") and err.count("\n") == 3, err[:300]
    assert err.splitlines()[-1].startswith(
        "hktheta kummer: error: argument --n: invalid int value: " + repr(value)[:50])


def test_schrodinger_matrix(capsys):
    code, out, _ = run_cli(
        capsys, "schrodinger", "matrix", "--d", "3,3", "--elem", "0;(1,0);(0,0)"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dim: 9"
    assert lines[1] == "perm: 2 0 1 5 3 4 8 6 7"
    assert lines[2].startswith("phases: 0/1 0/1")

    rec = run_json(capsys, "schrodinger", "matrix", "--d", "2", "--elem", "1/2;(1);(1)")
    assert rec == {"dim": 2, "perm": [1, 0], "phases": ["0/1", "1/2"]}


def test_schrodinger_dim_limit(capsys):
    # 10^8 columns would take about half an hour (extrapolated); refused before any work
    code, out, err = run_cli(
        capsys, "schrodinger", "matrix", "--d", "10000,10000", "--elem", "0;(1,0);(0,0)"
    )
    assert code == 1 and out == ""
    assert err == (
        f"error: type dim 100000000 exceeds the Schrodinger dim limit {MAX_SCHRODINGER_DIM}\n"
    )
    assert MAX_SCHRODINGER_DIM == 64 * 64
    rec = run_json(capsys, "schrodinger", "matrix", "--d", "64,64", "--elem", "0;(1,0);(0,0)")
    assert rec["dim"] == MAX_SCHRODINGER_DIM


# the parent's bytes for one (8,8) request, pinned
GOLDEN_SCHRODINGER_8x8 = (
    '{"dim": 64, "perm": [29, 30, 31, 24, 25, 26, 27, 28, 37, 38, 39, 32, 33, 34, 35, '
    '36, 45, 46, 47, 40, 41, 42, 43, 44, 53, 54, 55, 48, 49, 50, 51, 52, 61, 62, 63, 56, '
    '57, 58, 59, 60, 5, 6, 7, 0, 1, 2, 3, 4, 13, 14, 15, 8, 9, 10, 11, 12, 21, 22, 23, '
    '16, 17, 18, 19, 20], "phases": ["1/2", "1/4", "0/1", "3/4", "1/2", "1/4", "0/1", '
    '"3/4", "5/8", "3/8", "1/8", "7/8", "5/8", "3/8", "1/8", "7/8", "3/4", "1/2", "1/4", '
    '"0/1", "3/4", "1/2", "1/4", "0/1", "7/8", "5/8", "3/8", "1/8", "7/8", "5/8", "3/8", '
    '"1/8", "0/1", "3/4", "1/2", "1/4", "0/1", "3/4", "1/2", "1/4", "1/8", "7/8", "5/8", '
    '"3/8", "1/8", "7/8", "5/8", "3/8", "1/4", "0/1", "3/4", "1/2", "1/4", "0/1", "3/4", '
    '"1/2", "3/8", "1/8", "7/8", "5/8", "3/8", "1/8", "7/8", "5/8"]}'
)


def test_schrodinger_goldens(capsys):
    # a scalar outside (1/N)Z: 1/5 on the type (2,2), whose exponent is 2
    code, out, _ = run_cli(
        capsys, "schrodinger", "matrix", "--d", "2,2", "--elem", "1/5;(1,0);(0,1)"
    )
    assert (code, out) == (0, "dim: 4\nperm: 1 0 3 2\nphases: 1/5 1/5 7/10 7/10\n")
    code, out, _ = run_cli(
        capsys, "schrodinger", "matrix", "--d", "8,8", "--elem", "3/8;(3,5);(6,1)", "--json"
    )
    assert (code, out) == (0, GOLDEN_SCHRODINGER_8x8 + "\n")


# the parent's phases for "1/9;(3,5);(6,1)" on (8,8), phase modulus 72: 64
# columns that take only 8 distinct values
_PHASES_1_9 = (["17/72", "71/72", "53/72", "35/72"] * 2 + ["13/36", "1/9", "31/36", "11/18"] * 2
               + ["35/72", "17/72", "71/72", "53/72"] * 2 + ["11/18", "13/36", "1/9", "31/36"] * 2
               + ["53/72", "35/72", "17/72", "71/72"] * 2 + ["31/36", "11/18", "13/36", "1/9"] * 2
               + ["71/72", "53/72", "35/72", "17/72"] * 2 + ["1/9", "31/36", "11/18", "13/36"] * 2)
_PERM_1_9 = [29, 30, 31, 24, 25, 26, 27, 28, 37, 38, 39, 32, 33, 34, 35, 36, 45, 46, 47, 40, 41,
             42, 43, 44, 53, 54, 55, 48, 49, 50, 51, 52, 61, 62, 63, 56, 57, 58, 59, 60, 5, 6, 7,
             0, 1, 2, 3, 4, 13, 14, 15, 8, 9, 10, 11, 12, 21, 22, 23, 16, 17, 18, 19, 20]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_schrodinger_labels_each_distinct_phase_once(capsys, monkeypatch, as_json):
    # each distinct phase is reduced once and its label reused for every column holding it
    reduced = []
    monkeypatch.setattr(cli, "_reduced",
                        lambda *args: reduced.append(args) or finabgrp._reduced(*args))
    argv = ["schrodinger", "matrix", "--d", "8,8", "--elem", "1/9;(3,5);(6,1)"]
    code, out, err = run_cli(capsys, *argv, *(["--json"] if as_json else []))
    assert len(reduced) == len(set(_PHASES_1_9)) == 8
    perm = ", ".join(map(str, _PERM_1_9))
    if as_json:
        phases = ", ".join(f'"{p}"' for p in _PHASES_1_9)
        want = '{"dim": 64, "perm": [%s], "phases": [%s]}\n' % (perm, phases)
    else:
        want = "dim: 64\nperm: %s\nphases: %s\n" % (perm.replace(",", ""), " ".join(_PHASES_1_9))
    assert (code, out, err) == (0, want, "")


def test_heisenberg_commutator_large_type(capsys):
    code, out, _ = run_cli(
        capsys, "heisenberg", "commutator", "--d", "100000000000,100000000000",
        "--a", "0;(1,2);(3,4)", "--b", "1/7;(5,6);(7,8)",
    )
    assert (code, out) == (0, "6249999999/6250000000\n")


# ---------------------------------------------------------------------------
# fuzzed text input: any text gives exit 0, 1 or 2, never an escaping exception


def _exit_code(argv):
    # in-process like run_cli, but without capsys: hypothesis does not reset
    # function-scoped fixtures between examples
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


_odd_ints = st.sampled_from([0, 1, -3, 10**30, -(10**18)])
_junk = (st.text(max_size=16) | st.text(alphabet="0123456789,;()/- ", max_size=16)
         | st.text(alphabet="0123456789,-+/ _e.", max_size=12))


def _join(values):
    return ",".join(map(str, values))


@st.composite
def _heis_argv(draw):
    # well-formed text of matching lengths, now and then spoiled by an odd
    # integer or free text, so parsing gets past the shape checks too
    k = draw(st.integers(1, 3))
    ints = st.integers(-20, 20)

    def spoil(values):
        if draw(st.integers(0, 5)) == 0:
            values[draw(st.integers(0, len(values) - 1))] = draw(_odd_ints | _junk)
        return values

    def elem():
        if draw(st.integers(0, 9)) == 0:
            return draw(_junk)
        t = "/".join(map(str, spoil([draw(ints), draw(st.integers(1, 12))])))
        x, f = (_join(spoil(draw(st.lists(ints, min_size=k, max_size=k)))) for _ in "xf")
        return f"{t};({x});({f})"

    d = _join(spoil(draw(st.lists(st.integers(2, 12), min_size=k, max_size=k))))
    return ["heisenberg", "commutator", f"--d={d}", f"--a={elem()}", f"--b={elem()}"]


@given(_heis_argv())
def test_heisenberg_commutator_fuzzed_text(argv):
    assert _exit_code(argv) in (0, 1, 2)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=16,
)
_odd_entries = (
    st.builds("{}/{}".format, st.integers(-13, 13), st.integers(-13, 13))
    | st.sampled_from(["1/0", "1e3", "1/2/3", " 5 ", ""])
    | _json_values
)


@st.composite
def _pairing_docs(draw):
    # a skew document, with odd orders and then odd entries planted in it
    k = draw(st.integers(1, 4))
    orders = draw(st.lists(st.integers(2, 12), min_size=k, max_size=k))
    matrix = [["0/1"] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            den = math.gcd(orders[i], orders[j])
            num = draw(st.integers(0, den - 1))
            matrix[i][j], matrix[j][i] = f"{num}/{den}", f"{-num}/{den}"
    for _ in range(draw(st.integers(0, 2))):
        orders[draw(st.integers(0, k - 1))] = draw(
            st.integers(-2, 13) | st.sampled_from([10**30, True, 2.0]) | _json_values)
    for _ in range(draw(st.integers(0, 2))):
        matrix[draw(st.integers(0, k - 1))][draw(st.integers(0, k - 1))] = draw(_odd_entries)
    # now and then a shape fault: an extra row, a short row, a row that is a
    # string or a dict; most documents keep their shape, so the entry and
    # order faults above still reach the integer checks
    fault = draw(st.sampled_from([None] * 4 + ["extra", "short", "string", "dict"]))
    i = draw(st.integers(0, k - 1))
    if fault == "extra":
        matrix.append(list(matrix[i]))
    elif fault == "short":
        matrix[i] = matrix[i][:-1]
    elif fault == "string":
        matrix[i] = draw(st.sampled_from(["0" * k, " ".join(map(str, matrix[i]))]))
    elif fault == "dict":
        matrix[i] = {str(j): entry for j, entry in enumerate(matrix[i])}
    return draw(st.sampled_from([{"orders": orders, "matrix": matrix}, matrix, {"orders": orders}])
                | _json_values)


@given(_pairing_docs(), st.sampled_from(["cokernel", "radical", "nondeg"]))
def test_pairing_fuzzed_documents(tmp_path_factory, doc, question):
    path = tmp_path_factory.getbasetemp() / "fuzzed-pairing.json"
    path.write_text(json.dumps(doc))
    assert _exit_code(["pairing", question, "--file", str(path)]) in (0, 1, 2)


def _read(load, doc):
    try:
        return load(doc)
    except ValueError as exc:
        return f"error: {exc}"


@given(_pairing_docs())
def test_pairing_documents_read_as_on_the_qmodz_route(doc):
    # integer pairs straight from the text give the pairing, or the error line,
    # of QmodZ.parse entries handed to Pairing(group, matrix)
    doc = json.loads(json.dumps(doc))  # what --file reads
    got, want = _read(pairing_from_dict, doc), _read(pairing_from_dict_by_qmodz, doc)
    assert got == want
    if isinstance(want, Pairing):
        assert hash(got) == hash(want) and got.matrix == want.matrix


_LONG_DOC = {"orders": [2, 2], "matrix": [["0/1", "1/2"]] * 300_000}  # 4.8 MB as JSON


@pytest.mark.parametrize(
    "matrix",
    [
        _LONG_DOC["matrix"],  # rows of the right length, far too many
        [["0/1", "1/2"], ["1/2"]],  # ragged
        [["0/1", "1/2"], ["1/2", "0/1", "0/1"]],
        [["0/1", "1/2"], "00"],  # a string row, whose two characters parsed as entries before
        ["0/1", "1/2"],
        [["0/1", "1/2"], {"0": "1/2", "1": "0/1"}],  # a dict row, whose keys parsed before
        {"0": ["0/1", "1/2"], "1": ["1/2", "0/1"]},
        "0/1",
        None,
    ],
    ids=["long", "short-row", "long-row", "string-row", "string-rows", "dict-row", "dict",
         "string", "null"],
)
def test_pairing_shape_is_checked_before_any_entry(matrix):
    # parsing every entry first took 3.9 s on the long document before this refusal
    start = time.perf_counter()
    line = _read(pairing_from_dict, {"orders": [2, 2], "matrix": matrix})
    assert time.perf_counter() - start < 0.5
    assert line == "error: pairing matrix must be rank x rank"


def test_pairing_shape_refusal_survives_optimize(tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_LONG_DOC))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "hktheta", "pairing", "cokernel", "--file", str(path)],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: pairing matrix must be rank x rank\n"


# ---------------------------------------------------------------------------
# sweep wiring (the real sweeps run in tests/test_sweeps.py and the acceptance tests)


def test_sweep_reports_and_exit_codes(capsys, monkeypatch):
    ok = [SweepResult("alpha", 10, 0, 0.25), SweepResult("beta", 5, 0, 0.5)]
    monkeypatch.setattr("hktheta.cli.run_all", lambda: ok)
    code, out, _ = run_cli(capsys, "sweep")
    assert code == 0
    assert out.splitlines() == [
        "alpha: passed=10 failed=0 seconds=0.25",
        "beta: passed=5 failed=0 seconds=0.50",
        "total: passed=15 failed=0 seconds=0.75",
    ]
    code, out, _ = run_cli(capsys, "sweep", "--json")
    assert code == 0
    assert json.loads(out) == [
        {"name": "alpha", "passed": 10, "failed": 0, "seconds": 0.25},
        {"name": "beta", "passed": 5, "failed": 0, "seconds": 0.5},
    ]

    bad = [SweepResult("alpha", 9, 1, 0.25)]
    monkeypatch.setattr("hktheta.cli.run_all", lambda: bad)
    code, out, _ = run_cli(capsys, "sweep")
    assert code == 1
    assert out.splitlines()[-1] == "total: passed=9 failed=1 seconds=0.25"
    code, out, _ = run_cli(capsys, "sweep", "--json")
    assert code == 1
    assert json.loads(out) == [{"name": "alpha", "passed": 9, "failed": 1, "seconds": 0.25}]


def test_sweep_prints_and_records_witnesses(capsys, monkeypatch):
    results = [SweepResult("alpha", 4, 1, 0.25, ("AssertionError: planted",)),
               SweepResult("beta", 5, 0, 0.5)]
    monkeypatch.setattr("hktheta.cli.run_all", lambda: results)
    code, out, _ = run_cli(capsys, "sweep")
    assert code == 1
    assert out.splitlines() == [
        "alpha: passed=4 failed=1 seconds=0.25",
        "  witness: AssertionError: planted",
        "beta: passed=5 failed=0 seconds=0.50",
        "total: passed=9 failed=1 seconds=0.75",
    ]
    code, out, _ = run_cli(capsys, "sweep", "--json")
    assert code == 1
    assert json.loads(out) == [
        {"name": "alpha", "passed": 4, "failed": 1, "seconds": 0.25,
         "witnesses": ["AssertionError: planted"]},
        {"name": "beta", "passed": 5, "failed": 0, "seconds": 0.5},
    ]


def test_sweep_json_keeps_its_key_order(capsys, monkeypatch):
    # one record per sweep, in SweepResult's field order; witnesses only when present
    ok = [SweepResult("alpha", 10, 0, 0.25)]
    monkeypatch.setattr("hktheta.cli.run_all", lambda: ok)
    assert run_cli(capsys, "sweep", "--json") == (
        0, '[{"name": "alpha", "passed": 10, "failed": 0, "seconds": 0.25}]\n', "")
    witnessed = [SweepResult("alpha", 4, 1, 0.25, ("AssertionError: planted",)),
                 SweepResult("beta", 5, 0, 0.5)]
    monkeypatch.setattr("hktheta.cli.run_all", lambda: witnessed)
    assert run_cli(capsys, "sweep", "--json") == (
        1, '[{"name": "alpha", "passed": 4, "failed": 1, "seconds": 0.25, '
           '"witnesses": ["AssertionError: planted"]}, '
           '{"name": "beta", "passed": 5, "failed": 0, "seconds": 0.5}]\n', "")


def test_sweep_only_runs_one_sweep(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "sweep", "--only", "og6_model")
    assert code == 0
    lines = out.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        "og6 model agreement: passed=3 failed=0",
        "total: passed=3 failed=0",
    ]
    assert all(re.fullmatch(r".* seconds=\d+\.\d\d", line) for line in lines)
    rec = run_json(capsys, "sweep", "--only", "og6_model")
    assert [(r["name"], r["passed"], r["failed"]) for r in rec] == [("og6 model agreement", 3, 0)]
    # names drop the sweep_ prefix; anything else is a usage error
    for name in ("sweep_og6_model", "og6", "no_such_sweep"):
        code, out, err = run_cli(capsys, "sweep", "--only", name)
        assert code == 2 and out == "" and "invalid choice" in err

    def failing():
        return SweepResult("planted", 1, 1, 0.25)

    failing.__name__ = "sweep_og6_model"
    monkeypatch.setattr("hktheta.cli.SWEEPS", (failing,))
    code, out, _ = run_cli(capsys, "sweep", "--only", "og6_model")
    assert code == 1
    assert out.splitlines() == [
        "planted: passed=1 failed=1 seconds=0.25",
        "total: passed=1 failed=1 seconds=0.25",
    ]


def test_main_can_be_called_again_in_one_process(capsys, monkeypatch, kum_pairing_file):
    div0_m = invariants.kum_div0_m  # its rules still run; its m is wrong
    monkeypatch.setattr(invariants, "kum_div0_m", lambda n, div, q: (div0_m(n, div, q)[0], 3))
    sequence = [
        ("og6", "--div", "1"),  # usage error
        ("kummer", "--n", "2", "--div", "4", "--q", "2"),  # domain error
        ("kummer", "--n", "2", "--a1", "1", "--a2", "1", "--x", "0"),  # internal check fails
        ("rank4", "--e", "42", "--json"),
        ("rank4", "--e", "42"),
        ("pairing", "cokernel", "--file", kum_pairing_file),
    ]
    first = []
    for argv in sequence:  # each call is the first of its process
        cli._parser.cache_clear()
        first.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in first] == [2, 1, 3, 0, 0, 0]

    build = cli.build_parser
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    assert [run_cli(capsys, *argv) for argv in sequence * 2] == first * 2
    assert len(builds) == 1  # by the usage error; no other call needs argparse


# ---------------------------------------------------------------------------
# the README's CLI tour


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_tour():
    """(argv, shown output lines) for each `$ hktheta ...` line of README's sh blocks."""
    tour = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M):
        shown = None
        for line in block.splitlines():
            if line.startswith("$ "):
                shown = []
                tour.append((shlex.split(line[2:], comments=True), shown))
            elif shown is not None:
                shown.append(line)
    return [(argv, shown) for argv, shown in tour if argv[0] == "hktheta"]


def _shows(got, shown):
    # a shown JSON line cut short with " ...}" stands for its prefix
    return got.startswith(shown[:-4]) if shown.endswith(" ...}") else got == shown


def test_readme_tour_matches_the_cli(capsys):
    tour = [
        (argv, shown) for argv, shown in readme_tour()
        if shown and "--file" not in argv and "sweep" not in argv
    ]
    assert len(tour) >= 8
    for argv, shown in tour:
        code, out, err = run_cli(capsys, *argv[1:])
        assert code == 0, (argv, err)
        got = out.splitlines()
        assert len(got) == len(shown) and all(map(_shows, got, shown)), (argv, out)


# ---------------------------------------------------------------------------
# one parse per request: the subcommand's parser against the full top-level parse


def _full_parse(argv):
    # the reference route: the top-level parser parses argv and hands the
    # subcommand's words to that subcommand's parser, which parses them again
    return cli._parser().parse_args(argv)


def _answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def both_routes(monkeypatch, tmp_path):
    """Answers argv by dispatch and by the full parse, in a directory that holds
    pairing.json; the sweeps are stand-ins, so no answer carries a timing."""
    (tmp_path / "pairing.json").write_text(json.dumps(pairing_to_dict(standard_kum_pairing(2, 1, 3))))
    monkeypatch.chdir(tmp_path)

    def stand_in(name):
        def sweep():
            return SweepResult(name.removeprefix("sweep_"), 3, 0, 0.25)

        sweep.__name__ = name
        return sweep

    monkeypatch.setattr(cli, "SWEEPS", tuple(stand_in(s.__name__) for s in cli.SWEEPS))
    monkeypatch.setattr(cli, "run_all", lambda: [s() for s in cli.SWEEPS])

    def answer(argv):
        dispatched = _answer(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse", _full_parse)
            return dispatched, _answer(argv)

    return answer


_ROUTE_CORPUS = [
    [], ["unknown-command"], ["og6", "--div", "1"],  # test_usage_errors
    ["--json", "rank4", "--e", "10"], ["--n", "2", "kummer"], ["-h", "kummer"],  # options first
    ["-h"], ["--help"], ["kummer", "-h"], ["pairing", "--help"], ["lattice", "div", "-h"],
    ["frobnicate", "--n", "2"], ["Kummer"], ["rank4", "--e", "10", "extra", "--bogus=1"],
    ["og6", "--div", "1", "--q", "2", "-x"], ["rank4", "--e", "10", "--", "--json"],
    ["rank4", "--e", "10", "--js"], ["rank4", "--e=10", "--jso"],  # abbreviations
    ["og6", "--div", "1", "--q", "-4"], ["kummer", "--n", "2", "--div", "1", "--q", "-6"],
    ["og6", "--div", "1", "--q=-4", "--json"], ["rank4", "--e", "-6"],  # negative values
    ["sweep", "--only", "og6_model"], ["sweep", "--only", "og6"], ["sweep", "--json", "extra"],
    ["pairing", "nondeg", "--file", "pairing.json", "--oracle"],
    ["rank4", "--e=10", "--e=12"], ["og6", "--json", "--div=1", "--q=2", "--json"],  # repeats
    ["lattice", "div", "--lattice=og6", "--vector=--"], ["rank4", "--e=10", "--json="],
    ["lattice", "q", "q", "--lattice=og6", "--vector=1"], ["kummer", "--n= 3", "--div=1", "--q=2"],
]


def test_dispatch_answers_as_the_full_parse(both_routes):
    corpus = [argv[1:] for argv, _ in readme_tour()] + _ROUTE_CORPUS
    assert len(corpus) > len(_ROUTE_CORPUS) + 8
    for argv in corpus:
        dispatched, full = both_routes(argv)
        assert dispatched == full, argv


def test_dispatch_returns_the_full_parse_namespace(capsys):
    # the same attributes, args.command included, wherever the full parse succeeds
    parser, compared = cli.build_parser(), 0
    for argv in [argv[1:] for argv, _ in readme_tour()] + _ROUTE_CORPUS:
        try:
            full = vars(parser.parse_args(argv))
        except SystemExit:
            continue
        assert vars(cli._parse(argv)) == full, argv
        compared += 1
    capsys.readouterr()
    assert compared > 12


def test_text_and_json_output_cannot_drift_apart(both_routes, monkeypatch):
    # a handler that returns no lines of its own has its text rendered from its
    # record, so the text of every record-shaped answer is the `key: value` form
    # of its --json record; every text answer is one print, with no blank line
    # (both_routes supplies pairing.json and stand-in sweeps)
    prints = []
    monkeypatch.setattr(cli, "print", lambda *a, **k: prints.append(a) or print(*a, **k),
                        raising=False)
    compared = 0
    for argv in [argv[1:] for argv, _ in readme_tour()] + _ROUTE_CORPUS:
        words = [w for w in argv if w != "--json"]
        try:
            args = cli._parse(words)
        except SystemExit:  # a usage error or a help text, argparse's own
            continue
        prints.clear()
        code, out, err = _answer(words)
        if code != 0 or args.json:  # refused, or an abbreviated --json
            continue
        assert out and not err and len(prints) == 1, argv
        assert "\n\n" not in out and not out.startswith("\n"), argv
        if args.handler(args)[1] is None:
            json_code, json_out, _ = _answer(words + ["--json"])
            assert json_code == 0, argv
            assert out.splitlines() == cli._report_lines(json.loads(json_out)), argv
            compared += 1
    assert compared >= 10


def test_emit_prints_nothing_for_no_lines(capsys):
    text = SimpleNamespace(json=False)
    cli._emit(text, {}, None)
    cli._emit(text, {"cokernel": []}, [])
    assert capsys.readouterr().out == ""
    cli._emit(text, {"cokernel": [], "is_heisenberg": True}, None)
    cli._emit(SimpleNamespace(json=True), {"cokernel": []}, ["not read"])
    assert capsys.readouterr().out == 'cokernel: []\nis_heisenberg: true\n{"cokernel": []}\n'


_route_words = st.sampled_from([
    "kummer", "og6", "rank4", "lattice", "pairing", "heisenberg", "schrodinger", "sweep",
    "div", "q", "class", "orbit", "cokernel", "radical", "nondeg", "commutator", "matrix",
    "--json", "--js", "-h", "--help", "--he", "--", "-x", "--bogus=1", "--n", "--n=3", "--div",
    "--q", "--e", "--a1", "--x", "-4", "2", "6", "--lattice=og6", "--lattice", "kum:2",
    "--vector=1,0,0,0,0,0,0,0", "--file=pairing.json", "--oracle", "--only", "og6_model",
    "--d=2", "--a=0;(1);(0)", "--b=0;(0);(1)", "--elem=0;(1);(0)",
    "--e=10", "--json=1", "--only=og6_model", "--vector=", "--q=-4", "--d=2,2", "--file=pairing.json",
    "--vector=--", "--json=", "--div=1", "--q=2",
]) | st.text(max_size=6)


@given(st.lists(_route_words, max_size=8))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])  # shared set-up only
def test_dispatch_answers_as_the_full_parse_fuzzed(both_routes, argv):
    dispatched, full = both_routes(argv)
    assert dispatched == full


_STRATEGY_PARSER = cli.build_parser()
_TEXT_VALUES = {  # the str-valued options; int and choice options draw from their actions
    "lattice": ["og6", "kum:2", "kum:5"],
    "vector": ["1,0,0,0,0,0,0,0", "0,0,1,1,0,0,0", "1,2,0,0,0,0,1"],
    "file": ["pairing.json"],
    "d": ["2", "3,3", "2,4"],
    "a": ["0;(1);(0)", "1/2;(1,0);(0,1)", "0;(0,1);(1,3)"],
    "b": ["0;(0);(1)", "0;(1,1);(0,1)", "0;(2,1);(1,0)"],
    "elem": ["0;(1);(0)", "1/3;(1,2);(0,1)", "0;(1,0);(2,1)"],
}


@st.composite
def _well_formed_argvs(draw):
    """An argv argparse accepts, built from a subcommand parser's own actions:
    every required option and a random set of the others, each once, as
    --name=value or --name value, the positional among them, in any order."""
    commands = _STRATEGY_PARSER.subcommands
    command = draw(st.sampled_from(sorted(commands)))
    groups = []
    for action in commands[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.choices is not None:
            value = draw(st.sampled_from(sorted(action.choices)))
        elif action.type is int:
            value = str(draw(st.integers(-40, 40)))
        else:
            value = draw(st.sampled_from(_TEXT_VALUES.get(action.dest, [""])))
        if not action.option_strings:
            groups.append([value])
        elif action.required or draw(st.booleans()):
            option = action.option_strings[0]
            groups.append([option] if action.nargs == 0 else
                          draw(st.sampled_from([[f"{option}={value}"], [option, value]])))
    return [command] + [word for group in draw(st.permutations(groups)) for word in group]


@given(_well_formed_argvs())
def test_exact_path_builds_the_full_parse_namespace(argv):
    full = vars(_STRATEGY_PARSER.parse_args(argv))
    assert vars(cli._parse(argv)) == full
    # the exact path answers unless a negative value follows its option name
    # as a word of its own, which argparse takes and the exact path declines
    fields = cli._EXACT[argv[0]][0]
    exact = cli._exact_parse(argv[0], argv[1:])
    if all(w.partition("=")[0] in fields for w in argv[1:] if w.startswith("-")):
        assert exact is not None and vars(exact) == full
    else:
        assert exact is None


@given(_well_formed_argvs())
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])  # shared set-up only
def test_exact_path_answers_as_the_full_parse(both_routes, argv):
    dispatched, full = both_routes(argv)
    assert dispatched == full


def _action_row(action):
    return (action.option_strings, action.dest, action.nargs, action.const, action.type,
            action.choices, action.required, action.default, action.help, action.metavar)


def test_the_parser_and_the_exact_parse_read_one_table():
    # build_parser has exactly the table's arguments, and the exact parse reads
    # each as argparse does: an argument added in one place and not the other,
    # or read differently, fails here
    parser = cli.build_parser()
    assert list(parser.subcommands) == list(cli._COMMANDS) and len(cli._COMMANDS) == 8
    for name, (handler, _, arguments) in cli._COMMANDS.items():
        sub = parser.subcommands[name]
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        expected = []
        for arg, spec in arguments:
            flag, option = spec.get("action") == "store_true", arg.startswith("-")
            expected.append(([arg] if option else [], arg.lstrip("-"), 0 if flag else None,
                             True if flag else None, spec.get("type"), spec.get("choices"),
                             spec.get("required", not option), False if flag else None,
                             spec.get("help"), spec.get("metavar")))
        assert [_action_row(a) for a in actions] == expected, name
        assert sub.get_default("handler") is handler
        fields, required, defaults = cli._EXACT[name]
        # an option's conversion is the one argparse calls: its type, through the registry
        assert fields == {
            (a.option_strings or [None])[0]: (
                a.dest, None if a.nargs == 0 else sub._registry_get("type", a.type, a.type)
                if a.type else str, a.choices) for a in actions}, name
        assert required == {a.dest for a in actions if a.required}, name
        assert defaults == {"handler": handler, **{a.dest: a.default for a in actions}}, name


def test_one_request_is_one_parse(capsys, monkeypatch):
    # at most one: a well-formed request is parsed by none, a declined one by
    # the full parse alone (the top-level parser, then its subcommand's)
    cli._parser()  # built before counting, as by an earlier declined request
    parse_known_args = argparse.ArgumentParser.parse_known_args
    calls = []

    def counted(parser, *args, **kwargs):
        calls.append(parser.prog)
        return parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run_cli(capsys, "rank4", "--e", "10")[0] == 0
    assert run_cli(capsys, "og6", "--div=1", "--q", "2", "--json")[0] == 0
    assert calls == []
    for argv, code, command in [
        (["rank4", "--e", "10", "--js"], 0, "rank4"),  # an abbreviation
        (["og6", "--div", "1", "--q", "-4"], 0, "og6"),  # a value that starts with a dash
        (["kummer", "-h"], 0, "kummer"),
        (["og6", "--div", "1"], 2, "og6"),  # a missing option
        (["rank4", "--e", "10", "extra"], 2, "rank4"),  # an unrecognized word
    ]:
        calls.clear()
        assert run_cli(capsys, *argv)[0] == code
        assert calls == ["hktheta", f"hktheta {command}"], argv


# ---------------------------------------------------------------------------
# process-level entry points


def test_usage_errors(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2
    code, _, _ = run_cli(capsys, "unknown-command")
    assert code == 2
    code, _, _ = run_cli(capsys, "og6", "--div", "1")
    assert code == 2  # missing --q


@pytest.mark.parametrize("argv", [
    ["lattice", "x" * 5000, "--lattice=og6", "--vector=1"],
    ["sweep", "--only", "x" * 5000],
    ["rank4", "--e", "10", "x" * 5000],
    ["rank4", "--e", "x" * 5000],
], ids=["choice", "option-choice", "unrecognized", "int"])
def test_usage_errors_that_echo_a_long_value_stay_short(capsys, argv):
    # each printed one error line of over 5,000 characters
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.endswith("...\n")
    assert all(len(line) < 200 for line in err.splitlines()), err[:300]


def test_a_short_usage_message_is_argparse_own(capsys):
    # the cut leaves a message of a short value whole, with its list of choices
    choices = ", ".join(repr(s.__name__.removeprefix("sweep_")) for s in SWEEPS)
    assert run_cli(capsys, "sweep", "--only", "x") == (
        2, "", cli.build_parser().subcommands["sweep"].format_usage()
        + f"hktheta sweep: error: argument --only: invalid choice: 'x' (choose from {choices})\n")


@pytest.mark.parametrize("argv", [
    ["kummer", "--n", "9" * MAX_ENTRY_DIGITS, "--div", "7", "--q", "2"],
    ["lattice", "orbit", "--lattice=kum:" + "9" * 1000, "--vector=1,0,0,0,0,0,1"],
], ids=["kummer", "lattice-orbit"])
def test_domain_errors_that_echo_a_long_integer_stay_short(capsys, argv):
    # each printed one error line of over 1,000 characters
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("error: ") and err.endswith("...\n")
    assert err.count("\n") == 1 and len(err) - 1 <= 160, err[:300]


@pytest.mark.parametrize("argv", [
    ["lattice", "div", "--lattice=og6", "--vector=--"],
    ["lattice", "div", "--lattice=--", "--vector=1"],
    ["pairing", "cokernel", "--file=--"],
    ["sweep", "--only=--"],
    ["kummer", "--n=--", "--div=1", "--q=2"],
    ["rank4", "--e=--", "--js"],  # declined by the exact path for the abbreviation too
])
def test_option_value_of_a_double_dash_is_a_usage_error(capsys, argv):
    # argparse drops the "--" of --name=-- and stored [], which escaped main
    # as an AttributeError, TypeError or StopIteration traceback
    dest = next(w for w in argv if w.endswith("=--"))[2:-3]
    assert run_cli(capsys, *argv) == (2, "", cli.build_parser().format_usage()
                                      + f"hktheta: error: argument --{dest}: expected one argument\n")


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _child_env():
    """Environment in which a child interpreter imports the hktheta under test."""
    env = dict(os.environ)
    src = str(Path(hktheta.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


_IMPORT_PROBE = """
import contextlib, io, json, sys
from hktheta.cli import main
answers = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    answers.append((code, out.getvalue(), err.getvalue()))
print(json.dumps([answers, sorted({"argparse", "gettext"} & sys.modules.keys())]))
"""


def _probe(argvs):
    """Answers to argvs in one fresh interpreter, and which of argparse and
    gettext it imported; sweep timings are masked."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    answers, loaded = json.loads(proc.stdout)
    return [_masked(*answer) for answer in answers], loaded


def _masked(code, out, err):
    return code, re.sub(r"seconds=\d+\.\d\d", "seconds=S", out), err


def test_well_formed_requests_never_import_argparse(kum_pairing_file, monkeypatch):
    well_formed = [
        ["kummer", "--n", "2", "--div", "1", "--q", "6"],
        ["kummer", "--n", "2", "--div", "4", "--q", "2"],  # a domain error, exit 1
        ["og6", "--div", "2", "--q=-2", "--json"], ["rank4", "--e", "10", "--json"],
        ["lattice", "div", "--lattice", "kum:2", "--vector", DELTA2],
        ["pairing", "cokernel", "--file", kum_pairing_file],
        ["heisenberg", "commutator", "--d", "2", "--a", "0;(1);(0)", "--b", "0;(0);(1)"],
        ["schrodinger", "matrix", "--d", "3", "--elem", "1/3;(1);(2)"],
        ["sweep", "--only", "og6_model"],
    ]
    assert {argv[0] for argv in well_formed} == set(cli._COMMANDS)
    declined = [(["rank4", "--e", "10", "--js"], 0), (["kummer", "-h"], 0),
                (["og6", "--div", "1"], 2), ([], 2)]
    monkeypatch.setattr(cli, "_parse", _full_parse)  # argparse's answers are the reference
    reference = [_masked(*_answer(argv)) for argv in well_formed]
    assert [code for code, _, _ in reference] == [0, 1, 0, 0, 0, 0, 0, 0, 0]
    assert _probe(well_formed) == (reference, [])
    for argv, code in declined:
        full = _answer(argv)
        assert full[0] == code, argv
        assert _probe([argv]) == ([full], ["argparse", "gettext"]), argv


def _assert_rank4_script(env):
    proc = subprocess.run(
        ["hktheta", "rank4", "--e", "10", "--json"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["h0"] == 9


def test_module_execution():
    proc = subprocess.run(
        [sys.executable, "-m", "hktheta", "lattice", "div", "--lattice", "kum:2",
         "--vector", DELTA2],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "6\n"


def test_kummer_cross_check_survives_optimize():
    # python -O strips assert statements; the class-route cross-check must stay
    argv = ["kummer", "--n", "2", "--a1", "1", "--a2", "1", "--x", "0"]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "hktheta", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "cokernel: []" in proc.stdout.splitlines()

    planted = (
        "import sys\n"
        "import hktheta.cli as cli\n"
        "import hktheta.invariants as invariants\n"
        "div0_m = invariants.kum_div0_m\n"
        "invariants.kum_div0_m = lambda n, div, q: (div0_m(n, div, q)[0], 3)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", planted, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "internal check failed: class formula and (div, q) route disagree at "
        "(n, a1, a2, x) = (2, 1, 1, 0): (b1, b2) = (1, 1), (div0, m) = (1, 3)\n")


def test_kummer_criterion_disagreeing_with_the_cokernel_is_an_internal_error(
        capsys, monkeypatch):
    # the report's one cross-check is KUM's: its closed-form criterion against
    # the cokernel's triviality; a planted wrong criterion exits 3 with one line
    # that names the key and both answers, under python -O too
    argv = ["kummer", "--n", "2", "--div", "1", "--q", "6"]
    monkeypatch.setattr(invariants, "kum_is_heisenberg", lambda n, div, q: True)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (
        3, "", "internal check failed: Heisenberg criterion and cokernel triviality disagree "
        "at (n, div, q) = (2, 1, 6): criterion true, cokernel [3, 3]\n")

    planted = (
        "import sys\n"
        "import hktheta.invariants as invariants\n"
        "import hktheta.cli as cli\n"
        "invariants.kum_is_heisenberg = lambda n, div, q: True\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", planted, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", err)


def test_orbit_split_internal_check_is_an_internal_error_under_optimize(capsys, monkeypatch):
    # a planted second splitting fires kum_orbit_split's own check, by its text:
    # exit 3 with one line, in-process and under python -O, never the exit 1 of bad input
    argv = ["lattice", "orbit", "--lattice=kum:2", "--vector=12,6,0,0,0,0,5"]
    monkeypatch.setattr(lattices, "kum_split_candidates", lambda n, x0: [(3, 1), (1, 3)])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", "internal check failed: expected exactly one "
                                "splitting of 3, found [(1, 3), (3, 1)]\n")

    planted = (
        "import sys\n"
        "import hktheta.lattices as lattices\n"
        "import hktheta.cli as cli\n"
        "lattices.kum_split_candidates = lambda n, x0: [(3, 1), (1, 3)]\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", planted, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", err)


_NONDEGENERATE_DOC = {"orders": [3, 3], "matrix": [["0/1", "1/3"], ["2/3", "0/1"]]}


def test_oracle_check_failure_is_an_internal_error(capsys, monkeypatch, tmp_path):
    # an image bitset without the identity fails brute_cokernel's own check: exit
    # 3 with one line, never the exit 1 of bad input
    path = tmp_path / "pairing.json"
    path.write_text(json.dumps(_NONDEGENERATE_DOC))
    closure = finabgrp._image_closure
    monkeypatch.setattr(finabgrp, "_image_closure", lambda m, orders: closure(m, orders) & ~1)
    argv = ["pairing", "cokernel", "--oracle", "--file", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("internal check failed: ") and err.count("\n") == 1
    assert "p^j = 3^1" in err

    planted = (
        "import sys\n"
        "import hktheta.finabgrp as f\n"
        "import hktheta.cli as cli\n"
        "closure = f._image_closure\n"
        "f._image_closure = lambda m, orders: closure(m, orders) & ~1\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", planted, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", err)


@pytest.mark.parametrize("name, checks", [("kum_three_way", 1584), ("og6_trichotomy", 10_000)])
def test_sweep_cross_checks_survive_optimize(name, checks):
    # python -O strips assert statements; the cross-checks these sweeps reach
    # (brute_cokernel's counting, og6_class's classification) raise instead
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "hktheta", "sweep", "--only", name, "--json"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    [rec] = json.loads(proc.stdout)
    assert (rec["passed"], rec["failed"]) == (checks, 0)


def test_source_has_no_assert_statements():
    # python -O strips assert statements, so internal checks raise AssertionError
    src = Path(hktheta.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/hktheta: {', '.join(found)}"


def test_the_cli_builds_no_trusted_values():
    # Record._make, snf._smith, finabgrp._structure_from_cyclic_orders and
    # lattices._block_lattice skip validation, for values the package computed
    # itself: whatever the CLI reads from argv or a document must pass a validating
    # constructor, so cli.py names none of them, and reaches the lattices only
    # through the built-in _kum_lattice and _OG6
    trusted = {"_make", "_smith", "_structure_from_cyclic_orders", "_block_lattice"}

    def names(path):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        return ({getattr(node, "attr", getattr(node, "id", None)) for node in nodes}
                | {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                   for alias in node.names})

    src = Path(hktheta.__file__).resolve().parent
    assert not trusted & names(src / "cli.py")
    assert {"_kum_lattice", "_OG6"} <= names(src / "cli.py")
    seen = set().union(*(names(src / f) for f in ("heisenberg.py", "finabgrp.py", "lattices.py")))
    assert trusted <= seen  # the scan sees them


def test_kummer_key_rules_are_raised_in_kum_div0_m_only():
    # every rule of the four theta keys has one home, which raises it and
    # nothing else does: kum_div0_m for the Kummer (div, q) key and n, og6_cokernel
    # for the OG6 key, the record for OG6 and RANK4's n and RANK4's div, rank4_a
    # for RANK4's e, kum_class_invariants for the Kummer class key; an orbit x0 or a
    # realisability rule joins its key's home
    homes = {
        "invariants.kum_div0_m": {"KUM requires n >= 2", "divisibility {} must divide {}",
                                  "2*div0 = {} must divide q = {}"},
        "invariants.og6_cokernel": {
            "OG6 divisibility must be 1 or 2", "the square q is always even; odd input rejected",
            "OG6 divisibility 2 forces q = -2 or -4 mod 8"},
        "invariants.LineBundleInvariants.__init__": {
            "OG6 takes no parameter n", "RANK4 takes no parameter n",
            "RANK4 sheaves have divisibility 2",
            "family must be a Family member: KUM, OG6 or RANK4"},
        "invariants.rank4_a": {"need e > 0 with e = -6 mod 16, got {}"},
        "invariants.kum_class_invariants": {"need 1 <= a1 | a2",
                                            "primitivity requires gcd(a1, x) = 1"},
    }
    rules = set().union(*homes.values())

    def template(node):
        if isinstance(node, ast.Constant):
            return node.value
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)

    src = Path(hktheta.__file__).resolve().parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            # a method is named with its class
            for scope in top.body if isinstance(top, ast.ClassDef) else [top]:
                name = getattr(scope, "name", "<module>")
                if scope is not top:
                    name = f"{top.name}.{name}"
                found |= {
                    (f"{path.stem}.{name}", template(node))
                    for statement in ast.walk(scope) if isinstance(statement, ast.Raise)
                    for node in ast.walk(statement)
                    if isinstance(node, (ast.Constant, ast.JoinedStr)) and template(node) in rules
                }
    assert found == {(home, text) for home, texts in homes.items() for text in texts}


def test_trial_division_has_only_bounded_callers():
    # arith.factorint and arith.divisors use trial division, which has no
    # bound on large inputs; only callers whose input is bounded may use them
    bounded = {
        "arith.divisors",
        "finabgrp.brute_cokernel",  # group order <= 10**6
        "heisenberg.cyclotomic_poly",  # reached only from character_norm, dim <= 64
        "sweeps.sweep_kum_criterion",  # fixed range
        "sweeps.sweep_tensor_additivity",  # fixed range
    }
    src = Path(hktheta.__file__).resolve().parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            # methods count as their own top-level functions
            for scope in top.body if isinstance(top, ast.ClassDef) else [top]:
                name = getattr(scope, "name", getattr(top, "name", "<module>"))
                if f"{path.stem}.{name}" in bounded:
                    continue
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call):
                        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                        if callee in ("factorint", "divisors"):
                            found.add(f"{path.name}:{name}")
    assert not found, f"unbounded trial division in src/hktheta: {', '.join(sorted(found))}"


def _float_arithmetic(tree) -> list[int]:
    """Lines of true division (/, /=), float literals and float() calls in the tree."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        or isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"
    )


def test_source_has_no_float_arithmetic():
    # exact arithmetic: every value is an int, a QmodZ or a structure of them,
    # so src/hktheta divides with // only and never makes a float
    assert _float_arithmetic(ast.parse("a = 1 / 2\nb /= 3\nc = 0.5\nd = float(e)\n")) == [
        1, 2, 3, 4]
    src = Path(hktheta.__file__).resolve().parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py"))
        for line in _float_arithmetic(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, f"float arithmetic in src/hktheta: {', '.join(found)}"


def test_source_imports_only_the_standard_library():
    # hktheta has zero runtime dependencies: every absolute import is stdlib
    src = Path(hktheta.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not found, f"non-stdlib imports in src/hktheta: {', '.join(found)}"


def test_console_script_on_path(tmp_path):
    # Build the launcher an installer would write for the declared script, so
    # the script name, its module:attr target and main's exit-code contract are
    # checked from a source checkout, without installing the package.
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert "hktheta" in scripts
    module, attr = scripts["hktheta"].split(":")
    launcher = tmp_path / "hktheta"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)

    env = _child_env()
    env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))
    assert shutil.which("hktheta", path=env["PATH"]) == str(launcher)
    _assert_rank4_script(env)


@pytest.mark.skipif(shutil.which("hktheta") is None, reason="hktheta is not installed on PATH")
def test_installed_console_script():
    _assert_rank4_script(_child_env())
