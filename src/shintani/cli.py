"""Command line front end.

Jobs are JSON documents (from a file, inline, or stdin); results are JSON
on stdout.  For a fixed job and seed the output bytes are identical
across runs.  Exit codes: 0 success, 64 schema violation, 65 math-layer
error, 66 truncation too small.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .cocycle_core import CocycleChecker, sigma_eval
from .cone_algebra import ConeCombo, sigma_decompose
from .errors import SchemaError, ShintaniError, TruncationTooSmall
from .exactnum import CoeffRing
from .linalg import frac, identity, mat_det
from .lvalues import (
    DirichletChar,
    build_real_quad,
    dirichlet_L_closed,
    dirichlet_L_via_cocycle,
    quad_L_value,
    s_coeffs,
    trivial_quad_schwartz,
)
from .solomon_hu import SchwartzFn, pair_combo, _coeff_to_json

EXIT_OK = 0
EXIT_SCHEMA = 64
EXIT_MATH = 65
EXIT_TRUNCATION = 66


def _require(doc, key, kind=None):
    if key not in doc:
        raise SchemaError(f"missing field '{key}'")
    val = doc[key]
    if kind is not None and not isinstance(val, kind):
        raise SchemaError(f"field '{key}' has the wrong type")
    return val


def _int_field(doc, key, default=None, minimum=None):
    """Integer field of a job document: bools, floats and strings are
    rejected, and so is a value below the minimum.  A missing field takes
    the default; without a default it is required."""
    val = _require(doc, key) if default is None else doc.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise SchemaError(f"field '{key}' must be an integer")
    if minimum is not None and val < minimum:
        raise SchemaError(f"field '{key}' must be at least {minimum}")
    return val


def _force_field(doc):
    """The optional 'force' flag of a quadratic job: a JSON boolean."""
    force = doc.get("force", False)
    if not isinstance(force, bool):
        raise SchemaError("field 'force' must be a boolean")
    return force


def _parse_matrix(doc):
    try:
        return tuple(tuple(frac(x) for x in row) for row in doc)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad matrix: {exc}")


def _parse_vector(doc):
    try:
        return tuple(frac(x) for x in doc)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad vector: {exc}")


def _parse_alphas(doc):
    if "alphas" in doc:
        alphas = [_parse_matrix(m) for m in _require(doc, "alphas", list)]
    elif "alpha" in doc:
        m = _parse_matrix(doc["alpha"])
        alphas = [identity(len(m)), m]
    else:
        raise SchemaError("need 'alphas' (list of matrices) or 'alpha'")
    if not alphas:
        raise SchemaError("need at least one matrix")
    size = len(alphas[0])
    if any(len(a) != size or any(len(row) != size for row in a) for a in alphas):
        raise SchemaError("matrices must all be square of one size")
    if len(alphas) != size:
        raise SchemaError("need n matrices of size n x n")
    return alphas


def _char_values(doc, ring, arity):
    """The 'values' table of a character document: each key is `arity`
    comma-separated integers, and each value is an integer exponent of
    zeta when zeta_order > 1, a rational otherwise."""
    table = {}
    for key, e in _require(doc, "values", dict).items():
        try:
            parts = tuple(int(x) for x in key.split(","))
        except ValueError:
            raise SchemaError(f"bad residue key {key!r}")
        if len(parts) != arity:
            raise SchemaError(f"residue key {key!r} must have {arity} entries")
        if ring.m > 1:
            if isinstance(e, bool) or not isinstance(e, int):
                raise SchemaError(f"exponent of {key!r} must be an integer")
            table[parts] = ring.zeta(e)
        else:
            try:
                table[parts] = ring.from_rat(frac(e))
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"bad value of {key!r}: {exc}")
    return table


def _parse_char(doc) -> DirichletChar:
    f = _int_field(doc, "modulus" if "modulus" in doc else "f", 1, 1)
    if doc.get("kind") == "trivial" or ("values" not in doc and "index" not in doc):
        return DirichletChar.trivial(f)
    if "index" in doc:
        chars = DirichletChar.enumerate(f)
        idx = _int_field(doc, "index")
        if not 0 <= idx < len(chars):
            raise SchemaError(f"character index out of range (0..{len(chars) - 1})")
        return chars[idx]
    ring = CoeffRing(_int_field(doc, "zeta_order", 1, 1))
    values = {k: v for (k,), v in _char_values(doc, ring, 1).items()}
    return DirichletChar(f, values, ring)


def _parse_quad_char(doc, K) -> SchwartzFn:
    if doc is not None and not isinstance(doc, dict):
        raise SchemaError("field 'char' must be an object")
    if doc is None or doc.get("kind") == "trivial":
        return trivial_quad_schwartz(K)
    f = _int_field(doc, "f", 1, 1)
    ring = CoeffRing(_int_field(doc, "zeta_order", 1, 1), K.D)
    return SchwartzFn(2, 1, f, _char_values(doc, ring, 2), ring)


def _value_json(v):
    if isinstance(v, Fraction):
        return str(v)
    if v.is_rational():
        return str(v.rational_part())
    return _coeff_to_json(v)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_eval_sigma(doc):
    alphas = _parse_alphas(doc)
    w = _parse_vector(_require(doc, "w", list))
    if len(w) != len(alphas[0]):
        raise SchemaError("point dimension differs from the matrix size")
    return {"value": sigma_eval(alphas, w)}


def _cmd_decompose(doc):
    alphas = _parse_alphas(doc)
    combo = sigma_decompose(alphas)
    return {"combo": combo.to_json(), "pieces": len(combo.terms)}


def _cmd_pair(doc):
    phi_doc = _require(doc, "phi", dict)
    for key, default in (("n", None), ("d", 1), ("f", 1), ("zeta_order", 1)):
        _int_field(phi_doc, key, default, 1)
    if phi_doc.get("sqrt") is not None:
        _int_field(phi_doc, "sqrt", None, 2)
    try:
        combo = ConeCombo.from_json(_require(doc, "combo", dict))
        phi = SchwartzFn.from_json(phi_doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad combo or test function: {exc!r}")
    dmax = _int_field(doc, "dmax", 4, 0)
    q = pair_combo(combo, phi, dmax)
    return {"series": q.to_json()}


def _cmd_verify_cocycle(doc):
    n = _int_field(doc, "n", None, 1)
    trials = _int_field(doc, "trials", 100, 0)
    samples = _int_field(doc, "samples", 20, 0)
    if doc.get("seed") is None:
        raise SchemaError("verify-cocycle requires a seed for reproducibility")
    seed = _int_field(doc, "seed")
    rng = random.Random(seed)
    failures = 0
    degenerate = 0
    for t in range(trials):
        degenerate_kind = rng.randrange(5) == 0
        if degenerate_kind:
            degenerate += 1
            alphas = random_degenerate_tuple(rng, n, n + 1)
        else:
            alphas = [random_invertible(rng, n) for _ in range(n + 1)]
        checker = CocycleChecker(alphas)
        for _ in range(samples):
            w = random_nonzero_vector(rng, n)
            if not checker.holds_at(w):
                failures += 1
    return {
        "n": n, "trials": trials, "samples": samples, "seed": seed,
        "degenerate": degenerate, "failures": failures,
    }


def _cmd_lvalue_q(doc):
    chi = _parse_char(_require(doc, "char", dict))
    r = _int_field(doc, "r", None, 1)
    route = doc.get("route", "both")
    if route not in ("closed", "cocycle", "both"):
        raise SchemaError("route must be closed, cocycle or both")
    dmax = _int_field(doc, "dmax", r, 0)
    out = {"r": r, "modulus": chi.f, "route": route}
    if route in ("closed", "both"):
        closed = dirichlet_L_closed(chi, r)
        out["value"] = _value_json(closed)
    if route in ("cocycle", "both"):
        via = dirichlet_L_via_cocycle(chi, r, dmax)
        out["value"] = _value_json(via)
        out["dmax"] = dmax
    if route == "both":
        out["agrees"] = closed == via
    return out


def _cmd_lvalue_quad(doc):
    field = _require(doc, "field", dict)
    D = _int_field(field, "D")
    K = build_real_quad(D, allow_narrow_failure=_force_field(doc))
    r = _int_field(doc, "r", None, 1)
    dmax = _int_field(doc, "dmax", 2 * r + 2, 0)
    phi = _parse_quad_char(doc.get("char"), K)
    value = quad_L_value(K, phi, r, dmax)
    return {
        "D": D, "r": r, "value": _value_json(value),
        "route": "cocycle", "Dmax": dmax,
    }


def _cmd_s_coeffs(doc):
    field = _require(doc, "field", dict)
    D = _int_field(field, "D")
    K = build_real_quad(D, allow_narrow_failure=_force_field(doc))
    rmax = _int_field(doc, "rmax", None, 0)
    dmax = _int_field(doc, "dmax", 2 * rmax + 2, 0)
    phi = _parse_quad_char(doc.get("char"), K)
    sc = s_coeffs(K, phi, rmax, dmax)
    return {
        "D": D, "rmax": rmax,
        "coeffs": [
            {"m": list(k), "value": _value_json(v)}
            for k, v in sorted(sc.table.items())
        ],
    }


# ---------------------------------------------------------------------------
# Random tuple generation for verification runs
# ---------------------------------------------------------------------------

def random_invertible(rng, n):
    while True:
        m = tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
            for _ in range(n)
        )
        if mat_det(m) != 0:
            return m


def random_nonzero_vector(rng, n, lo=-9, hi=9, den=3):
    while True:
        w = tuple(Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(n))
        if any(x != 0 for x in w):
            return w


def random_degenerate_tuple(rng, n, count):
    """Tuples stressing the degenerate configurations: repeated matrices,
    pairwise parallel first columns, or first columns inside a proper
    subspace."""
    kind = rng.randrange(3) if n >= 3 else rng.randrange(2)
    if kind == 0:
        base = [random_invertible(rng, n) for _ in range(count)]
        i = rng.randrange(count - 1)
        base[i + 1] = base[i]
        return base
    if kind == 1:
        v = random_nonzero_vector(rng, n)
        out = []
        for _ in range(count):
            c = Fraction(rng.choice([1, 2, 3]) * rng.choice([-1, 1]))
            out.append(_with_first_column(rng, n, tuple(c * x for x in v)))
        return out
    u1 = random_nonzero_vector(rng, n)
    u2 = random_nonzero_vector(rng, n)
    out = []
    for _ in range(count):
        a = Fraction(rng.randint(-2, 2))
        b = Fraction(rng.randint(-2, 2))
        col = tuple(a * x + b * y for x, y in zip(u1, u2))
        if all(x == 0 for x in col):
            col = u1
        out.append(_with_first_column(rng, n, col))
    return out


def _with_first_column(rng, n, col):
    while True:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        for i in range(n):
            m[i][0] = col[i]
        m = tuple(tuple(row) for row in m)
        if mat_det(m) != 0:
            return m


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "eval-sigma": _cmd_eval_sigma,
    "decompose": _cmd_decompose,
    "pair": _cmd_pair,
    "verify-cocycle": _cmd_verify_cocycle,
    "lvalue-q": _cmd_lvalue_q,
    "lvalue-quad": _cmd_lvalue_quad,
    "s-coeffs": _cmd_s_coeffs,
}


def run(command: str, doc: dict) -> dict:
    if command not in _COMMANDS:
        raise SchemaError(f"unknown command '{command}'")
    if not isinstance(doc, dict):
        raise SchemaError("job document must be a JSON object")
    return _COMMANDS[command](doc)


def _load_doc(args) -> dict:
    if args.inline is not None:
        text = args.inline
    elif args.input == "-":
        text = sys.stdin.read()
    elif args.input is not None:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = "{}"
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shintani",
        description="Exact cone cocycle evaluation, pairing, and L-values.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--input", help="path to a JSON job document, or - for stdin")
    parser.add_argument("--inline", help="inline JSON job document")
    parser.add_argument("--seed", type=int, help="RNG seed (verify commands)")
    parser.add_argument("--dmax", type=int, help="series truncation degree")
    parser.add_argument("--trials", type=int, help="number of verification trials")
    parser.add_argument("--samples", type=int, help="points sampled per trial")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="pretty", action="store_false", default=False,
                     help="compact JSON output (default)")
    fmt.add_argument("--pretty", dest="pretty", action="store_true",
                     help="indented JSON output")
    args = parser.parse_args(argv)

    try:
        doc = _load_doc(args)
        for key in ("seed", "dmax", "trials", "samples"):
            val = getattr(args, key)
            if val is not None and isinstance(doc, dict):  # run() rejects the rest
                doc[key] = val
        result = run(args.command, doc)
        code = EXIT_OK
    except SchemaError as exc:
        result = {"error": {"code": EXIT_SCHEMA, "message": str(exc), "context": args.command}}
        code = EXIT_SCHEMA
    except TruncationTooSmall as exc:
        result = {"error": {"code": EXIT_TRUNCATION, "message": str(exc), "context": args.command}}
        code = EXIT_TRUNCATION
    except (ShintaniError, ZeroDivisionError, ValueError) as exc:
        result = {"error": {"code": EXIT_MATH, "message": str(exc), "context": args.command}}
        code = EXIT_MATH
    if args.pretty:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(json.dumps(result, sort_keys=True, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main())
