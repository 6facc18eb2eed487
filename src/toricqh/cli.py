"""Batch command-line front end.

One invocation processes one polyhedron file and emits one report, as JSON
or text.  Output is deterministic: identical configuration produces
byte-identical output.

The command line is read against one option table, ``OPTIONS``: options
are ``--name value`` or ``--name=value`` with the name spelled in full, a
value may start with ``-`` (``--bfield -1,2,1``), and ``-h``/``--help``
prints the usage text built from the table.  A bad command line is an input
error like any other: one ``error:`` line on stderr and exit 2.

Exit codes: 0 success, 2 input/schema error, 3 precondition violation,
4 verified-property failure.  Running out of memory is a precondition
violation: one ``error:`` line and exit 3.  A reader that closes stdout
before the report is written does not change the exit code.  Integers and
fractions of any size are read and written exactly: ``main`` lifts the
interpreter's limit on int-to-decimal conversions for its process.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from operator import add
from types import SimpleNamespace

from . import jacobian as jc
from . import linalg
from . import monoid as mo
from . import presentation as pr
from . import topology as tp
from .errors import PreconditionError, SchemaError, VerificationError
from .polyhedra import (check_delzant, check_vertex_and_splitting,
                        exact_fraction, is_compact, monotone_normalization,
                        parse_polyhedron, polyhedron_to_json, require_delzant)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_PROPERTY = 4

COMMANDS = ("validate", "classical", "quantum", "cm", "jacobian", "invert",
            "audit")


# The command line: option name -> (default, allowed values or None, help
# line).  An option whose default is REQUIRED must be given, and one whose
# default is an int takes an integer.
REQUIRED = object()
OPTIONS = {
    "input": (REQUIRED, None, "polyhedron JSON file"),
    "command": (REQUIRED, COMMANDS, "what to compute"),
    "ring": ("z", None, "coefficient ring: z, q, or fp:P"),
    "cutoff": ("1", None, "jacobian: truncation cutoff g as an exact fraction"),
    "margin": (0, None, "quantum: extra T-degrees checked beyond 2*dim"),
    "bfield": (None, None,
               "quantum, jacobian: comma-separated unit rescalings, one per "
               "facet"),
    "perturb": (None, None,
                "jacobian: JSON file with one perturbation per facet"),
    "format": ("text", ("json", "text"), "report format"),
}


def usage() -> str:
    """The ``--help`` text: one entry per option of ``OPTIONS``."""
    lines = ["usage: toricqh --input FILE --command NAME [options]", "",
             "Exact cohomology presentations of toric varieties from "
             "Delzant polyhedra.", ""]
    for name, (default, choices, text) in OPTIONS.items():
        if default is REQUIRED:
            text += " (required)"
        elif default is not None:
            text += f" (default {default})"
        lines.append(f"  --{name:<9} {text}")
        if choices:
            lines.append(f"  {'':<11} {' | '.join(choices)}")
    lines.append(f"  {'-h, --help':<11} show this help and exit")
    return "\n".join(lines) + "\n"


def parse_args(argv):
    """Reads ``--name value`` and ``--name=value`` for the options of
    ``OPTIONS``; names are spelled in full, a value may start with ``-``,
    and the last of repeated options wins.  Returns a namespace with one
    attribute per option, or None when ``-h`` or ``--help`` is given.
    ``ring``, ``cutoff``, ``margin`` and ``bfield`` are parsed and checked
    for every command, whether it reads them or not: ``ring`` to (label,
    prime or None), ``cutoff`` to a Fraction, ``margin`` to an int at least
    0 and ``bfield`` to a tuple of Fractions or None.  Raises SchemaError on
    any other bad command line."""
    values = {}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            return None
        flag, attached, value = arg.partition("=")
        name = flag[2:]
        if not flag.startswith("--") or name not in OPTIONS:
            raise SchemaError(f"unrecognized argument {arg!r}")
        if not attached:
            value = next(args, None)
            if value is None:
                raise SchemaError(f"{flag} expects a value")
        values[name] = value
    for name, (default, choices, _) in OPTIONS.items():
        value = values.setdefault(name, default)
        if value is REQUIRED:
            raise SchemaError(f"--{name} is required")
        if choices and value not in choices:
            raise SchemaError(f"--{name} must be one of {', '.join(choices)}, "
                              f"got {value!r}")
        if isinstance(default, int) and isinstance(value, str):
            try:
                values[name] = int(value)
            except ValueError:
                raise SchemaError(f"--{name} expects an integer, "
                                  f"got {value!r}") from None
    values["ring"] = _parse_ring(values["ring"])
    values["cutoff"] = exact_fraction(values["cutoff"], "--cutoff")
    if values["margin"] < 0:
        raise SchemaError(f"--margin must be non-negative, "
                          f"got {values['margin']}")
    if values["bfield"] is not None:
        values["bfield"] = tuple(exact_fraction(part, "--bfield entry")
                                 for part in values["bfield"].split(","))
    return SimpleNamespace(**values)


def _parse_ring(text: str):
    """Returns (label, prime or None); label in {Z, Q, F<p>}."""
    t = text.lower()
    if t == "z":
        return "Z", None
    if t == "q":
        return "Q", None
    if t.startswith("fp:"):
        try:
            p = linalg.field_prime(t[3:])
        except PreconditionError as exc:
            raise SchemaError(f"--ring: {exc}") from None
        return f"F{p}", p
    raise SchemaError(f"unknown ring {text!r} (expected z, q, or fp:P)")


# What reading a JSON file can raise on bad input: a missing file, bytes
# that are not UTF-8, malformed JSON, or nesting deeper than the decoder's
# recursion limit.
_UNREADABLE = (OSError, UnicodeDecodeError, json.JSONDecodeError,
               RecursionError)


def _read_json(path: str, option: str):
    """The JSON value in the file at ``path``, read as bytes and decoded
    as UTF-8 once; a byte-order mark is malformed JSON, as it is to
    ``json.loads`` of a string."""
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"))
    except _UNREADABLE as exc:
        raise SchemaError(f"cannot read {option} {path}: {exc}") from exc


def _load_perturbations(path: str | None, P):
    if path is None:
        return None
    data = _read_json(path, "--perturb")
    if not isinstance(data, list) or len(data) != P.nfacets:
        raise SchemaError(f"perturbation file must hold a list of "
                          f"{P.nfacets} filtered elements")
    require_delzant(P)  # the terms decode through the cone monoid
    ctx = mo.monoid_for(P)
    return [mo.filtered_from_json(ctx, item) for item in data]


def _as_poly(entry):
    """Normalize a structure-constant entry (scalar for classical tables,
    coefficient tuple for quantum ones) to a coefficient tuple."""
    if isinstance(entry, tuple):
        return entry
    return (entry,) if entry else ()


def _structure_entries(names, structure):
    """Sorted human-readable products a*b = ... for the upper triangle."""
    lines = []
    for a in range(len(names)):
        for b in range(a, len(names)):
            rhs = [pr.tpoly_str(_as_poly(structure[a][b][i]), names[i])
                   for i in range(len(names)) if structure[a][b][i]]
            simple = "^" not in names[a] and "*" not in names[a]
            lhs = (f"{names[a]}^2" if a == b and simple
                   else f"{names[a]}*{names[b]}")
            lines.append(f"{lhs} = {' + '.join(rhs) if rhs else '0'}")
    return lines


def _structure_json(structure):
    return [[[_as_poly(entry) for entry in cell] for cell in row]
            for row in structure]


def cmd_validate(P, args):
    delzant = check_delzant(P)
    split = check_vertex_and_splitting(P)
    mono = monotone_normalization(P)
    report = {
        "command": "validate",
        "facets": P.nfacets,
        "dim": P.dim,
        "delzant": {"passed": delzant.passed,
                    "violations": list(delzant.violations)},
        "vertex": {"has_vertex": split.has_vertex,
                   "split_rank": split.split_rank,
                   "annihilator_basis": [list(b) for b in
                                         split.annihilator_basis]},
        "compact": is_compact(P) if split.has_vertex else None,
        "monotone": None if mono is None else {
            "translation": [str(x) for x in mono.translation],
            "offset": str(mono.offset),
        },
    }
    ok = delzant.passed and split.has_vertex
    return report, (EXIT_OK if ok else EXIT_PROPERTY)


def cmd_classical(P, args):
    cp = pr.classical_presentation(P, args.ring[0])
    names = cp.basis_names()
    report = {
        "command": "classical",
        "ring": cp.ring,
        "generators": [f"v{j}" for j in range(1, P.nfacets + 1)],
        "linear_relations": [list(row) for row in cp.linear_relations],
        "monomial_relations": [list(J) for J in cp.nonfaces],
        "ranks_by_monomial_degree": list(cp.ranks),
        "ranks_by_cohomological_degree": {str(2 * d): r
                                          for d, r in enumerate(cp.ranks)},
        "total_rank": cp.total_rank,
        "basis": list(names),
        "structure_constants": _structure_json(cp.structure),
        "relations_text": [
            mo.signed_sum((c, f"v{j}") for j, c in enumerate(row, 1)) + " = 0"
            for row in cp.linear_relations
        ] + ["*".join(f"v{j}" for j in J) + " = 0" for J in cp.nonfaces],
        "structure_text": _structure_entries(names, cp.structure),
    }
    return report, EXIT_OK


def _generator_products(Q):
    """Products v_a*v_b of the generator classes, named through a generator
    class when their coordinates are a scalar T-power multiple of its, else
    by their coordinates: those of nu_a + nu_b at T-degree 2, against those
    of nu_l at T-degree 1."""
    normals = Q.normalized.normals
    reductions = [Q.monomial_coords(1, nu) for nu in normals]
    names = Q.basis_names()
    lines = []
    for a, nu_a in enumerate(normals):
        for b in range(a, len(normals)):
            coords = Q.monomial_coords(2, tuple(map(add, nu_a, normals[b])))
            lhs = f"v{a + 1}^2" if a == b else f"v{a + 1}*v{b + 1}"
            rhs = _match_generator(coords, reductions)
            if rhs is None:
                rhs = " + ".join(pr.tpoly_str(poly, names[i])
                                 for i, poly in enumerate(coords) if poly) or "0"
            lines.append(f"{lhs} = {rhs}")
    return lines


def _match_generator(coords, reductions):
    """``c*T^s*v_l`` when ``coords`` is c * T^s times ``reductions[l]`` for
    one scalar c and one shift s >= 0, preferring c = 1, then c = -1, then
    the least l; None when no nonzero reduction matches.  Each T-polynomial
    has at most one term, its last (``QuantumPresentation.monomial_coords``),
    so scalars are compared by cross-multiplication."""
    best = None
    for l, red in enumerate(reductions):
        shift = None
        for poly, rpoly in zip(coords, red):
            if not poly or not rpoly:
                if poly or rpoly:
                    break
                continue
            if shift is None:
                shift, num, den = len(poly) - len(rpoly), poly[-1], rpoly[-1]
            elif (len(poly) - len(rpoly) != shift
                  or poly[-1] * den != num * rpoly[-1]):
                break
        else:
            if shift is not None and shift >= 0:
                key = (num != den, num != -den, l)
                if best is None or key < best[0]:
                    best = key, shift, Fraction(num, den)
    if best is None:
        return None
    (_, _, l), shift, scalar = best
    return pr.tpoly_str((0,) * shift + (scalar,), f"v{l + 1}")


def cmd_quantum(P, args):
    Q = pr.quantum_presentation(P, margin=args.margin, _rho=args.bfield)
    names = Q.basis_names()
    ks = pr.kodaira_spencer_table(Q)
    report = {
        "command": "quantum",
        "ring": Q.ring,
        "rho": [str(r) for r in Q.rho],
        "normalization": {"translation": [str(x) for x in Q.translation],
                          "scale": str(Q.scale)},
        "generators": [f"v{j}" for j in range(1, P.nfacets + 1)],
        "linear_relations": [list(row) for row in Q.linear_relations],
        "quantum_sr_relations": [str(r) for r in Q.qsr_relations],
        "basis": list(names),
        "basis_size": len(names),
        "verified_ranks_by_t_degree": list(Q.verified_ranks),
        "structure_constants": _structure_json(Q.structure),
        "structure_text": _structure_entries(names, Q.structure),
        "generator_products": _generator_products(Q),
        "kodaira_spencer": {
            "generators": {k: [list(p) for p in v]
                           for k, v in ks["generators"].items()},
        },
    }
    return report, EXIT_OK


def cmd_cm(P, args):
    """Cohen-Macaulayness of the Stanley-Reisner ring A over the field, the
    nerve's homology profile and the regular-sequence check, whose verdict
    is the Cohen-Macaulay verdict both ways:

    * the check runs with its default maxdeg = n + 2, so any report it
      returns proves A/(c) finite-dimensional: some degree is 0, or
      ``top_class_certificate`` proved degree n + 1 to be 0 (otherwise it
      raised VerificationError);
    * so the n forms c are a homogeneous system of parameters of A, of
      Krull dimension n, and for such a system the Hilbert function of
      A/(c) equals (1-t)^n H_A exactly when A is Cohen-Macaulay (Stanley,
      Combinatorics and Commutative Algebra, I.5);
    * so Reisner's criterion over the same field (Reisner, Adv. Math. 21,
      1976) can never disagree with the check, and only its witness string
      could.  No link is ranked, and the witness is null.

    A passing check also fixes the nerve's homology, which is then read off
    the h-vector instead of ranked.  Every vertex of a Delzant P meets
    exactly n facets, so the nerve K is pure of dimension n - 1, and
    Reisner's criterion at the empty face gives reduced homology 0 below
    degree n - 1.  So the Betti number in degree n - 1 is (-1)^(n-1) times
    the reduced Euler characteristic of K, which is h_n (Stanley, II.4),
    the expected quotient dimension in degree n.  A failing check ranks the
    face layers (``sphere_or_ball_profile``).
    """
    p = args.ring[1]
    K = tp.build_nerve(P)
    n = P.dim
    regseq = tp.regular_sequence_check(P, p)
    if not regseq.passed:
        profile = tp.sphere_or_ball_profile(P, p)
    elif K.dim != n - 1:
        raise VerificationError(f"the nerve has dimension {K.dim}, not "
                                f"{n - 1}")
    else:
        profile = tp._sphere_or_ball(P, (0,) * n + (regseq.expected_dims[n],))
    report = {
        "command": "cm",
        "field": regseq.field,
        "nerve_maximal_faces": sorted(sorted(f) for f in K.maximal),
        "cohen_macaulay": {"passed": regseq.passed, "witness": None},
        "profile": {"compact": profile.compact, "expected": profile.expected,
                    "match": profile.match,
                    "reduced_betti_from_degree_minus_1": list(profile.actual)},
        "regular_sequence": {"passed": regseq.passed,
                             "quotient_dims": list(regseq.quotient_dims),
                             "expected_dims": list(regseq.expected_dims)},
        "sr_hilbert": list(regseq.hilbert),
    }
    ok = profile.match and regseq.passed
    return report, (EXIT_OK if ok else EXIT_PROPERTY)


def cmd_jacobian(P, args):
    p = args.ring[1]  # over Z, freeness is checked over Q
    perts = _load_perturbations(args.perturb, P)
    rep = jc.jacobian_freeness(P, perturbations=perts, rho=args.bfield,
                               g=args.cutoff, p=p)
    report = {
        "command": "jacobian",
        "cutoff": str(rep.cutoff),
        "field": rep.field,
        "rho": [str(r) for r in rep.rho],
        "height_monoid": {"generators": [str(x) for x in rep.monoid_generators],
                          "levels_below_cutoff": [str(x) for x in rep.levels]},
        "weight_cap": str(rep.weight_cap),
        "escalations": rep.escalations,
        "dim_r": rep.dim_r,
        "classical_rank_m": rep.rank,
        "dim_s_window": rep.dim_s,
        "dim_quotient": rep.dim_quotient,
        "expected_dim": rep.rank * rep.dim_r,
        "free": rep.free,
        "basis": [pr.format_monomial(0, e) for e in rep.basis],
        "note": rep.note,
    }
    return report, (EXIT_OK if rep.free else EXIT_PROPERTY)


def cmd_invert(P, args):
    certificates = {}
    for j in range(1, P.nfacets + 1):
        cert = pr.divisor_inverse_certificate(P, j)
        certificates[f"v{j}"] = {
            "multiplicities": list(cert.multiplicities),
            "t_exponent": str(cert.t_exponent),
            "identity": str(cert),
        }
    return {"command": "invert", "certificates": certificates}, EXIT_OK


def cmd_audit(P, args):
    audit = pr.basis_independence_audit(P, seed=0, trials=3)
    consistency = []
    consistent = True
    if monotone_normalization(P) is not None:
        Q = pr.quantum_presentation(P)
        for g in (1, 2, 3):
            rep = jc.jacobian_freeness(P, g=g)
            expected = len(Q.basis) * rep.dim_r
            ok = rep.free and rep.dim_quotient == expected
            consistent = consistent and ok
            consistency.append({"cutoff": g, "jacobian_dim": rep.dim_quotient,
                                "quantum_basis_times_levels": expected,
                                "match": ok})
    report = {
        "command": "audit",
        "basis_independence": {"passed": audit.passed,
                               "details": list(audit.details)},
        "quantum_jacobian_consistency": consistency,
    }
    ok = audit.passed and consistent
    return report, (EXIT_OK if ok else EXIT_PROPERTY)


_DISPATCH = {
    "validate": cmd_validate,
    "classical": cmd_classical,
    "quantum": cmd_quantum,
    "cm": cmd_cm,
    "jacobian": cmd_jacobian,
    "invert": cmd_invert,
    "audit": cmd_audit,
}


# JSON's string escape with every non-ASCII character escaped, in C where
# the interpreter has it.
_escape = json.encoder.encode_basestring_ascii


def _fraction_json(x):
    """A Fraction as a report writes it: its integer, or its "p/q" string;
    TypeError for any other type, as ``json.dumps`` raises it."""
    if type(x) is Fraction:
        return x.numerator if x.denominator == 1 else str(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON "
                    f"serializable")


def _json_text(report) -> str:
    """``json.dumps(report, indent=2, sort_keys=True,
    default=_fraction_json) + "\n"``, written in one pass.  The report
    holds dicts with string keys, lists, tuples, strings, ints, bools, None
    and Fractions."""
    out = []
    put = out.append

    def write(x, pad):
        t = type(x)
        if t is int:
            put(str(x))
        elif t is str:
            put(_escape(x))
        elif t is list or t is tuple:
            if not x:
                put("[]")
                return
            inner = pad + "  "
            sep, comma = "[\n" + inner, ",\n" + inner
            for item in x:
                put(sep)
                write(item, inner)
                sep = comma
            put("\n" + pad + "]")
        elif t is dict:
            if not x:
                put("{}")
                return
            inner = pad + "  "
            sep, comma = "{\n" + inner, ",\n" + inner
            for key in sorted(x):
                put(f"{sep}{_escape(key)}: ")
                write(x[key], inner)
                sep = comma
            put("\n" + pad + "}")
        elif x is None:
            put("null")
        elif t is bool:
            put("true" if x else "false")
        else:
            write(_fraction_json(x), pad)

    write(report, "")
    put("\n")
    return "".join(out)


def _render_text(report) -> str:
    lines = []

    def compact(v):
        return json.dumps(v, separators=(",", ":"), default=_fraction_json)

    def walk(obj, indent=""):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, dict):
                    lines.append(f"{indent}{k}:")
                    walk(v, indent + "  ")
                elif isinstance(v, list):
                    if all(not isinstance(x, (dict, list)) for x in v):
                        lines.append(f"{indent}{k}: "
                                     + (", ".join(str(x) for x in v) or "[]"))
                    elif len(compact(v)) <= 100:
                        lines.append(f"{indent}{k}: {compact(v)}")
                    else:
                        lines.append(f"{indent}{k}:")
                        for item in v:
                            if isinstance(item, dict):
                                walk(item, indent + "    ")
                            else:
                                lines.append(f"{indent}  - {compact(item)}")
                else:
                    lines.append(f"{indent}{k}: {v}")

    walk(report)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.7 and later
        sys.set_int_max_str_digits(0)
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return _emit(usage(), EXIT_OK)
        P = parse_polyhedron(_read_json(args.input, "--input"))
        if args.bfield is not None and len(args.bfield) != P.nfacets:
            raise SchemaError(f"--bfield needs {P.nfacets} entries, "
                              f"got {len(args.bfield)}")
        report, code = _DISPATCH[args.command](P, args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except MemoryError:
        # leaving this block frees the traceback and what its frames hold,
        # so the error line below has memory to be written with
        report = None
    if report is None:
        print("error: out of memory: the input needs more memory than this "
              "process may use", file=sys.stderr)
        return EXIT_PRECONDITION

    report["input"] = polyhedron_to_json(P)
    if args.format == "json":
        text = _json_text(report)
    else:
        text = _render_text(report)
    return _emit(text, code)


def _emit(text: str, code: int) -> int:
    """Writes ``text`` to stdout and returns ``code``, which a reader that
    has closed stdout does not change."""
    try:
        print(text, end="")
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone: the text is lost but the verdict stands.
        # Point stdout at the null device so the flush at exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
