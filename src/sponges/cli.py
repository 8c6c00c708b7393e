"""Command-line front door and the JSON file formats.

Documents
---------

Sponge:              {"format_version": 1, "n": 3, "faces": [{"id", "dim"}...],
                      "covers": [{"upper", "lower", "incidence"}...],
                      "flags": {"non_compact": false}}
Polytope lattice:    {"format_version": 1, "dimension": 3,
                      "faces": [{"id", "dim"}...], "covers": [{"upper", "lower"}...]}
Simplicial complex:  {"format_version": 1, "vertices": [...], "facets": [[...]...]}
Extended f-vector:   {"format_version": 1, "n": 4, "f": [...], "b": 3}

Commands read a document from a file argument ("-" for stdin); ``gen`` writes
a document to stdout so its output can be piped back in.  Every other command
prints a single JSON report object with sorted keys (identical inputs give
byte-identical reports) embedding a sha256 digest of the canonical input.
Torsion coefficients serialize as decimal strings.  Exit codes: 0 pass,
1 check failed, 2 usage or input error.  ``--verbose`` adds a human summary
on stderr.  At module level this file imports only the standard library and
the exception classes of `errors`; each command imports the layers it uses
when it runs, so a command loads and compiles no other layer.  Each command
is declared once, as a row of `_COMMANDS` naming its handler, help and
arguments; the parser and dispatch both read that table.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from typing import TYPE_CHECKING

from .errors import (
    BadParameter,
    CorruptCheckpoint,
    InvalidSponge,
    MalformedComplex,
    NonCompactSponge,
    NotAcyclicSponge,
    NotCohenMacaulay,
    NotSimple,
    RankMismatch,
    UnknownBuiltin,
    UnknownElement,
)

if TYPE_CHECKING:  # annotations only: each command imports its own layers when it runs
    from .enumerative import ExtendedFVector
    from .generators import PolytopeFaceLattice
    from .poset import SimplicialComplex
    from .sponge import SpongeComplex

FORMAT_VERSION = 1

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# document (de)serialization


def serialize_sponge(z: SpongeComplex) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n": z.n,
        "faces": [
            {"id": f, "dim": z.faces.rank(f)} for f in z.faces.elements()
        ],
        "covers": [
            {"upper": u, "lower": l, "incidence": z.incidence[(u, l)]}
            for (u, l) in sorted(z.faces.covers(), key=lambda uv: (str(uv[0]), str(uv[1])))
        ],
        "flags": {"non_compact": z.non_compact},
    }


def _integer(value, field: str) -> int:
    """A JSON integer as it stands: a bool, a float or a string is refused."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, not {value!r}")
    return value


def _array(value, field: str) -> list:
    """A JSON array as it stands: a string or an object is refused."""
    if type(value) is not list:
        raise TypeError(f"{field} must be a list, not {value!r}")
    return value


def parse_sponge(doc: dict, name: str = "") -> SpongeComplex:
    from .poset import GradedPoset
    from .sponge import SpongeComplex

    try:
        n = _integer(doc["n"], "n")
        face_docs, cover_docs = _array(doc["faces"], "faces"), _array(doc["covers"], "covers")
        faces = [(str(f["id"]), _integer(f["dim"], "dim")) for f in face_docs]
        covers = [(str(c["upper"]), str(c["lower"])) for c in cover_docs]
        incidence = {
            (str(c["upper"]), str(c["lower"])): _integer(c["incidence"], "incidence")
            for c in cover_docs
        }
        flags = doc.get("flags", {})
        if not isinstance(flags, dict):
            raise TypeError("flags must be an object")
        non_compact = flags.get("non_compact", False)
        if type(non_compact) is not bool:
            raise TypeError(f"non_compact must be a boolean, not {non_compact!r}")
        return SpongeComplex(
            n=n,
            faces=GradedPoset(faces, covers),
            incidence=incidence,
            non_compact=non_compact,
            name=name,
        )
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"malformed sponge document: {err}") from err


def serialize_fvector(fv: ExtendedFVector) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n": fv.n,
        "f": list(fv.f),
        "b": fv.b,
    }


def parse_fvector(doc: dict) -> ExtendedFVector:
    from .enumerative import ExtendedFVector

    try:
        n, f, b = _integer(doc["n"], "n"), _array(doc["f"], "f"), _integer(doc["b"], "b")
        return ExtendedFVector(n=n, f=tuple(_integer(x, "f") for x in f), b=b)
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"malformed f-vector document: {err}") from err


def parse_simplicial(doc: dict) -> SimplicialComplex:
    from .poset import SimplicialComplex

    try:
        return SimplicialComplex(
            [str(v) for v in _array(doc["vertices"], "vertices")],
            [[str(v) for v in _array(f, "facet")] for f in _array(doc["facets"], "facets")],
        )
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"malformed simplicial-complex document: {err}") from err


def serialize_simplicial(k: SimplicialComplex) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "vertices": [str(v) for v in k.vertices],
        "facets": [[str(v) for v in k.face_vertices(f)] for f in k.facets],
    }


def parse_polytope_lattice(doc: dict) -> PolytopeFaceLattice:
    from .generators import PolytopeFaceLattice

    try:
        face_docs, cover_docs = _array(doc["faces"], "faces"), _array(doc["covers"], "covers")
        return PolytopeFaceLattice(
            dimension=_integer(doc["dimension"], "dimension"),
            faces=tuple((str(f["id"]), _integer(f["dim"], "dim")) for f in face_docs),
            covers=tuple((str(c["upper"]), str(c["lower"])) for c in cover_docs),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"malformed polytope-lattice document: {err}") from err


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    try:
        text = canonical_json(obj)
    except RecursionError as err:  # a document decoded just below the stack's limit
        raise InputError(f"document nests too deeply: {err}") from err
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# input loading


def _read_document(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(
            f"malformed JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except RecursionError as err:  # nested deeper than the interpreter's stack
        raise InputError(f"document nests too deeply: {err}") from err
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    return doc


def _load_sponge(path: str) -> tuple[SpongeComplex, dict]:
    doc = _read_document(path)
    if "faces" not in doc or "covers" not in doc:
        raise InputError("expected a sponge document with faces and covers")
    return parse_sponge(doc), doc


def _load_fvector_like(path: str) -> tuple[ExtendedFVector, dict]:
    """An f-vector, either direct or derived from a sponge document."""
    from .enumerative import fvector_of

    doc = _read_document(path)
    if "f" in doc and "faces" not in doc:
        return parse_fvector(doc), doc
    z = parse_sponge(doc)
    return fvector_of(z), doc


# ---------------------------------------------------------------------------
# subcommands

_COEFFICIENTS = {"z": "integers", "q": "rationals"}


def _report(args, input_obj, payload: dict, passed: bool = True) -> tuple[dict, int]:
    """The report of ``args.command`` on ``input_obj``, and its exit code."""
    report = {
        "format_version": FORMAT_VERSION,
        "command": args.command,
        "input_digest": digest(input_obj),
        **payload,
    }
    return report, EXIT_PASS if passed else EXIT_CHECK_FAILED


def _cmd_validate(args) -> tuple[dict, int]:
    from .sponge import validate_sponge

    z, doc = _load_sponge(args.file)
    report = validate_sponge(z)
    payload = {
        "valid": report.is_valid,
        "non_diamond_intervals": [list(x[:2]) for x in report.non_diamond_intervals],
        "diamond_violations": [
            {"upper": u, "lower": l, "sum": s} for u, l, s in report.diamond_violations
        ],
        "vertex_free_faces": list(report.vertex_free_faces),
    }
    return _report(args, doc, payload, report.is_valid)


def _cmd_homology(args) -> tuple[dict, int]:
    from .complexes import cohomology, homology, simplicial_homology

    doc = _read_document(args.file)
    coefficients = _COEFFICIENTS[args.coeff]
    if "facets" in doc:
        simplices = parse_simplicial(doc).simplices(augmented=args.reduced)
        h, co = simplicial_homology(simplices, coefficients)
    else:
        from .sponge import cellular_complex

        c = cellular_complex(parse_sponge(doc), augmented=args.reduced)
        h, co = homology(c, coefficients), cohomology(c, coefficients)
    payload = {
        "coefficients": coefficients,
        "reduced": bool(args.reduced),
        "homology": h.to_entries(),
        "cohomology": co.to_entries(),
    }
    return _report(args, doc, payload)


def _cmd_check_acyclic(args) -> tuple[dict, int]:
    from .sponge import check_acyclic

    z, doc = _load_sponge(args.file)
    report = check_acyclic(z)
    payload = {
        "acyclic": report.is_acyclic,
        "faces_ok": report.faces_ok,
        "lower_interval_failures": [f for f, _ in report.lower_interval_failures],
        "skeleton_acyclic_up_to": report.skeleton_acyclic_up_to,
        "b_number": report.b_number,
        "torsion_found": [[d, str(t)] for d, t in report.torsion_found],
    }
    return _report(args, doc, payload, report.is_acyclic)


def _cmd_check_cm(args) -> tuple[dict, int]:
    from .poset import check_cohen_macaulay
    from .sponge import incidence_signs

    z, doc = _load_sponge(args.file)
    coefficients = _COEFFICIENTS[args.coeff]
    report = check_cohen_macaulay(z.faces, coefficients, signs=incidence_signs(z))
    payload = {
        "is_cm": report.is_cm,
        "coefficients": coefficients,
        "witnesses": [
            {
                "chain": list(w.chain),
                "degree": w.degree,
                "free_rank": w.free_rank,
                "torsion": [str(t) for t in w.torsion],
                "torsion_only": w.torsion_only,
            }
            for w in report.witnesses
        ],
    }
    return _report(args, doc, payload, report.is_cm)


def _cmd_check_local_model(args) -> tuple[dict, int]:
    from .sponge import check_local_model

    z, doc = _load_sponge(args.file)
    report = check_local_model(z)
    payload = {
        "passed": report.passed,
        "violations": [
            {"face": f, "dim": k, "found": found, "expected": expected}
            for f, k, found, expected in report.violations
        ],
    }
    return _report(args, doc, payload, report.passed)


def _cmd_local_cohomology(args) -> tuple[dict, int]:
    from .sponge import local_cohomology

    z, doc = _load_sponge(args.file)
    coefficients = _COEFFICIENTS[args.coeff]
    try:
        prof = local_cohomology(z, args.face, coefficients)
    except UnknownElement as err:
        raise InputError(f"unknown face {err}") from err
    payload = {
        "face": args.face,
        "coefficients": coefficients,
        "local_cohomology": prof.to_entries(),
    }
    return _report(args, doc, payload)


def _cmd_dihomology(args) -> tuple[dict, int]:
    from .cosheaf import dihomology_check

    z, doc = _load_sponge(args.file)
    try:
        report = dihomology_check(z)
    except NotCohenMacaulay as err:
        payload = {"passed": False, "reason": "NotCohenMacaulay",
                   "witnesses": len(err.report.witnesses)}
        return _report(args, doc, payload, False)
    except RankMismatch as err:
        payload = {"passed": False, "reason": "RankMismatch", "r": err.r,
                   "cosheaf_rank": err.lhs, "order_complex_rank": err.rhs}
        return _report(args, doc, payload, False)
    payload = {
        "passed": report.passed,
        "cosheaf_ranks": list(report.cosheaf_ranks),
        "order_complex_ranks": list(report.order_complex_ranks),
        "concentrated": report.concentrated,
        "section_torsion": [[s, d, str(t)] for s, d, t in report.section_torsion],
    }
    return _report(args, doc, payload, report.passed)


def _cmd_fvector(args) -> tuple[dict, int]:
    from .enumerative import fvector_of

    z, doc = _load_sponge(args.file)
    fv = fvector_of(z)
    payload = {"n": fv.n, "f": list(fv.f), "b": fv.b}
    return _report(args, doc, payload)


def _cmd_hvector(args) -> tuple[dict, int]:
    from .enumerative import hvector_of

    fv, doc = _load_fvector_like(args.file)
    hv = hvector_of(fv)
    payload = {
        "n": fv.n,
        "h": list(hv.h),
        "symmetric": hv.symmetric,
        "nonnegative": hv.nonnegative,
    }
    return _report(args, doc, payload)


def _cmd_hilbert(args) -> tuple[dict, int]:
    from .enumerative import (
        betti_polynomial,
        betti_polynomial_alt,
        hilbert_equivariant,
        series_expand,
    )

    fv, doc = _load_fvector_like(args.file)
    if args.which == "equivariant":
        if args.expand < 0:
            raise InputError("--expand must be nonnegative")
        series = hilbert_equivariant(fv)
        expansion = series_expand(series, args.expand)
        payload = {
            "which": "equivariant",
            "numerator": list(series.numerator),
            "denominator_power": series.denominator_power,
            "expansion": list(expansion),
            "expansion_up_to": args.expand,
        }
    else:
        poly = (
            betti_polynomial(fv) if args.which == "betti" else betti_polynomial_alt(fv)
        )
        payload = {"which": args.which, "coefficients": list(poly)}
    return _report(args, doc, payload)


def _cmd_duality(args) -> tuple[dict, int]:
    from .enumerative import duality_check

    fv, doc = _load_fvector_like(args.file)
    report = duality_check(fv)
    payload = {
        "passed": report.passed,
        "identity_holds": report.identity_holds,
        "euler_consistent": report.euler_consistent,
        "betti": list(report.betti),
        "betti_alt": list(report.betti_alt),
    }
    return _report(args, doc, payload, report.passed)


def _cmd_gen(args) -> tuple[dict, int]:
    return _GEN_KINDS[args.kind][0](args), EXIT_PASS


def _gen_model(args) -> dict:
    from .generators import gen_model_sponge

    return serialize_sponge(gen_model_sponge(args.n))


def _gen_simplex_skeleton(args) -> dict:
    from .generators import gen_simplex_skeleton

    return serialize_simplicial(gen_simplex_skeleton(args.m, args.k))


def _gen_polytope_skeleton(args) -> dict:
    from .generators import gen_polytope_skeleton

    lattice = parse_polytope_lattice(_read_document(args.file))
    return serialize_sponge(gen_polytope_skeleton(lattice))


def _gen_trivalent(args) -> dict:
    from .generators import gen_trivalent_sponges

    docs = [serialize_sponge(z) for z in gen_trivalent_sponges(args.max)]
    return {
        "format_version": FORMAT_VERSION,
        "family": "trivalent",
        "max_vertices": args.max,
        "sponges": docs,
    }


def _gen_builtin(args) -> dict:
    from .enumerative import ExtendedFVector
    from .generators import builtin

    obj = builtin(args.name)
    if isinstance(obj, ExtendedFVector):
        return serialize_fvector(obj)
    return serialize_sponge(obj)


def _cmd_scan(args) -> tuple[dict, int]:
    from .search import scan, scan_fvector_space

    if args.fspace:
        if args.n is None or not args.bound:
            raise InputError("--fspace needs --n and --bound")
        bounds = args.bound
        if len(bounds) == 1:
            bounds = bounds * (args.n - 1)
        if args.n < 2 or len(bounds) != args.n - 1:
            raise InputError(f"--fspace needs n >= 2 and one or n-1 bounds, got n={args.n}")
        if min(bounds) < 0:
            raise InputError(f"--fspace needs nonnegative bounds, got {bounds}")
        summary = scan_fvector_space(args.n, bounds, checkpoint_path=args.checkpoint)
        parameters = {"mode": "fspace", "n": args.n, "bounds": list(bounds)}
    else:
        if args.family != "trivalent":
            raise InputError(f"unknown family {args.family!r}")
        if args.max is None:
            raise InputError("--family trivalent needs --max")
        from .generators import gen_trivalent_sponges

        summary = scan(
            gen_trivalent_sponges(args.max), checkpoint_path=args.checkpoint
        )
        parameters = {"mode": "family", "family": "trivalent", "max": args.max}
    payload = {
        "parameters": parameters,
        "note": (
            "acyclicity here is the combinatorial condition (face intervals and "
            "skeleton cohomology); fspace hits have no known sponge realization"
        ),
        "summary": summary.to_json(),
    }
    clean = not summary.ds_failures and not summary.nonneg_failures
    return _report(args, parameters, payload, clean)


# ---------------------------------------------------------------------------
# the command table, the parser and dispatch

# Each row is (handler, help, arguments): the arguments are (name, options)
# pairs for `add_argument`, or a nested table of kinds, each its own parser.
_FILE = ("file", {"help": "input document path, or - for stdin"})
_COEFF = ("--coeff", {"choices": list(_COEFFICIENTS), "default": "z"})
_REQUIRED_INT = {"type": int, "required": True}

_GEN_KINDS = {
    "model": (_gen_model, None, [("--n", _REQUIRED_INT)]),
    "simplex-skeleton": (_gen_simplex_skeleton, None,
                         [("--m", _REQUIRED_INT), ("--k", _REQUIRED_INT)]),
    "polytope-skeleton": (_gen_polytope_skeleton, None, [("file", {})]),
    "trivalent": (_gen_trivalent, None, [("--max", _REQUIRED_INT)]),
    "builtin": (_gen_builtin, None, [("name", {})]),
}

_COMMANDS = {
    "validate": (_cmd_validate, "check the sponge axioms", [_FILE]),
    "homology": (_cmd_homology, "(co)homology of a sponge or simplicial complex",
                 [_FILE, _COEFF, ("--reduced", {"action": "store_true"})]),
    "check-acyclic": (_cmd_check_acyclic, "acyclic-sponge verification", [_FILE]),
    "check-cm": (_cmd_check_cm, "Cohen-Macaulay test of the face poset", [_FILE, _COEFF]),
    "check-local-model": (_cmd_check_local_model, "cover-count regularity", [_FILE]),
    "local-cohomology": (_cmd_local_cohomology, "local cohomology at a face",
                         [_FILE, ("--face", {"required": True}), _COEFF]),
    "dihomology-check": (_cmd_dihomology, "cosheaf vs order-complex ranks", [_FILE]),
    "fvector": (_cmd_fvector, "extended f-vector of an acyclic sponge", [_FILE]),
    "hvector": (_cmd_hvector, "h-vector with symmetry/nonnegativity flags", [_FILE]),
    "hilbert": (_cmd_hilbert, "Hilbert series / Betti polynomials", [
        _FILE,
        ("--which", {"choices": ["equivariant", "betti", "betti-alt"], "default": "betti"}),
        ("--expand", {"type": int, "default": 10, "help": "expansion degree (equivariant)"}),
    ]),
    "duality-check": (_cmd_duality, "Betti-polynomial duality", [_FILE]),
    "gen": (_cmd_gen, "generate documents", _GEN_KINDS),
    "scan": (_cmd_scan, "conjecture scan over a family or f-vector grid", [
        ("--family", {"default": "trivalent"}),
        ("--max", {"type": int}),
        ("--fspace", {"action": "store_true"}),
        ("--n", {"type": int}),
        ("--bound", {"type": int, "nargs": "+"}),
        ("--checkpoint", {}),
    ]),
}


def _add_commands(parser, dest: str, table: dict) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (_, summary, arguments) in table.items():
        p = sub.add_parser(name, **({"help": summary} if summary else {}))
        if isinstance(arguments, dict):
            _add_commands(p, "kind", arguments)
            continue
        for argument, options in arguments:
            p.add_argument(argument, **options)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sponges",
        description="exact homological and enumerative checks for sponge face structures",
    )
    parser.add_argument("--verbose", action="store_true", help="human summary on stderr")
    _add_commands(parser, "command", _COMMANDS)
    return parser


def cli_dispatch(argv: list[str], stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return EXIT_INPUT_ERROR if err.code not in (0, None) else EXIT_PASS
    try:
        report, code = _COMMANDS[args.command][0](args)
    except (InputError, BadParameter, CorruptCheckpoint, MalformedComplex, NotSimple,
            UnknownBuiltin, MemoryError, OverflowError) as err:
        message = f"unknown name: {err}" if isinstance(err, UnknownBuiltin) else str(err)
        if isinstance(err, (MemoryError, OverflowError)):  # a size no list can take
            message = f"input too large: {message or type(err).__name__}"
        print(canonical_json({"error": message}), file=stdout)
        print(f"error: {message}", file=stderr)
        return EXIT_INPUT_ERROR
    except (InvalidSponge, NonCompactSponge, NotAcyclicSponge) as err:
        print(canonical_json({"error": str(err), "check_failed": True}), file=stdout)
        return EXIT_CHECK_FAILED
    print(canonical_json(report), file=stdout)
    if args.verbose:
        summary = {k: v for k, v in report.items() if not isinstance(v, (list, dict))}
        print(f"[{args.command}] {summary}", file=stderr)
    return code


def main() -> None:
    """Run one command, flush stdout and stderr, and end the process with
    `os._exit`, which skips the interpreter's teardown of its heap.  The
    package registers no exit hook or finalizer; the scanner closes its
    checkpoint file itself."""
    code = cli_dispatch(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
