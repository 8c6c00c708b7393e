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
on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from .complexes import HomologyProfile, MalformedComplex, cohomology, homology
from .cosheaf import NotCohenMacaulay, RankMismatch, dihomology_check
from .enumerative import (
    ExtendedFVector,
    NegativeB,
    NotAcyclicSponge,
    betti_polynomial,
    betti_polynomial_alt,
    duality_check,
    fvector_of,
    hilbert_equivariant,
    hvector_of,
    series_expand,
)
from .generators import (
    BadParameter,
    NotSimple,
    PolytopeFaceLattice,
    UnknownBuiltin,
    builtin,
    gen_model_sponge,
    gen_polytope_skeleton,
    gen_simplex_skeleton,
    gen_trivalent_sponges,
)
from .poset import (
    GradedPoset,
    SimplicialComplex,
    UnknownElement,
    check_cohen_macaulay,
)
from .search import CorruptCheckpoint, scan, scan_fvector_space
from .sponge import (
    InvalidSponge,
    NonCompactSponge,
    SpongeComplex,
    cellular_complex,
    check_acyclic,
    check_local_model,
    local_cohomology,
    validate_sponge,
)

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


def parse_sponge(doc: dict, name: str = "") -> SpongeComplex:
    try:
        n = _integer(doc["n"], "n")
        faces = [(str(f["id"]), _integer(f["dim"], "dim")) for f in doc["faces"]]
        covers = [(str(c["upper"]), str(c["lower"])) for c in doc["covers"]]
        incidence = {
            (str(c["upper"]), str(c["lower"])): _integer(c["incidence"], "incidence")
            for c in doc["covers"]
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
    try:
        n, f, b = _integer(doc["n"], "n"), doc["f"], _integer(doc["b"], "b")
        if type(f) is not list:
            raise TypeError(f"f must be a list, not {f!r}")
        return ExtendedFVector(n=n, f=tuple(_integer(x, "f") for x in f), b=b)
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"malformed f-vector document: {err}") from err


def parse_simplicial(doc: dict) -> SimplicialComplex:
    try:
        return SimplicialComplex(
            [str(v) for v in doc["vertices"]],
            [[str(v) for v in facet] for facet in doc["facets"]],
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
    try:
        return PolytopeFaceLattice(
            dimension=_integer(doc["dimension"], "dimension"),
            faces=tuple((str(f["id"]), _integer(f["dim"], "dim")) for f in doc["faces"]),
            covers=tuple((str(c["upper"]), str(c["lower"])) for c in doc["covers"]),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"malformed polytope-lattice document: {err}") from err


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def profile_json(p: HomologyProfile) -> list[dict]:
    return p.to_entries()


# ---------------------------------------------------------------------------
# input loading


def _read_document(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
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
    doc = _read_document(path)
    if "f" in doc and "faces" not in doc:
        return parse_fvector(doc), doc
    z = parse_sponge(doc)
    return fvector_of(z), doc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> tuple[dict, int]:
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
    return _report("validate", doc, payload), (
        EXIT_PASS if report.is_valid else EXIT_CHECK_FAILED
    )


def _cmd_homology(args) -> tuple[dict, int]:
    doc = _read_document(args.file)
    coefficients = "integers" if args.coeff == "z" else "rationals"
    if "facets" in doc:
        c = parse_simplicial(doc).chain_complex(augmented=args.reduced)
    else:
        c = cellular_complex(parse_sponge(doc), augmented=args.reduced)
    payload = {
        "coefficients": coefficients,
        "reduced": bool(args.reduced),
        "homology": profile_json(homology(c, coefficients)),
        "cohomology": profile_json(cohomology(c, coefficients)),
    }
    return _report("homology", doc, payload), EXIT_PASS


def _cmd_check_acyclic(args) -> tuple[dict, int]:
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
    return _report("check-acyclic", doc, payload), (
        EXIT_PASS if report.is_acyclic else EXIT_CHECK_FAILED
    )


def _cmd_check_cm(args) -> tuple[dict, int]:
    z, doc = _load_sponge(args.file)
    coefficients = "integers" if args.coeff == "z" else "rationals"
    report = check_cohen_macaulay(z.faces, coefficients)
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
    return _report("check-cm", doc, payload), (
        EXIT_PASS if report.is_cm else EXIT_CHECK_FAILED
    )


def _cmd_check_local_model(args) -> tuple[dict, int]:
    z, doc = _load_sponge(args.file)
    report = check_local_model(z)
    payload = {
        "passed": report.passed,
        "violations": [
            {"face": f, "dim": k, "found": found, "expected": expected}
            for f, k, found, expected in report.violations
        ],
    }
    return _report("check-local-model", doc, payload), (
        EXIT_PASS if report.passed else EXIT_CHECK_FAILED
    )


def _cmd_local_cohomology(args) -> tuple[dict, int]:
    z, doc = _load_sponge(args.file)
    coefficients = "integers" if args.coeff == "z" else "rationals"
    try:
        prof = local_cohomology(z, args.face, coefficients)
    except UnknownElement as err:
        raise InputError(f"unknown face {err}") from err
    payload = {
        "face": args.face,
        "coefficients": coefficients,
        "local_cohomology": profile_json(prof),
    }
    return _report("local-cohomology", doc, payload), EXIT_PASS


def _cmd_dihomology(args) -> tuple[dict, int]:
    z, doc = _load_sponge(args.file)
    try:
        report = dihomology_check(z)
    except NotCohenMacaulay as err:
        payload = {"passed": False, "reason": "NotCohenMacaulay",
                   "witnesses": len(err.report.witnesses)}
        return _report("dihomology-check", doc, payload), EXIT_CHECK_FAILED
    except RankMismatch as err:
        payload = {"passed": False, "reason": "RankMismatch", "r": err.r,
                   "cosheaf_rank": err.lhs, "order_complex_rank": err.rhs}
        return _report("dihomology-check", doc, payload), EXIT_CHECK_FAILED
    payload = {
        "passed": report.passed,
        "cosheaf_ranks": list(report.cosheaf_ranks),
        "order_complex_ranks": list(report.order_complex_ranks),
        "concentrated": report.concentrated,
        "section_torsion": [[s, d, str(t)] for s, d, t in report.section_torsion],
    }
    return _report("dihomology-check", doc, payload), (
        EXIT_PASS if report.passed else EXIT_CHECK_FAILED
    )


def _cmd_fvector(args) -> tuple[dict, int]:
    z, doc = _load_sponge(args.file)
    fv = fvector_of(z)
    payload = {"n": fv.n, "f": list(fv.f), "b": fv.b}
    return _report("fvector", doc, payload), EXIT_PASS


def _cmd_hvector(args) -> tuple[dict, int]:
    fv, doc = _load_fvector_like(args.file)
    hv = hvector_of(fv)
    payload = {
        "n": fv.n,
        "h": list(hv.h),
        "symmetric": hv.symmetric,
        "nonnegative": hv.nonnegative,
    }
    return _report("hvector", doc, payload), EXIT_PASS


def _cmd_hilbert(args) -> tuple[dict, int]:
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
    return _report("hilbert", doc, payload), EXIT_PASS


def _cmd_duality(args) -> tuple[dict, int]:
    fv, doc = _load_fvector_like(args.file)
    report = duality_check(fv)
    payload = {
        "passed": report.passed,
        "identity_holds": report.identity_holds,
        "euler_consistent": report.euler_consistent,
        "betti": list(report.betti),
        "betti_alt": list(report.betti_alt),
    }
    return _report("duality-check", doc, payload), (
        EXIT_PASS if report.passed else EXIT_CHECK_FAILED
    )


def _cmd_gen(args) -> tuple[dict, int]:
    if args.kind == "model":
        return serialize_sponge(gen_model_sponge(args.n)), EXIT_PASS
    if args.kind == "simplex-skeleton":
        return serialize_simplicial(gen_simplex_skeleton(args.m, args.k)), EXIT_PASS
    if args.kind == "polytope-skeleton":
        lattice = parse_polytope_lattice(_read_document(args.file))
        return serialize_sponge(gen_polytope_skeleton(lattice)), EXIT_PASS
    if args.kind == "trivalent":
        docs = [serialize_sponge(z) for z in gen_trivalent_sponges(args.max)]
        return (
            {
                "format_version": FORMAT_VERSION,
                "family": "trivalent",
                "max_vertices": args.max,
                "sponges": docs,
            },
            EXIT_PASS,
        )
    if args.kind == "builtin":
        obj = builtin(args.name)
        if isinstance(obj, ExtendedFVector):
            return serialize_fvector(obj), EXIT_PASS
        return serialize_sponge(obj), EXIT_PASS
    raise InputError(f"unknown generator {args.kind!r}")


def _cmd_scan(args) -> tuple[dict, int]:
    if args.fspace:
        if args.n is None or not args.bound:
            raise InputError("--fspace needs --n and --bound")
        bounds = args.bound
        if len(bounds) == 1:
            bounds = bounds * (args.n - 1)
        if args.n < 2 or len(bounds) != args.n - 1:
            raise InputError(f"--fspace needs n >= 2 and one or n-1 bounds, got n={args.n}")
        summary = scan_fvector_space(args.n, bounds, checkpoint_path=args.checkpoint)
        parameters = {"mode": "fspace", "n": args.n, "bounds": list(bounds)}
    else:
        if args.family != "trivalent":
            raise InputError(f"unknown family {args.family!r}")
        if args.max is None:
            raise InputError("--family trivalent needs --max")
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
    return _report("scan", parameters, payload), (
        EXIT_PASS if clean else EXIT_CHECK_FAILED
    )


def _report(command: str, input_obj, payload: dict) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "command": command,
        "input_digest": digest(input_obj),
        **payload,
    }


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sponges",
        description="exact homological and enumerative checks for sponge face structures",
    )
    parser.add_argument("--verbose", action="store_true", help="human summary on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file(p):
        p.add_argument("file", help="input document path, or - for stdin")

    add_file(sub.add_parser("validate", help="check the sponge axioms"))

    p = sub.add_parser("homology", help="(co)homology of a sponge or simplicial complex")
    add_file(p)
    p.add_argument("--coeff", choices=["z", "q"], default="z")
    p.add_argument("--reduced", action="store_true")

    add_file(sub.add_parser("check-acyclic", help="acyclic-sponge verification"))

    p = sub.add_parser("check-cm", help="Cohen-Macaulay test of the face poset")
    add_file(p)
    p.add_argument("--coeff", choices=["z", "q"], default="z")

    add_file(sub.add_parser("check-local-model", help="cover-count regularity"))

    p = sub.add_parser("local-cohomology", help="local cohomology at a face")
    add_file(p)
    p.add_argument("--face", required=True)
    p.add_argument("--coeff", choices=["z", "q"], default="z")

    add_file(sub.add_parser("dihomology-check", help="cosheaf vs order-complex ranks"))
    add_file(sub.add_parser("fvector", help="extended f-vector of an acyclic sponge"))
    add_file(sub.add_parser("hvector", help="h-vector with symmetry/nonnegativity flags"))

    p = sub.add_parser("hilbert", help="Hilbert series / Betti polynomials")
    add_file(p)
    p.add_argument(
        "--which", choices=["equivariant", "betti", "betti-alt"], default="betti"
    )
    p.add_argument("--expand", type=int, default=10, help="expansion degree (equivariant)")

    add_file(sub.add_parser("duality-check", help="Betti-polynomial duality"))

    p = sub.add_parser("gen", help="generate documents")
    gensub = p.add_subparsers(dest="kind", required=True)
    g = gensub.add_parser("model")
    g.add_argument("--n", type=int, required=True)
    g = gensub.add_parser("simplex-skeleton")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g = gensub.add_parser("polytope-skeleton")
    g.add_argument("file")
    g = gensub.add_parser("trivalent")
    g.add_argument("--max", type=int, required=True)
    g = gensub.add_parser("builtin")
    g.add_argument("name")

    p = sub.add_parser("scan", help="conjecture scan over a family or f-vector grid")
    p.add_argument("--family", default="trivalent")
    p.add_argument("--max", type=int)
    p.add_argument("--fspace", action="store_true")
    p.add_argument("--n", type=int)
    p.add_argument("--bound", type=int, nargs="+")
    p.add_argument("--checkpoint")

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "homology": _cmd_homology,
    "check-acyclic": _cmd_check_acyclic,
    "check-cm": _cmd_check_cm,
    "check-local-model": _cmd_check_local_model,
    "local-cohomology": _cmd_local_cohomology,
    "dihomology-check": _cmd_dihomology,
    "fvector": _cmd_fvector,
    "hvector": _cmd_hvector,
    "hilbert": _cmd_hilbert,
    "duality-check": _cmd_duality,
    "gen": _cmd_gen,
    "scan": _cmd_scan,
}


def cli_dispatch(argv: list[str], stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_INPUT_ERROR if err.code not in (0, None) else EXIT_PASS
    try:
        report, code = _HANDLERS[args.command](args)
    except InputError as err:
        print(canonical_json({"error": str(err)}), file=stdout)
        print(f"error: {err}", file=stderr)
        return EXIT_INPUT_ERROR
    except (UnknownBuiltin, UnknownElement) as err:
        print(canonical_json({"error": f"unknown name: {err}"}), file=stdout)
        return EXIT_INPUT_ERROR
    except (BadParameter, NegativeB, CorruptCheckpoint, MalformedComplex, NotSimple) as err:
        print(canonical_json({"error": str(err)}), file=stdout)
        return EXIT_INPUT_ERROR
    except (InvalidSponge, NonCompactSponge, NotAcyclicSponge) as err:
        print(canonical_json({"error": str(err), "check_failed": True}), file=stdout)
        return EXIT_CHECK_FAILED
    print(json.dumps(report, sort_keys=True, indent=None, separators=(",", ":")),
          file=stdout)
    if args.verbose:
        summary = {k: v for k, v in report.items() if not isinstance(v, (list, dict))}
        print(f"[{args.command}] {summary}", file=stderr)
    return code


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
