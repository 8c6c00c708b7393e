"""The benchmark's workloads: input documents, command lists and output checks.

Each workload is a list of ``sponges`` commands run in order (one "pass").
Inputs are built from the workload seed: seed 0 keeps the documents exactly
as ``sponges gen`` writes them; any other seed relabels face and vertex
identifiers with a seeded permutation and shuffles the order of faces,
covers, vertices and facets.  That changes row and column order in every
boundary matrix, and so the pivot sequence, while every invariant checked
below stays fixed.

Every command's exit code and report is checked.  On seed 0 the sha256 of
each homological report must also match the digest recorded at the commit
that defined the benchmark, because CLI reports are promised to stay
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable

# Runs ``sponges gen <args>`` and returns its stdout.
Gen = Callable[[list[str]], str]

# sha256 of stdout on seed 0, keyed by step name.
SEED0_SHA256 = {
    "check-cm": "b43a56507da17b68765d780baf47218eb7dcd75be2dca7061a3b56112e076286",
    "dihomology-check": "c5faf7326e4d688c29690d4b58b9bf99b65ca09aca92e60de4fdab141e386475",
    "homology-order-complex": "3a6adc664f831ffeee057d812b2e531e49f92dba639103e956e504ce2b43c269",
    "check-acyclic": "078ab15c6ccb2197d17d02cc7e0183fc8ac513e701636c7362811d03532d68b3",
    "homology-skeleton": "43f2d850f2be37d5dff730e188090805df2f2d6eeb0c8424a0137d2ceefac77c",
}

# Connected cubic graphs on v = 4, 6, ..., 12 vertices (OEIS A002851).
CUBIC_CLASSES = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}


class CheckError(Exception):
    """A report that differs from the expected value."""


@dataclass
class Step:
    """One command of a pass and what its output must be."""

    name: str
    argv: list[str]
    expect_rc: int
    check: Callable[[dict, dict], None]  # (report, earlier reports by step name)


@dataclass
class Workload:
    setup: Callable[[Gen, Path, int], None]
    steps: list[Step]
    # Files a pass writes, removed before each pass so every pass starts fresh.
    scratch_files: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# document building


def relabel_sponge(doc: dict, seed: int) -> dict:
    """Seeded relabelling of a sponge document; seed 0 returns it unchanged."""
    if seed == 0:
        return doc
    rng = random.Random(seed)
    ids = [f["id"] for f in doc["faces"]]
    perm = list(range(len(ids)))
    rng.shuffle(perm)
    new = {old: f"f{p}" for old, p in zip(ids, perm)}
    faces = [{"id": new[f["id"]], "dim": f["dim"]} for f in doc["faces"]]
    covers = [
        {"upper": new[c["upper"]], "lower": new[c["lower"]], "incidence": c["incidence"]}
        for c in doc["covers"]
    ]
    rng.shuffle(faces)
    rng.shuffle(covers)
    return {**doc, "faces": faces, "covers": covers}


def order_complex_document(sponge: dict, seed: int) -> dict:
    """The order complex of a sponge's face poset as a simplicial document.

    Built here from the cover relation alone (facets are the maximal chains),
    so the order-complex homology is an independent check of the program's
    cellular homology.  Vertices are ordered by (dim, id) like the program's
    own order complex; a nonzero seed shuffles vertices, facets and the vertex
    order inside each facet.
    """
    dim = {f["id"]: f["dim"] for f in sponge["faces"]}
    uppers: dict[str, list[str]] = {}
    for c in sponge["covers"]:
        uppers.setdefault(c["lower"], []).append(c["upper"])
    vertices = sorted(dim, key=lambda v: (dim[v], v))
    facets: list[list[str]] = []
    stack = [[v] for v in reversed(vertices) if dim[v] == 0]
    while stack:
        chain = stack.pop()
        above = sorted(uppers.get(chain[-1], ()))
        if not above:
            facets.append(chain)
        stack.extend(chain + [u] for u in reversed(above))
    if seed:
        rng = random.Random(seed)
        rng.shuffle(vertices)
        rng.shuffle(facets)
        for facet in facets:
            rng.shuffle(facet)
    return {"format_version": 1, "vertices": vertices, "facets": facets}


def hypercube_lattice_document(d: int) -> dict:
    """Face lattice of the d-cube: words over {0, 1, *}, dim = number of *."""
    faces, covers = [], []
    for letters in product("01*", repeat=d):
        word = "".join(letters)
        faces.append({"id": word, "dim": word.count("*")})
        for pos, ch in enumerate(word):
            if ch == "*":
                for fixed in "01":
                    covers.append({"upper": word, "lower": word[:pos] + fixed + word[pos + 1:]})
    return {"format_version": 1, "dimension": d, "faces": faces, "covers": covers}


def write_json(path: Path, obj) -> None:
    # A new file, not a truncated old one: ext4 flushes a file that is
    # truncated and rewritten, which would add disk waits to the timings.
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(obj), encoding="utf-8")


def _gen_json(gen: Gen, args: list[str]) -> dict:
    try:
        return json.loads(gen(args))
    except json.JSONDecodeError as err:
        raise CheckError(f"sponges gen {' '.join(args)} wrote no JSON document: {err}") from err


def _setup_cm_model6(gen: Gen, work: Path, seed: int) -> None:
    doc = _gen_json(gen, ["model", "--n", "6"])
    write_json(work / "model6.json", relabel_sponge(doc, seed))


def _setup_oc_cube5(gen: Gen, work: Path, seed: int) -> None:
    write_json(work / "cube5-lattice.json", hypercube_lattice_document(5))
    doc = relabel_sponge(_gen_json(gen, ["polytope-skeleton", "cube5-lattice.json"]), seed)
    write_json(work / "cube5-skeleton.json", doc)
    write_json(work / "cube5-order-complex.json", order_complex_document(doc, seed))


def _setup_scan_trivalent(gen: Gen, work: Path, seed: int) -> None:
    # The scans read no documents, so the seed does not affect this workload.
    # Set-up still starts the program once, so setup_s keeps measuring the
    # same process start-up cost as on the other workloads.
    doc = _gen_json(gen, ["builtin", "f3_k33"])
    if doc.get("n") != 3:
        raise CheckError("gen builtin f3_k33 did not give an n=3 sponge")


# ---------------------------------------------------------------------------
# output checks


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _profile(entries: list[dict]) -> dict:
    """Free rank and torsion per degree, the label-free part of a profile."""
    return {e["degree"]: (e["free_rank"], tuple(e["torsion"])) for e in entries}


def _check_cm(report: dict, _: dict) -> None:
    _expect(report["is_cm"] is True, "model n=6 face poset is not Cohen-Macaulay")


def _check_dihomology(report: dict, _: dict) -> None:
    _expect(report["passed"] is True, "dihomology check did not pass")
    _expect(report["cosheaf_ranks"] == [0, 0, 0, 0, 1], "cosheaf ranks differ")
    _expect(report["order_complex_ranks"] == [0, 0, 0, 0, 1], "order-complex ranks differ")


# Reduced homology of the 5-cube 3-skeleton: Z^9 in degree 3 (10 facets - 1).
_CUBE5_REDUCED = {3: (9, ())}


def _check_oc_homology(report: dict, _: dict) -> None:
    _expect(_profile(report["homology"]) == _CUBE5_REDUCED, "order-complex homology differs")
    _expect(_profile(report["cohomology"]) == _CUBE5_REDUCED, "order-complex cohomology differs")


def _check_acyclic(report: dict, _: dict) -> None:
    _expect(report["acyclic"] is True, "cube skeleton is not acyclic")
    _expect(report["b_number"] == 9, "b-number differs from facets - 1")


def _check_skeleton_homology(report: dict, earlier: dict) -> None:
    oc = earlier["homology-order-complex"]
    for key in ("homology", "cohomology"):
        _expect(
            _profile(report[key]) == _profile(oc[key]),
            f"cellular {key} differs from the order complex's",
        )


def _check_trivalent(report: dict, _: dict) -> None:
    summary = report["summary"]
    records = summary["records"]
    _expect(summary["total"] == 112 and len(records) == 112, "expected 112 records")
    _expect(summary["errors"] == 0, "scan records errors")
    counts: dict[int, int] = {}
    for r in records:
        v = r["f"][0]
        counts[v] = counts.get(v, 0) + 1
        _expect(r["acyclic"] is True, f"{r['identifier']} is not acyclic")
        _expect(r["h"] == [1, v // 2 - 1, v // 2 - 1, 1], f"{r['identifier']} has h={r['h']}")
    _expect(counts == CUBIC_CLASSES, f"cubic class counts {counts}")


def _check_fspace(report: dict, _: dict) -> None:
    # acyclic_count is left unchecked: it counts unrealized grid points as
    # acyclic, which ROADMAP item 5 will correct.
    summary = report["summary"]
    _expect(summary["total"] == 10_000 and len(summary["records"]) == 10_000,
            "expected 10^4 fspace records")
    _expect(summary["errors"] == 4005, "fspace error count differs")


def _check_fspace_resumed(report: dict, earlier: dict) -> None:
    _check_fspace(report, earlier)
    _expect(report["summary"] == earlier["scan-fspace"]["summary"],
            "resumed fspace scan differs from the fresh one")


WORKLOADS = {
    "cm_model6": Workload(
        _setup_cm_model6,
        [
            Step("check-cm", ["check-cm", "model6.json"], 0, _check_cm),
            Step("dihomology-check", ["dihomology-check", "model6.json"], 0, _check_dihomology),
        ],
    ),
    "oc_cube5": Workload(
        _setup_oc_cube5,
        [
            Step("homology-order-complex",
                 ["homology", "--reduced", "cube5-order-complex.json"], 0, _check_oc_homology),
            Step("check-acyclic", ["check-acyclic", "cube5-skeleton.json"], 0, _check_acyclic),
            Step("homology-skeleton",
                 ["homology", "--reduced", "cube5-skeleton.json"], 0, _check_skeleton_homology),
        ],
    ),
    "scan_trivalent": Workload(
        _setup_scan_trivalent,
        [
            Step("scan-trivalent",
                 ["scan", "--family", "trivalent", "--max", "12", "--checkpoint", "A.jsonl"],
                 0, _check_trivalent),
            # Exits 1 by design: the raw f-vector grid has asymmetric h-vectors.
            Step("scan-fspace",
                 ["scan", "--fspace", "--n", "5", "--bound", "9", "--checkpoint", "B.jsonl"],
                 1, _check_fspace),
            Step("scan-fspace-resumed",
                 ["scan", "--fspace", "--n", "5", "--bound", "9", "--checkpoint", "B.jsonl"],
                 1, _check_fspace_resumed),
        ],
        scratch_files=["A.jsonl", "B.jsonl"],
    ),
}


def check_step(step: Step, rc: int, stdout: str, seed: int, earlier: dict) -> str | None:
    """None when the command's output is right, else the reason it is not."""
    if rc != step.expect_rc:
        return f"{step.name}: exit code {rc}, expected {step.expect_rc}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return f"{step.name}: stdout is not one JSON report"
    earlier[step.name] = report
    try:
        step.check(report, earlier)
    except (CheckError, KeyError, TypeError, IndexError) as err:
        return f"{step.name}: {type(err).__name__}: {err}"
    expected = SEED0_SHA256.get(step.name)
    if seed == 0 and expected:
        got = hashlib.sha256(stdout.encode()).hexdigest()
        if got != expected:
            return f"{step.name}: seed-0 report sha256 {got} differs from {expected}"
    return None
