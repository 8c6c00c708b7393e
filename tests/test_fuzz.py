"""Seeded fuzzing of the CLI documents, arguments and checkpoints.

Small valid documents are mutated (a key deleted, a value replaced by
another JSON type or a small integer, a list item dropped or duplicated)
and fed to every command that reads a document; polytope lattices of
dimension 0-3 and their mutants go through `gen polytope-skeleton`.  The
integer arguments of `scan --fspace`, `hilbert` and `gen` are drawn at
random, and the lines of a scan checkpoint are mutated like documents before
the scan resumes from it.
Every run must exit with 0, 1 or 2 and print exactly one JSON object; no
exception may escape.  A mutant whose integer field became 1.5 or true must
exit with 2.  Integers stay in [-2, 6], so no run asks for a large
computation.
"""

import copy
import io
import json
import random

from sponges.cli import cli_dispatch, serialize_fvector, serialize_simplicial, serialize_sponge
from sponges.generators import builtin, gen_simplex_skeleton, hypercube_lattice, simplex_lattice

SEED = 20261017
MUTANTS_PER_DOCUMENT = 20
ARGUMENT_RUNS = 60


def _lattice_document(lattice):
    return {
        "format_version": 1,
        "dimension": lattice.dimension,
        "faces": [{"id": f, "dim": d} for f, d in lattice.faces],
        "covers": [{"upper": u, "lower": l} for u, l in lattice.covers],
    }


DOCUMENTS = {
    "f3_k33": serialize_sponge(builtin("f3_k33")),
    "cube_skeleton": serialize_sponge(builtin("cube_skeleton")),
    "model_n3": serialize_sponge(builtin("model_n3")),
    "hp2_fvector": serialize_fvector(builtin("hp2_fvector")),
    "simplex_skeleton": serialize_simplicial(gen_simplex_skeleton(3, 1)),
    "cube3_lattice": _lattice_document(hypercube_lattice(3)),
}


def _polygon_document(k):
    faces = [{"id": f"v{i}", "dim": 0} for i in range(k)] + [
        {"id": f"e{i}", "dim": 1} for i in range(k)] + [{"id": "P", "dim": 2}]
    covers = [{"upper": f"e{i}", "lower": f"v{(i + d) % k}"} for i in range(k) for d in (0, 1)]
    covers += [{"upper": "P", "lower": f"e{i}"} for i in range(k)]
    return {"format_version": 1, "dimension": 2, "faces": faces, "covers": covers}


# polytope lattices of dimension 0-3; below dimension 2 a skeleton is no sponge
LOW_DIMENSIONAL_LATTICES = [
    {"format_version": 1, "dimension": 0, "faces": [{"id": "p", "dim": 0}], "covers": []},
    {"format_version": 1, "dimension": 1,
     "faces": [{"id": "a", "dim": 0}, {"id": "b", "dim": 0}, {"id": "s", "dim": 1}],
     "covers": [{"upper": "s", "lower": "a"}, {"upper": "s", "lower": "b"}]},
    *(_polygon_document(k) for k in (3, 4, 5)),
    *(_lattice_document(simplex_lattice(d)) for d in (1, 2, 3)),
    *(_lattice_document(hypercube_lattice(d)) for d in (1, 2, 3)),
]

# FILE is the mutated document, FACE the first face of the original one
COMMANDS = [
    ["validate", "FILE"],
    ["homology", "FILE"],
    ["homology", "FILE", "--reduced", "--coeff", "q"],
    ["check-acyclic", "FILE"],
    ["check-cm", "FILE"],
    ["check-local-model", "FILE"],
    ["local-cohomology", "FILE", "--face", "FACE"],
    ["dihomology-check", "FILE"],
    ["fvector", "FILE"],
    ["hvector", "FILE"],
    ["hilbert", "FILE", "--which", "equivariant", "--expand", "4"],
    ["duality-check", "FILE"],
    ["gen", "polytope-skeleton", "FILE"],
]


def _paths(node, path=()):
    """The key path of every node of a JSON tree below its root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


def _mutate(doc, rng):
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        paths = list(_paths(doc))
        if not paths:
            break
        # pick a depth first, so top-level keys are mutated as often as leaves
        depth = rng.choice(sorted({len(p) for p in paths}))
        *parent_path, key = rng.choice([p for p in paths if len(p) == depth])
        parent = doc
        for step in parent_path:
            parent = parent[step]
        kind = rng.choice(["delete", "replace", "duplicate"])
        if kind == "delete":  # an object's key or a list's item
            del parent[key]
        elif kind == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:  # objects cannot hold a key twice, so they get a replacement
            parent[key] = rng.choice(
                [None, True, "o", 1.5, [], {}, rng.randint(-1, 6), rng.randint(-1, 6)]
            )
    return doc


def _run(argv, context):
    out, err = io.StringIO(), io.StringIO()
    try:
        code = cli_dispatch(argv, stdout=out, stderr=err)
    except Exception as exc:
        raise AssertionError(f"{argv} raised {exc!r} on {context}") from exc
    lines = out.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, code, context)
    assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), (argv, context)


def _run_all_commands(doc, path, face):
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        argv = [{"FILE": str(path), "FACE": face}.get(a, a) for a in command]
        _run(argv, json.dumps(doc))


def test_mutated_documents_never_traceback(tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "doc.json"
    for doc in DOCUMENTS.values():
        face = doc["faces"][0]["id"] if "faces" in doc else "v0"
        _run_all_commands(doc, path, face)
        for _ in range(MUTANTS_PER_DOCUMENT):
            _run_all_commands(_mutate(doc, rng), path, face)


def test_low_dimensional_lattices_never_traceback(tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "lattice.json"
    for doc in LOW_DIMENSIONAL_LATTICES:
        for mutant in [doc] + [_mutate(doc, rng) for _ in range(MUTANTS_PER_DOCUMENT)]:
            path.write_text(json.dumps(mutant))
            _run(["gen", "polytope-skeleton", str(path)], json.dumps(mutant))


def _small_ints(rng, count):
    return [str(rng.randint(-2, 5)) for _ in range(count)]


def _random_arguments(rng, fvector_path):
    kind = rng.choice(["scan", "hilbert", "model", "simplex", "trivalent"])
    if kind == "scan":
        bounds = _small_ints(rng, rng.randint(1, 3))
        return ["scan", "--fspace", "--n", *_small_ints(rng, 1), "--bound", *bounds]
    if kind == "hilbert":
        return ["hilbert", fvector_path, "--which", "equivariant",
                "--expand", *_small_ints(rng, 1)]
    if kind == "model":
        return ["gen", "model", "--n", *_small_ints(rng, 1)]
    if kind == "simplex":
        m, k = _small_ints(rng, 2)
        return ["gen", "simplex-skeleton", "--m", m, "--k", k]
    return ["gen", "trivalent", "--max", *_small_ints(rng, 1)]


def test_random_arguments_never_traceback(tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "fvector.json"
    path.write_text(json.dumps(DOCUMENTS["hp2_fvector"]))
    for _ in range(ARGUMENT_RUNS):
        argv = _random_arguments(rng, str(path))
        _run(argv, argv)


def test_mutated_checkpoints_never_traceback(tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "scan.jsonl"
    argv = ["scan", "--fspace", "--n", "3", "--bound", "1", "1", "--checkpoint", str(path)]
    _run(argv, "fresh scan")
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for _ in range(MUTANTS_PER_DOCUMENT):
        mutant = list(records)
        k = rng.randrange(len(mutant))
        mutant[k] = _mutate(mutant[k], rng)
        path.write_text("".join(json.dumps(r) + "\n" for r in mutant))
        _run(argv, mutant[k])


INTEGER_KEYS = {"n", "dim", "incidence", "b", "dimension"}


def _integer_paths(doc):
    """Paths of the integer fields of a document, the items of ``f`` included."""
    return [p for p in _paths(doc)
            if p[-1] in INTEGER_KEYS or (len(p) == 2 and p[0] == "f")]


def test_non_integer_mutants_exit_2(tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "doc.json"
    for name, doc in DOCUMENTS.items():
        face = doc["faces"][0]["id"] if "faces" in doc else "v0"
        paths = _integer_paths(doc)
        for field in rng.sample(paths, min(4, len(paths))):
            for value in (1.5, True):
                mutant = copy.deepcopy(doc)
                parent = mutant
                for step in field[:-1]:
                    parent = parent[step]
                parent[field[-1]] = value
                path.write_text(json.dumps(mutant))
                for command in COMMANDS:
                    argv = [{"FILE": str(path), "FACE": face}.get(a, a) for a in command]
                    out = io.StringIO()
                    code = cli_dispatch(argv, stdout=out, stderr=io.StringIO())
                    assert code == 2, (name, field, value, argv, out.getvalue())
