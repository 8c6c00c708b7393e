import io
import json

from sponges.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_PASS,
    cli_dispatch,
    parse_sponge,
    serialize_fvector,
    serialize_sponge,
)
from sponges.generators import builtin, gen_model_sponge


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli_dispatch(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, _ = run(argv)
    return code, json.loads(out)


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _lattice_document(lattice, drop=(), extra_faces=()):
    return {
        "format_version": 1,
        "dimension": lattice.dimension,
        "faces": [{"id": f, "dim": d} for f, d in lattice.faces] + list(extra_faces),
        "covers": [{"upper": u, "lower": l} for u, l in lattice.covers if (u, l) not in drop],
    }


def test_roundtrip_sponge_document():
    z = builtin("g42_octahedron")
    doc = serialize_sponge(z)
    again = serialize_sponge(parse_sponge(doc))
    assert doc == again


def test_gen_builtin_and_hvector(tmp_path):
    code, doc = run_json(["gen", "builtin", "g42_octahedron"])
    assert code == EXIT_PASS
    path = write_doc(tmp_path, doc)
    code, report = run_json(["hvector", path])
    assert code == EXIT_PASS
    assert report["h"] == [1, 1, 2, 1, 1]
    assert report["symmetric"] is True
    assert report["input_digest"].startswith("sha256:")


def test_hilbert_betti_on_hp2(tmp_path):
    code, doc = run_json(["gen", "builtin", "hp2_fvector"])
    assert code == EXIT_PASS
    path = write_doc(tmp_path, doc)
    code, report = run_json(["hilbert", path, "--which", "betti"])
    assert code == EXIT_PASS
    assert report["coefficients"] == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_check_cm_on_model_n5(tmp_path):
    code, doc = run_json(["gen", "model", "--n", "5"])
    assert code == EXIT_PASS
    path = write_doc(tmp_path, doc)
    code, report = run_json(["check-cm", path])
    assert code == EXIT_PASS
    assert report["is_cm"] is True


def test_validate_and_exit_codes(tmp_path):
    doc = serialize_sponge(builtin("f3_k33"))
    path = write_doc(tmp_path, doc)
    code, report = run_json(["validate", path])
    assert code == EXIT_PASS and report["valid"] is True

    # flip one incidence on a 2-face of the octahedron: check fails, exit 1
    bad = serialize_sponge(builtin("g42_octahedron"))
    for cover in bad["covers"]:
        if cover["upper"].startswith("tri:"):
            cover["incidence"] = -cover["incidence"]
            break
    path = write_doc(tmp_path, bad, "bad.json")
    code, report = run_json(["validate", path])
    assert code == EXIT_CHECK_FAILED and report["valid"] is False


def test_malformed_json_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(["validate", str(path)])
    assert code == EXIT_INPUT_ERROR
    assert "line" in out  # position carried in the error


def test_non_utf8_document_exit_2(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n":3,"faces":[],"covers":[],"x":"\xff"}')
    for argv in (["validate", str(path)], ["gen", "polytope-skeleton", str(path)]):
        code, out, err = run(argv)
        assert code == EXIT_INPUT_ERROR, argv
        assert "utf-8" in json.loads(out)["error"] and err.startswith("error:"), argv


def test_unknown_builtin_exit_2():
    code, out, _ = run(["gen", "builtin", "nope"])
    assert code == EXIT_INPUT_ERROR


def test_semantically_malformed_documents_exit_2(tmp_path):
    # cover referencing a face that does not exist
    doc = {
        "format_version": 1,
        "n": 3,
        "faces": [{"id": "v", "dim": 0}],
        "covers": [{"upper": "ghost", "lower": "v", "incidence": 1}],
        "flags": {"non_compact": False},
    }
    code, out, _ = run(["validate", write_doc(tmp_path, doc)])
    assert code == EXIT_INPUT_ERROR
    # f-vector with the wrong number of face counts for its n
    bad_fv = {"format_version": 1, "n": 4, "f": [6, 9], "b": 4}
    code, out, _ = run(["hvector", write_doc(tmp_path, bad_fv, "fv.json")])
    assert code == EXIT_INPUT_ERROR


def test_unknown_face_exit_2(tmp_path):
    path = write_doc(tmp_path, serialize_sponge(gen_model_sponge(3)))
    code, out, _ = run(["local-cohomology", path, "--face", "zzz"])
    assert code == EXIT_INPUT_ERROR


def test_local_cohomology_model(tmp_path):
    path = write_doc(tmp_path, serialize_sponge(gen_model_sponge(4)))
    code, report = run_json(["local-cohomology", path, "--face", "o"])
    assert code == EXIT_PASS
    assert report["local_cohomology"] == [
        {"degree": 2, "free_rank": 3, "torsion": []}
    ]


def test_check_acyclic_failure_exit_1(tmp_path):
    from sponges.generators import graph_sponge

    z = graph_sponge(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    path = write_doc(tmp_path, serialize_sponge(z))
    code, report = run_json(["check-acyclic", path])
    assert code == EXIT_CHECK_FAILED
    assert report["acyclic"] is False


def test_homology_of_simplicial_document(tmp_path):
    doc = {
        "format_version": 1,
        "vertices": ["a", "b", "c"],
        "facets": [["a", "b"], ["a", "c"], ["b", "c"]],
    }
    path = write_doc(tmp_path, doc)
    code, report = run_json(["homology", path, "--reduced"])
    assert code == EXIT_PASS
    assert report["homology"] == [{"degree": 1, "free_rank": 1, "torsion": []}]


def test_homology_of_sponge_document(tmp_path):
    path = write_doc(tmp_path, serialize_sponge(builtin("f3_k33")))
    code, report = run_json(["homology", path, "--coeff", "q"])
    assert code == EXIT_PASS
    assert {"degree": 1, "free_rank": 4, "torsion": []} in report["homology"]


def test_dihomology_check_cli(tmp_path):
    path = write_doc(tmp_path, serialize_sponge(builtin("f3_k33")))
    code, report = run_json(["dihomology-check", path])
    assert code == EXIT_PASS
    assert report["cosheaf_ranks"] == [4, 1]
    assert report["order_complex_ranks"] == [4, 1]


def test_duality_check_cli(tmp_path):
    path = write_doc(
        tmp_path, {"format_version": 1, "n": 3, "f": [6, 9], "b": 5}
    )
    code, report = run_json(["duality-check", path])
    assert code == EXIT_CHECK_FAILED
    assert report["euler_consistent"] is False
    assert report["identity_holds"] is True


def test_gen_simplex_skeleton_and_homology(tmp_path):
    code, doc = run_json(["gen", "simplex-skeleton", "--m", "3", "--k", "1"])
    assert code == EXIT_PASS
    path = write_doc(tmp_path, doc)
    code, report = run_json(["homology", path, "--reduced"])
    assert report["homology"] == [{"degree": 1, "free_rank": 3, "torsion": []}]


def test_gen_trivalent_document():
    code, doc = run_json(["gen", "trivalent", "--max", "6"])
    assert code == EXIT_PASS
    assert len(doc["sponges"]) == 3


def test_gen_polytope_skeleton(tmp_path):
    from sponges.generators import hypercube_lattice

    path = write_doc(tmp_path, _lattice_document(hypercube_lattice(3)))
    code, out = run_json(["gen", "polytope-skeleton", path])
    assert code == EXIT_PASS
    dims = [f["dim"] for f in out["faces"]]
    assert dims.count(0) == 8 and dims.count(1) == 12


def test_scan_family_cli():
    code, report = run_json(["scan", "--family", "trivalent", "--max", "6"])
    assert code == EXIT_PASS
    assert report["summary"]["total"] == 3
    assert report["summary"]["ds_failures"] == []


def test_scan_fspace_cli():
    # raw f-vector grids do contain asymmetric/negative h points; they are
    # reported (exit 1) but every such record is marked unrealized
    code, report = run_json(["scan", "--fspace", "--n", "4", "--bound", "4"])
    assert code == EXIT_CHECK_FAILED
    assert report["summary"]["total"] == 125
    assert report["summary"]["ds_failures"]
    records = {r["identifier"]: r for r in report["summary"]["records"]}
    for ident in report["summary"]["ds_failures"]:
        assert records[ident]["realized"] is False
    assert "no known sponge realization" in report["note"]


def test_scan_checkpoint_via_cli(tmp_path):
    checkpoint = tmp_path / "scan.jsonl"
    code, first = run_json(
        ["scan", "--family", "trivalent", "--max", "6", "--checkpoint", str(checkpoint)]
    )
    assert code == EXIT_PASS
    recorded = checkpoint.read_text(encoding="utf-8")
    code, second = run_json(
        ["scan", "--family", "trivalent", "--max", "6", "--checkpoint", str(checkpoint)]
    )
    assert first == second
    assert checkpoint.read_text(encoding="utf-8") == recorded  # nothing re-run


def test_reports_are_byte_identical(tmp_path):
    path = write_doc(tmp_path, serialize_sponge(builtin("f3_k33")))
    _, out1, _ = run(["check-acyclic", path])
    _, out2, _ = run(["check-acyclic", path])
    assert out1 == out2


def test_verbose_writes_stderr(tmp_path):
    path = write_doc(tmp_path, serialize_sponge(builtin("f3_k33")))
    code, out, err = run(["--verbose", "check-acyclic", path])
    assert code == EXIT_PASS
    assert err.strip()


FSPACE = ["scan", "--fspace", "--n", "3", "--bound", "2", "2", "--checkpoint"]


def test_scan_resumes_after_torn_checkpoint_line(tmp_path):
    checkpoint = tmp_path / "scan.jsonl"
    code, fresh = run_json(FSPACE + [str(checkpoint)])
    recorded = checkpoint.read_bytes()
    checkpoint.write_bytes(recorded[:-20])  # the last append was cut short
    code_again, resumed = run_json(FSPACE + [str(checkpoint)])
    assert (code_again, resumed) == (code, fresh)
    # the torn line was truncated away before the missing record was appended
    assert checkpoint.read_bytes() == recorded


def test_scan_corrupt_checkpoint_line_exits_2(tmp_path):
    checkpoint = tmp_path / "scan.jsonl"
    run(FSPACE + [str(checkpoint)])
    for bad in ("{not json", "[1, 2]", '{"n": 3}'):
        lines = checkpoint.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = bad + "\n"
        checkpoint.write_text("".join(lines), encoding="utf-8")
        code, report = run_json(FSPACE + [str(checkpoint)])
        assert code == EXIT_INPUT_ERROR
        assert "line 2" in report["error"]


def test_scan_checkpoint_identifier_must_be_a_string(tmp_path):
    checkpoint = tmp_path / "scan.jsonl"
    checkpoint.write_text('{"identifier": [1], "n": 3}\n', encoding="utf-8")
    code, report = run_json(
        ["scan", "--fspace", "--n", "3", "--bound", "1", "1", "--checkpoint", str(checkpoint)]
    )
    assert code == EXIT_INPUT_ERROR
    assert "line 1" in report["error"]
    assert "identifier must be a string" in report["error"]


def test_scan_checkpoint_fields_must_have_their_types(tmp_path):
    checkpoint = tmp_path / "scan.jsonl"
    argv = ["scan", "--fspace", "--n", "3", "--bound", "1", "1", "--checkpoint", str(checkpoint)]
    fresh_code, fresh = run_json(argv)
    lines = checkpoint.read_text(encoding="utf-8").splitlines()

    def resume_with_second_record(**fields):
        record = json.dumps(dict(json.loads(lines[1]), **fields))
        checkpoint.write_text("\n".join([lines[0], record, *lines[2:]]) + "\n", encoding="utf-8")
        return run_json(argv)

    for key, value in (("h", "o"), ("n", "x"), ("f", "12"), ("acyclic", "yes"), ("b", 1.5),
                       ("n", True), ("h", [1, None]), ("realized", None), ("error", 3)):
        code, report = resume_with_second_record(**{key: value})
        assert code == EXIT_INPUT_ERROR, (key, value)
        assert "line 2" in report["error"] and f"{key} has the wrong type" in report["error"]
    # null where a field may be absent is a valid record
    code, report = resume_with_second_record(b=None, error=None, local_model=None)
    assert code == fresh_code and report["summary"]["total"] == fresh["summary"]["total"]


def test_scan_fspace_bad_sizes_exit_2():
    for argv in (["--n", "4", "--bound", "1", "2"], ["--n", "0", "--bound", "1"],
                 ["--n", "1", "--bound", "3"]):
        code, report = run_json(["scan", "--fspace", *argv])
        assert code == EXIT_INPUT_ERROR, argv
        assert "--fspace needs n >= 2" in report["error"]


def test_hilbert_negative_expand_exits_2(tmp_path):
    path = write_doc(tmp_path, serialize_fvector(builtin("hp2_fvector")))
    code, report = run_json(["hilbert", path, "--which", "equivariant", "--expand", "-1"])
    assert code == EXIT_INPUT_ERROR
    assert report == {"error": "--expand must be nonnegative"}


def test_unbalanced_sponges_exit_2(tmp_path):
    # model sponges have unbalanced edges, so the augmented complex is not one
    path = write_doc(tmp_path, serialize_sponge(builtin("model_n3")))
    code, report = run_json(["homology", path, "--reduced"])
    assert code == EXIT_INPUT_ERROR
    assert report["error"] == "edge '1' is unbalanced: its vertex incidences sum to 1, not 0"
    one_edge = {
        "n": 3,
        "faces": [{"id": "a", "dim": 0}, {"id": "e", "dim": 1}],
        "covers": [{"upper": "e", "lower": "a", "incidence": 1}],
    }
    code, report = run_json(["check-acyclic", write_doc(tmp_path, one_edge, "edge.json")])
    assert code == EXIT_INPUT_ERROR
    assert report["error"] == "edge 'e' is unbalanced: its vertex incidences sum to 1, not 0"
    # the first edge is balanced, the second is not
    two_edges = {
        "n": 3,
        "faces": [{"id": i, "dim": d} for i, d in [("a", 0), ("b", 0), ("d", 1), ("e", 1)]],
        "covers": [{"upper": u, "lower": l, "incidence": k}
                   for u, l, k in [("d", "a", -1), ("d", "b", 1), ("e", "a", 1), ("e", "b", 1)]],
    }
    code, report = run_json(["homology", write_doc(tmp_path, two_edges, "two.json")])
    assert code == 0
    code, report = run_json(["homology", "--reduced", write_doc(tmp_path, two_edges, "two.json")])
    assert code == EXIT_INPUT_ERROR
    assert report["error"] == "edge 'e' is unbalanced: its vertex incidences sum to 2, not 0"


def test_gen_polytope_skeleton_rejects_bad_lattices_exit_2(tmp_path):
    from sponges.generators import hypercube_lattice, simplex_lattice

    not_simple = _lattice_document(hypercube_lattice(4), drop={("**00", "*000")})
    code, report = run_json(["gen", "polytope-skeleton", write_doc(tmp_path, not_simple)])
    assert code == EXIT_INPUT_ERROR and "diamond" in report["error"]
    extra_vertex = _lattice_document(simplex_lattice(2), extra_faces=[{"id": "x", "dim": 0}])
    code, report = run_json(["gen", "polytope-skeleton", write_doc(tmp_path, extra_vertex)])
    assert code == EXIT_INPUT_ERROR and "b-number" in report["error"]
    point = {"format_version": 1, "dimension": 0, "faces": [{"id": "p", "dim": 0}], "covers": []}
    for low in (point, _lattice_document(simplex_lattice(1))):
        code, report = run_json(["gen", "polytope-skeleton", write_doc(tmp_path, low)])
        assert code == EXIT_INPUT_ERROR and "dimension >= 2" in report["error"], low
    code, out = run_json(["gen", "polytope-skeleton", write_doc(tmp_path, _lattice_document(
        hypercube_lattice(2)))])
    assert code == EXIT_PASS and [f["dim"] for f in out["faces"]] == [0, 0, 0, 0]


def test_non_object_flags_exit_2(tmp_path):
    doc = serialize_sponge(builtin("f3_k33"))
    doc["flags"] = []
    code, report = run_json(["validate", write_doc(tmp_path, doc)])
    assert code == EXIT_INPUT_ERROR and "flags" in report["error"]


def test_non_compact_flag_must_be_a_json_boolean(tmp_path):
    doc = serialize_sponge(builtin("f3_k33"))
    for value in ["false", 0, 1, None]:
        doc["flags"] = {"non_compact": value}
        code, report = run_json(["check-acyclic", write_doc(tmp_path, doc)])
        assert code == EXIT_INPUT_ERROR, value
        assert report["error"] == ("malformed sponge document: non_compact must be a "
                                   f"boolean, not {value!r}")
    doc["flags"] = {"non_compact": False}
    assert run(["check-acyclic", write_doc(tmp_path, doc)])[0] == EXIT_PASS


def test_integer_fields_must_be_json_integers(tmp_path):
    """n, dim, incidence, f, b and dimension are read as they stand, never coerced."""
    k33 = serialize_sponge(builtin("f3_k33"))
    for path, value in [(("covers", 0, "incidence"), -1.5), (("covers", 0, "incidence"), "-1"),
                        (("faces", 0, "dim"), 0.9), (("n",), 3.99), (("n",), True),
                        (("covers", 0, "incidence"), False)]:
        doc = json.loads(json.dumps(k33))
        *parent, key = path
        target = doc
        for step in parent:
            target = target[step]
        target[key] = value
        code, report = run_json(["check-acyclic", write_doc(tmp_path, doc)])
        assert code == EXIT_INPUT_ERROR, (path, value)
        assert report["error"] == (f"malformed sponge document: {path[-1]} must be an "
                                   f"integer, not {value!r}")
    assert run(["check-acyclic", write_doc(tmp_path, k33)])[0] == EXIT_PASS
    for doc, field in [({"n": 4, "f": "367", "b": 3}, "f must be a list"),
                       ({"n": 4, "f": [3.7, 6, 7], "b": 3}, "f must be an integer"),
                       ({"n": 4, "f": [3, 6, 7], "b": 3.9}, "b must be an integer"),
                       ({"n": 4.0, "f": [3, 6, 7], "b": 3}, "n must be an integer"),
                       ({"n": 4, "f": [3, True, 7], "b": 3}, "f must be an integer")]:
        code, report = run_json(["hvector", write_doc(tmp_path, doc, "fv.json")])
        assert code == EXIT_INPUT_ERROR and field in report["error"], doc
    fine = {"n": 4, "f": [3, 6, 7], "b": 3}
    assert run(["hvector", write_doc(tmp_path, fine, "fv.json")])[0] == EXIT_PASS
    from sponges.generators import simplex_lattice

    lattice = _lattice_document(simplex_lattice(3))
    for key, value in [("dimension", 3.0), ("dimension", "3")]:
        code, report = run_json(["gen", "polytope-skeleton",
                                 write_doc(tmp_path, {**lattice, key: value}, "lat.json")])
        assert code == EXIT_INPUT_ERROR and "dimension must be an integer" in report["error"]
    lattice["faces"][0]["dim"] = 0.0
    code, report = run_json(["gen", "polytope-skeleton", write_doc(tmp_path, lattice, "lat.json")])
    assert code == EXIT_INPUT_ERROR and "dim must be an integer" in report["error"]
