import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sponges

from sponges import errors, exactalg, search
from sponges.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_PASS,
    cli_dispatch,
    parse_sponge,
    serialize_fvector,
    serialize_simplicial,
    serialize_sponge,
)
from sponges.cosheaf import NotCohenMacaulay, build_cosheaf, dihomology_check
from sponges.generators import builtin, gen_model_sponge, gen_simplex_skeleton
from sponges.poset import check_cohen_macaulay
from sponges.sponge import (
    NonCompactSponge,
    NotAcyclicSponge,
    check_acyclic,
    realization_cross_check,
)

from test_cosheaf import doubled_edge_sponge
from test_interval_homology import rp2_wedge_sponge


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


def test_stdin_document_is_strict_utf8(tmp_path, monkeypatch):
    """A document on stdin reads like the same bytes by path: valid UTF-8 gives
    the same report, and a raw 0xff byte in a face id exits 2."""
    doc = {"format_version": 1, "n": 2, "faces": [{"id": "v~", "dim": 0}], "covers": []}
    good = json.dumps(doc).encode()
    bad = good.replace(b"~", b"\xff")
    path = tmp_path / "doc.json"

    def both(data):
        path.write_bytes(data)
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        return run(["validate", "-"]), run(["validate", str(path)])

    piped, by_path = both(good)
    assert piped == by_path and piped[0] == EXIT_PASS
    for code, out, err in both(bad):
        assert code == EXIT_INPUT_ERROR and "utf-8" in json.loads(out)["error"], out


def test_deeply_nested_json_exits_2(tmp_path, monkeypatch):
    """JSON nested deeper than the interpreter's stack is an input error, by path
    and on stdin, never a traceback.  Each depth up to past the recursion limit
    either passes or is refused so; which depth is first refused, on decoding
    or on digesting, depends on the interpreter's version."""
    message = "document nests too deeply: maximum recursion depth exceeded"
    nested = "[" * 200_000 + "]" * 200_000
    path = tmp_path / "deep.json"
    for command in ("validate", "check-cm", "homology", "fvector"):
        for text in (nested, '{"faces": ' + nested + "}"):
            path.write_text(text)
            stdin = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
            monkeypatch.setattr(sys, "stdin", stdin)
            for source in (str(path), "-"):
                code, out, err = run([command, source])
                assert code == EXIT_INPUT_ERROR, (command, text[:10], source)
                assert json.loads(out)["error"].startswith(message), (command, source)
                assert err.startswith(f"error: {message}"), (command, source)
    point = json.dumps({"n": 3, "faces": [{"id": "v", "dim": 0}], "covers": []})
    for depth in range(1, sys.getrecursionlimit() + 200):
        path.write_text(point[:-1] + ', "x": ' + "[" * depth + "]" * depth + "}")
        code, out, err = run(["validate", str(path)])
        assert code in (EXIT_PASS, EXIT_INPUT_ERROR), depth
        if code == EXIT_INPUT_ERROR:
            assert json.loads(out)["error"].startswith(message), depth


def test_digest_of_a_too_deep_document_is_an_input_error():
    """A document decoded just below the stack's limit can be too deep to
    re-encode for its digest; that too is an input error."""
    from sponges import cli

    deep = []
    for _ in range(200_000):  # deeper than any interpreter's recursion limit
        deep = [deep]
    with pytest.raises(cli.InputError, match="^document nests too deeply: "):
        cli.digest({"faces": deep})


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
    # a facet naming a vertex the document does not list
    for reduced in ([], ["--reduced"]):
        stray = {"format_version": 1, "vertices": ["a", "b"], "facets": [["a", "b"], ["b", "z"]]}
        code, out, err = run(["homology", write_doc(tmp_path, stray, "k.json"), *reduced])
        message = ("malformed simplicial-complex document: facet 1 names vertex 'z', "
                   "which is not among the vertices")
        assert (code, json.loads(out)["error"], err) == (EXIT_INPUT_ERROR, message,
                                                         f"error: {message}\n")


def test_unknown_face_exit_2(tmp_path):
    path = write_doc(tmp_path, serialize_sponge(gen_model_sponge(3)))
    code, out, _ = run(["local-cohomology", path, "--face", "zzz"])
    assert code == EXIT_INPUT_ERROR


def test_every_input_error_is_named_on_stderr(tmp_path, monkeypatch):
    """Each exit-2 exception class prints ``error: <message>`` on stderr, the
    message that the JSON on stdout carries."""
    from sponges import cli
    from sponges.generators import simplex_lattice

    model = write_doc(tmp_path, serialize_sponge(gen_model_sponge(3)), "model.json")
    fv = write_doc(tmp_path, serialize_fvector(builtin("hp2_fvector")), "fv.json")
    extra_vertex = write_doc(tmp_path, _lattice_document(
        simplex_lattice(2), extra_faces=[{"id": "x", "dim": 0}]), "lattice.json")
    cases = [
        ("InputError", ["scan", "--family", "trivalent"]),
        ("InputError", ["local-cohomology", model, "--face", "ghost"]),
        ("BadParameter", ["scan", "--family", "trivalent", "--max", "3"]),
        ("CorruptCheckpoint", ["scan", "--family", "trivalent", "--max", "4",
                               "--checkpoint", str(tmp_path)]),
        ("MalformedComplex", ["homology", model, "--reduced"]),
        ("NotSimple", ["gen", "polytope-skeleton", extra_vertex]),
        ("UnknownBuiltin", ["gen", "builtin", "nope"]),
        # sizes no list can take, refused before anything is allocated
        ("MemoryError", ["hilbert", fv, "--which", "equivariant", "--expand", str(2**62)]),
        ("OverflowError", ["hilbert", fv, "--which", "equivariant", "--expand", str(10**19)]),
        ("MemoryError", ["gen", "simplex-skeleton", "--m", str(2**62), "--k", "0"]),
        ("OverflowError", ["gen", "simplex-skeleton", "--m", str(10**19), "--k", "0"]),
    ]
    raised, messages = [], []
    for name, argv in cases:
        row = cli._COMMANDS[argv[0]]
        handler = row[0]

        def spy(args, handler=handler):
            try:
                return handler(args)
            except Exception as err:
                raised.append(type(err).__name__)
                raise

        monkeypatch.setitem(cli._COMMANDS, argv[0], (spy, *row[1:]))
        code, out, err = run(argv)
        monkeypatch.setitem(cli._COMMANDS, argv[0], row)
        assert code == EXIT_INPUT_ERROR, name
        assert raised[-1] == name
        assert err == f"error: {json.loads(out)['error']}\n", name
        messages.append(json.loads(out)["error"])
    assert messages[6] == "unknown name: 'nope'"
    assert all(m.startswith("input too large: ") for m in messages[7:])


def test_a_negative_b_is_a_scan_record_not_an_input_error():
    """The f-space grid point (0, 0, 0) forces b = -1; the scan records it and goes on."""
    code, report = run_json(["scan", "--fspace", "--n", "4", "--bound", "1"])
    records = report["summary"]["records"]
    assert code == EXIT_CHECK_FAILED and len(records) == 8
    assert records[0] == {"acyclic": False, "error": "NegativeB", "f": [0, 0, 0],
                          "identifier": "fspace-n4-0-0-0", "n": 4, "realized": False}


def test_local_cohomology_model(tmp_path):
    path = write_doc(tmp_path, serialize_sponge(gen_model_sponge(4)))
    code, report = run_json(["local-cohomology", path, "--face", "o"])
    assert code == EXIT_PASS
    assert report["local_cohomology"] == [
        {"degree": 2, "free_rank": 3, "torsion": []}
    ]


# sha256 of stdout for check-cm --coeff z, check-cm --coeff q and
# dihomology-check, recorded before the Cohen-Macaulay test read its verdict
# off the open intervals.  model_n3 and model_n4 are also builtins; the two
# projective planes sharing a vertex pin a witness list over Z and over Q.
CM_STDOUT_DIGESTS = {
    "model_n3": ("b1236361d758dfb4271e35606bfacd2f3fce924a7ef0b14f8245aea6e99d7310",
                 "058986d46a5cc36c3c84febea00336009f8e349cafc89878c1018f5a33e919d3",
                 "94e89baec89d4c8c47af1b142a19f3d270b1afbd05e2274d1416747ae6cffca0"),
    "model_n4": ("4f8d0b3b1821e30ab7459dd06b74d066f705cabf2286438c948754b19edb3ae7",
                 "a1431e55085ac895425477a7fcafb04440837ccef97dda7e8cf040e22e848ac5",
                 "3fdbf6076061e46f5d5e9bdafaf66a68a323eafb4442c181e3c91dccc471c4d7"),
    "model_n5": ("fc3857c2649da999437c391bff17549631bbd31bcdd491544d857807055c0480",
                 "7da968cfef78eba5a1b5fcf3601eb790e2260c0579c42fc0585287347f95ee2b",
                 "6266bd9eeeff18682414c2f24151c8b28dcacebf672e08726a82e53d6874c925"),
    "model_n6": ("b43a56507da17b68765d780baf47218eb7dcd75be2dca7061a3b56112e076286",
                 "664e876f9743e115fd9690a2a2901a5b551dccdefd8de5e3f901a43ff03edee9",
                 "c5faf7326e4d688c29690d4b58b9bf99b65ca09aca92e60de4fdab141e386475"),
    "model_n7": ("8f3e7d438cf6a083f2060ed9df0dd86ccfe349bad275927ea07504ea7ba73527",
                 "027eb58e30845d66159e669a883a2bbcaf4d6126a3a2f4754287366efedb62fb",
                 "cb6c520a88f2a6ccdce77c99421da56c909d339b027cbb32b99a8249581fc2c3"),
    "g42_octahedron": ("05127fe3f8a8939c04f92c1e2e1cbf8cb9d2f785456ffe0a2bbfef2de3dcfdb5",
                       "470c6d6c6696fddddf3a1f9b63a2c4107048d7f13981acae31b3a70ff6bc6d1c",
                       "dc624661960354424c213ee13f9d26a54946231b6c428cd8d292b663330c224e"),
    "f3_k33": ("aff244cd19bc0180dcf347631fe4f718a8d96f3bc3daa200e9b09100c63557f1",
               "af797e5ea6815abbe86d0c0afac69e43b8c544fd28d280cce5c80b7b37a00429",
               "f52115744fc07ede81e120cec61a76d314dcf0089d72b00e658ae7ee2f520080"),
    "cube_skeleton": ("810828cc5fbb3b7fae6be205bde529d7d0d9a0b6fd6d31eabbcf6c309e07f7e9",
                      "77418121f8b94e00122e7d194a162f7c7861f4d54bb130f4ee36a676fdf7f697",
                      "1bf8b433e671ab2b4964417d47300b597d6e2b4b3b39de3aadff0c9094c2a5e2"),
    "rp2_wedge": ("5e815c879e8d958afe17a36494cd3749ab7262a6c025fc4cce6d3778ef726acd",
                  "ddc2fb223ef0444240f4e179b80b3ea1d9b21b76c1bdedff983ace9cc6ce4811",
                  "e8fb287c9b67e7b120c400aff09edb08466f06d3a416de6b83cbbe90efc67a9a"),
}


def cm_document(name):
    if name == "rp2_wedge":
        return rp2_wedge_sponge()
    if name.startswith("model_n"):
        return gen_model_sponge(int(name[len("model_n"):]))
    return builtin(name)


def test_cohen_macaulay_reports_are_pinned(tmp_path):
    for name, digests in CM_STDOUT_DIGESTS.items():
        path = write_doc(tmp_path, serialize_sponge(cm_document(name)), f"{name}.json")
        outputs = [run(argv)[1] for argv in (["check-cm", path, "--coeff", "z"],
                                              ["check-cm", path, "--coeff", "q"],
                                              ["dihomology-check", path])]
        assert [hashlib.sha256(out.encode()).hexdigest() for out in outputs] == list(digests), name
    report = json.loads(outputs[0])
    assert [(w["chain"], w["torsion"]) for w in report["witnesses"]] == [([], ["2", "2"]), (["1"], [])]


# sha256 of the stdout of local-cohomology --coeff z, then --coeff q, at every
# face in (rank, id) order, concatenated; recorded while each section complex
# was the cellular complex modulo the faces not above its face.  The doubled
# edge pins where its Z/2 lands.
LOCAL_COHOMOLOGY_DIGESTS = {
    "model_n3": ("088c537519dd8a667d1a201a57d59f8f7f481ef9f137ef39528c553321065ad8",
                 "8b269473f3b1768c19f843708b70a6a59dce3a03a4b0ea55039899df7d1410ba"),
    "model_n4": ("7b519e79b410088efb285281d7f25de866e202a07a9c4afa7bea338d5e4c6a49",
                 "88bb281d6182c07e9a2ade2359110fcdf0180af87866936d5087d4ed0738aebc"),
    "model_n5": ("9aff59fd87261b18166c26595709e30050dff890b67a97d902ceac62fd964254",
                 "de222552eef62a78e6ef40e7cd90a2f716b003321199db9c1e8fca552c12f3cc"),
    "model_n6": ("a9deded424cb3bafd6f22862c055902f203f8a0f5b184e13245a931521e2d153",
                 "c6233b52233d407714ae66141312e124e7246135116067cb387a122074690171"),
    "g42_octahedron": ("43d2135e96b02280ef0c8a9893f7afddd87115ad017a1c571a748b1f71ac60b3",
                       "f3b78b4d3e87b931ba6b99365fb346f2f7444dd0aae0deb078f7fe290af4d853"),
    "f3_k33": ("f98eeadcee4a3c031d95775876dc16a94b57e4a79bb07826dba8d586a8128d13",
               "0ce1b9f5b830228ab4fad7aedad8e81111dc7a9eedd7a91b944d20f4cc5395dc"),
    "cube_skeleton": ("6c23981bce4c06ae588e2d2b0199f09b593cc7d6771f7a166c83f5e0a7c5cb25",
                      "7ed2cbd624ebd5b2950f55f4d8f8793de8904359ebea1c6f102b845b9cea25d6"),
    "doubled_edge": ("b08074c0314b48436a400814167d36436371a78d4fcd040786d9ec6696874d41",
                     "671d090b0bb7fddefeeb50ea6bb465b7297592bd4d59bb808c6208c2185caa14"),
}


def test_local_cohomology_reports_are_pinned(tmp_path):
    for name, digests in LOCAL_COHOMOLOGY_DIGESTS.items():
        z = doubled_edge_sponge() if name == "doubled_edge" else cm_document(name)
        path = write_doc(tmp_path, serialize_sponge(z), f"{name}.json")
        outputs = {coeff: [run(["local-cohomology", path, "--face", f, "--coeff", coeff])[1]
                           for f in z.faces.elements()] for coeff in ("z", "q")}
        assert tuple(hashlib.sha256("".join(outputs[coeff]).encode()).hexdigest()
                     for coeff in ("z", "q")) == digests, name
    # the doubled edge's vertex v has Z/2 in cohomological degree 1, and nothing over Q
    assert json.loads(outputs["z"][0])["local_cohomology"] == [
        {"degree": 1, "free_rank": 0, "torsion": ["2"]}]
    assert json.loads(outputs["q"][0])["local_cohomology"] == []


# sha256 of the stdout of homology with --coeff z, --coeff z --reduced,
# --coeff q and --coeff q --reduced, recorded while every simplicial document
# was read through the boundary matrices of its whole chain complex.
HOMOLOGY_STDOUT_DIGESTS = {
    "rp2": ("67763115d30dec26f6d17ae7eeaffa73f8bc1d6844eedf858c750b8bd797ec83",
           "e8e4e6e3136c5e1503b80117f4e9ea6d3a9debcd3394fe9078dad607d70d5dc9",
           "256ab40e0d031ee29f55fae1b9ffadcfb5bfcd06c6701fd5ba8e6c7150775841",
           "9d6019f36a4460d323386de9c04ccd2b385018c9f91db21b12c7a806761d558d"),
    "simplex_3_1": ("bab505a0b2b0ced9d8fbcb2bc16f0ba55d00604a078690e4d29ee459beaec589",
                   "a7c1e8148659fcabeb51b22e80bcf0bf49ef0dbad064008612caccc526c288a5",
                   "fe6d6c643c2d3d2aea783e54ba7004c480f3ad0f6f36df254bba75315e37fb93",
                   "8da5c345c1ac7dbbd776d8705f49f73ed77d3c000bafa9df97f3acc2dd7018ac"),
    "simplex_4_2": ("c6ea68da04b0d5a83e100409e474f6d3442478745f9d3c513baa98766ed3b543",
                   "dbed66dad7cf8b1a709df885e0eec6a8f470f242f4b312d158bf85b9cdf100cb",
                   "c293ddb0533078789c361339f233d94d34070cb4ed7ff35acd2bb959dff2dd58",
                   "aa8c2c47bec94c0343e78542bd3419e5c6675a50b92c94a9086e09d177493c68"),
    "simplex_5_3": ("2531405d0209b86ee12d0ad148fac9ebb22564109ae58e92b57f9c7e8f53e242",
                   "cdfa3f9d653d059be24300fde56f6ec1dadee08931fe24091436470c98009d50",
                   "88c76be141d545e9c6371ecbc24628cc3be80517ed8bbd1a2ad32f0e06009729",
                   "742d7316473f8b6872ec37acb316d9c182de77618a6c6c32d8974eca934415f4"),
    "simplex_6_2": ("33c0a80ff1ba7f4bc16262e4cd8d28c3599863c585a4788d4da062fbe9b60f8a",
                   "cbcb18872ea6b1a648fb54de8202ab9b7d0331a35b69e4c89591ddca5ae2dc42",
                   "5409e2077ce6529f4a12ddb94309f742dfe44a28df38c0c297019b8ae213857f",
                   "340c72718f3a5022107a313f4c1330bab63d4cc343ddeba6e3807adb68ad4246"),
    "cube5_order_complex": ("5d7b4fa7c8a468854d19c52efe74783cc53ca59b3f2a2460bd5663a49258c3cc",
                           "3a6adc664f831ffeee057d812b2e531e49f92dba639103e956e504ce2b43c269",
                           "dfbd51f7795afee7c23f4e78fca14f48d0f1618614b2e309935a2497bd7decb8",
                           "19814d1b427e8dec6cdf87468bbc50c84c134c43f34792cf79007786e1ad63ee"),
}


def simplicial_document(name):
    """RP^2, a ``gen simplex-skeleton`` output, or the order complex of the
    5-cube's 3-skeleton, as a simplicial-complex document."""
    from sponges.generators import gen_polytope_skeleton, hypercube_lattice
    from sponges.poset import SimplicialComplex, order_complex

    from test_poset import RP2_FACETS

    if name == "rp2":
        return serialize_simplicial(SimplicialComplex(range(1, 7), RP2_FACETS))
    if name == "cube5_order_complex":
        skeleton = gen_polytope_skeleton(hypercube_lattice(5))
        return serialize_simplicial(order_complex(skeleton.faces))
    m, k = name.split("_")[1:]
    code, doc = run_json(["gen", "simplex-skeleton", "--m", m, "--k", k])
    assert code == EXIT_PASS
    return doc


def test_simplicial_homology_reports_are_pinned(tmp_path):
    for name, digests in HOMOLOGY_STDOUT_DIGESTS.items():
        path = write_doc(tmp_path, simplicial_document(name), f"{name}.json")
        outputs = [run(["homology", path, "--coeff", coeff, *reduced])[1]
                   for coeff in ("z", "q") for reduced in ([], ["--reduced"])]
        assert tuple(hashlib.sha256(out.encode()).hexdigest() for out in outputs) == digests, name
    assert json.loads(outputs[1])["homology"] == [{"degree": 3, "free_rank": 9, "torsion": []}]


# sha256 of the stdout of check-acyclic, recorded while each face's interval
# (0^, F) was read through the boundary matrices of its chains.  cube_skeleton
# is the 3-cube's; cube5_skeleton is the oc_cube5 benchmark input.
CHECK_ACYCLIC_DIGESTS = {
    "cube4_skeleton": "ac5d8aa6fc26a4e587c3ca54ee281e76d6cf63c8f03f309f1ec290a14305299e",
    "cube5_skeleton": "078ab15c6ccb2197d17d02cc7e0183fc8ac513e701636c7362811d03532d68b3",
    "simplex4_skeleton": "bdd6f969b1254a14dce921db5b8705cc5cab2733750f92470d6ecb553c1e6932",
    "simplex5_skeleton": "0bad09445ba2873df8d5d5d3a4062f6d6113d866a70b89b7c376da8eb6268e6a",
    "g42_octahedron": "c1d9545bfb238191496e04d6bc4c55b82984180e0263f9515c0bff1651d94900",
    "f3_k33": "1382078776e45ddf7c2da3e765cb2ecbac4b7685839527b626aca9562619c207",
    "cube_skeleton": "42f37e64f4ae3dd29246d971557e806b932d868bed89a5adf645d9c99bbb2ee2",
}


def acyclic_document(name):
    """A builtin sponge, or the skeleton ``gen polytope-skeleton`` gives of a
    cube or simplex lattice, as a sponge document."""
    from sponges.generators import gen_polytope_skeleton, hypercube_lattice, simplex_lattice

    lattices = {"cube4_skeleton": lambda: hypercube_lattice(4),
                "cube5_skeleton": lambda: hypercube_lattice(5),
                "simplex4_skeleton": lambda: simplex_lattice(4),
                "simplex5_skeleton": lambda: simplex_lattice(5)}
    if name in lattices:
        return serialize_sponge(gen_polytope_skeleton(lattices[name]()))
    return serialize_sponge(builtin(name))


def test_check_acyclic_reports_are_pinned(tmp_path):
    for name, digest in CHECK_ACYCLIC_DIGESTS.items():
        out = run(["check-acyclic", write_doc(tmp_path, acyclic_document(name), f"{name}.json")])[1]
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_no_library_path_computes_smith_transforms(tmp_path, monkeypatch):
    """With Smith transforms refused, the checks, the cosheaf and every CLI
    report command run on models n=3..6 and the sponge builtins.  A refusal
    is recorded as well as raised, since a scan turns errors into records."""
    refused = []
    eliminator_init = exactalg._Eliminator.__init__

    def refuse(*args):
        refused.append(args)
        raise RuntimeError("Smith transforms were computed")

    def diagonal_only(self, m, with_transforms):
        if with_transforms:
            refuse(m)
        eliminator_init(self, m, with_transforms)

    monkeypatch.setattr(exactalg, "smith_normal_form", refuse)
    monkeypatch.setattr(exactalg._Eliminator, "__init__", diagonal_only)
    fv = write_doc(tmp_path, serialize_fvector(builtin("hp2_fvector")), "fv.json")
    simplicial = write_doc(tmp_path, run_json(["gen", "simplex-skeleton", "--m", "4",
                                               "--k", "2"])[1], "simplicial.json")
    commands = [["hvector", fv], ["hilbert", fv, "--which", "equivariant"],
                ["duality-check", fv], ["homology", simplicial, "--coeff", "q"],
                ["gen", "trivalent", "--max", "8"], ["scan", "--family", "trivalent", "--max", "8"],
                ["scan", "--fspace", "--n", "4", "--bound", "2"]]
    names = ("g42_octahedron", "f3_k33", "cube_skeleton", "model_n3", "model_n4")
    for z in [*(builtin(name) for name in names), gen_model_sponge(5), gen_model_sponge(6)]:
        for check in (check_acyclic, realization_cross_check, build_cosheaf, dihomology_check):
            try:
                check(z)
            except (NonCompactSponge, NotAcyclicSponge, NotCohenMacaulay):
                pass
        check_cohen_macaulay(z.faces)
        path = write_doc(tmp_path, serialize_sponge(z), f"{z.name}.json")
        face = z.faces.elements()[0]
        commands += [[command, path] for command in (
            "validate", "check-acyclic", "check-cm", "check-local-model", "dihomology-check",
            "fvector", "hvector", "hilbert", "duality-check")]
        commands += [["homology", path, "--coeff", "q"], ["check-cm", path, "--coeff", "q"],
                     ["local-cohomology", path, "--face", face]]
    for argv in commands:
        assert run(argv)[0] in (EXIT_PASS, EXIT_CHECK_FAILED), argv
    assert not refused


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


# exit code and the first 16 hex digits of the sha256 of stdout and of stderr
# for help and usage errors, which argparse prints; recorded with Python 3.11's
# argparse at 80 columns while every run built the parser of all commands
PARSER_PINS = {
    (): (2, "e3b0c44298fc1c14", "4e5d577d63282ea3"),
    ("-h",): (0, "7412a43e4526256b", "e3b0c44298fc1c14"),
    ("--help",): (0, "7412a43e4526256b", "e3b0c44298fc1c14"),
    ("--he",): (0, "7412a43e4526256b", "e3b0c44298fc1c14"),
    ("--verbose",): (2, "e3b0c44298fc1c14", "4e5d577d63282ea3"),
    ("--",): (2, "e3b0c44298fc1c14", "4e5d577d63282ea3"),
    ("validate", "-h"): (0, "10dd92377fe4e38d", "e3b0c44298fc1c14"),
    ("homology", "-h"): (0, "a1db427884186588", "e3b0c44298fc1c14"),
    ("check-acyclic", "-h"): (0, "9102084e0eafc1cc", "e3b0c44298fc1c14"),
    ("check-cm", "-h"): (0, "7bd1e792b843029e", "e3b0c44298fc1c14"),
    ("check-local-model", "-h"): (0, "b8c79d1063aedd4b", "e3b0c44298fc1c14"),
    ("local-cohomology", "-h"): (0, "f522d9f0a267b3b1", "e3b0c44298fc1c14"),
    ("dihomology-check", "-h"): (0, "65cc67d46cf0ec4e", "e3b0c44298fc1c14"),
    ("fvector", "-h"): (0, "4657f6f233a75353", "e3b0c44298fc1c14"),
    ("hvector", "-h"): (0, "387838e0dfb0a588", "e3b0c44298fc1c14"),
    ("hilbert", "-h"): (0, "6da218db2c031a38", "e3b0c44298fc1c14"),
    ("duality-check", "-h"): (0, "42a05000f03009e7", "e3b0c44298fc1c14"),
    ("gen", "-h"): (0, "dc866a51156249cb", "e3b0c44298fc1c14"),
    ("scan", "-h"): (0, "ae9a83052f26c895", "e3b0c44298fc1c14"),
    ("gen", "model", "-h"): (0, "139e1ffff4ff07c9", "e3b0c44298fc1c14"),
    ("gen", "simplex-skeleton", "-h"): (0, "c837d653def32f03", "e3b0c44298fc1c14"),
    ("gen", "polytope-skeleton", "-h"): (0, "cc14e8b7380a4b44", "e3b0c44298fc1c14"),
    ("gen", "trivalent", "-h"): (0, "245a6e3eaafe01cd", "e3b0c44298fc1c14"),
    ("gen", "builtin", "-h"): (0, "18c4820d27dd2208", "e3b0c44298fc1c14"),
    ("check-cm",): (2, "e3b0c44298fc1c14", "611ffd02e6c6ecae"),
    ("gen",): (2, "e3b0c44298fc1c14", "94d5b1511777486f"),
    ("gen", "model"): (2, "e3b0c44298fc1c14", "2789837736ac892d"),
    ("local-cohomology", "x.json"): (2, "e3b0c44298fc1c14", "f19e9117ba675f02"),
    ("scan", "--bound"): (2, "e3b0c44298fc1c14", "74d002ae4aa078a9"),
    ("check-cm", "x.json", "--coeff", "w"): (2, "e3b0c44298fc1c14", "3e40c8012f4d105c"),
    ("hilbert", "x.json", "--which", "all"): (2, "e3b0c44298fc1c14", "58016bdf269599e0"),
    ("gen", "model", "--n", "x"): (2, "e3b0c44298fc1c14", "86a01deb70ee81ee"),
    ("hilbert", "x.json", "--expand", "1.5"): (2, "e3b0c44298fc1c14", "720eab2018b55fd8"),
    ("scan", "--fspace", "--n", "3", "--bound", "1", "z"): (2, "e3b0c44298fc1c14",
                                                            "7d763737b0414c8a"),
    ("validate", "x.json", "--bogus"): (2, "e3b0c44298fc1c14", "0a57f819be18ac4c"),
    ("--bogus", "validate", "x.json"): (2, "e3b0c44298fc1c14", "0a57f819be18ac4c"),
    ("gen", "builtin", "f3_k33", "--verbose"): (2, "e3b0c44298fc1c14", "259eeca7150b4c80"),
    ("check-cm", "x.json", "y.json"): (2, "e3b0c44298fc1c14", "03dfefec50dd8fd8"),
    ("frobnicate",): (2, "e3b0c44298fc1c14", "c99f036a594d810d"),
    ("frobnicate", "check-cm", "x.json"): (2, "e3b0c44298fc1c14", "c99f036a594d810d"),
    ("Check-cm", "x.json"): (2, "e3b0c44298fc1c14", "0c2ed327f8574e62"),
    ("gen", "nope"): (2, "e3b0c44298fc1c14", "a1435cec98dd7451"),
    ("gen", "model", "--n", "3", "--he"): (0, "139e1ffff4ff07c9", "e3b0c44298fc1c14"),
    ("--verb", "check-cm", "x.json", "--co", "q"): (2, "2cec6755639b583d", "291525c13782e048"),
    ("--", "check-cm", "x.json"): (2, "e3b0c44298fc1c14", "896f65d5b63c5744"),
    ("check-cm", "--", "x.json"): (2, "2cec6755639b583d", "291525c13782e048"),
}


def test_help_and_usage_errors_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    for argv, pin in PARSER_PINS.items():
        code = cli_dispatch(list(argv))
        out, err = capsys.readouterr()
        digests = tuple(hashlib.sha256(s.encode()).hexdigest()[:16] for s in (out, err))
        assert (code, *digests) == pin, argv


def test_the_command_table_is_the_only_registry(capsys):
    """Every handler in `cli` is a row of the command table or of its nested
    table of `gen` kinds, and each row's ``-h`` prints its own help and exits 0."""
    from sponges import cli

    rows = {}
    for name, (handler, _, arguments) in cli._COMMANDS.items():
        rows[(name,)] = handler
        if isinstance(arguments, dict):
            rows.update({(name, kind): row[0] for kind, row in arguments.items()})
    assert (len(cli._COMMANDS), len(rows)) == (13, 18)
    assert sorted(h.__name__ for h in rows.values()) == sorted(
        name for name in vars(cli) if name.startswith(("_cmd_", "_gen_")))
    for argv in rows:
        assert cli_dispatch([*argv, "-h"]) == EXIT_PASS, argv
        out, err = capsys.readouterr()
        assert out.startswith(f"usage: sponges {' '.join(argv)} ") and err == "", argv


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
    for bad in ("{not json", "[1, 2]", '{"n": 3}', '{"identifier": "fspace-n3-0-1"}'):
        lines = checkpoint.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = bad + "\n"
        checkpoint.write_text("".join(lines), encoding="utf-8")
        code, report = run_json(FSPACE + [str(checkpoint)])
        assert code == EXIT_INPUT_ERROR
        assert "line 2" in report["error"]


def test_scan_deeply_nested_checkpoint_line_exits_2(tmp_path):
    """A complete checkpoint line nested deeper than the stack is a corrupt line."""
    checkpoint = tmp_path / "scan.jsonl"
    checkpoint.write_text("[" * 200_000 + "]" * 200_000 + "\n", encoding="utf-8")
    code, out, err = run(["scan", "--fspace", "--n", "3", "--bound", "1", "1",
                          "--checkpoint", str(checkpoint)])
    assert code == EXIT_INPUT_ERROR
    assert "line 1 is not a scan record: maximum recursion depth" in json.loads(out)["error"]
    assert err.startswith("error: checkpoint ")


# sha256 of the stdout of check-cm --coeff z and --coeff q on a chain of
# length L under two disjoint edges, recorded while the witness walk still
# visited every chain above an acyclic head
CHAIN_CM_DIGESTS = {
    14: ("c4053c3a90fbd6b4f379c96236cd0f881826b437f55b389a554e2d094d7de810",
         "9df6a2527734d530fd0f3e4b63314f84f04538d3fa8de6b96b20aca7a2ca4c98"),
    18: ("386e4500d265521aaae5b54f235f4bcf71b193794340c0754a975c52578b5c4c",
         "073153fc8e5e11182f502d47be274a3e8b7177cb82b212412c1cf461fdf6f780"),
}


def chain_under_two_edges(length):
    """Faces c0 < ... < c(L-1), one per dimension, and two disjoint edges
    a_k < b_k above c(L-1); every incidence is 1.  Its one witness is the
    whole chain, and every shorter chain has an acyclic join."""
    faces = [{"id": f"c{i}", "dim": i} for i in range(length)]
    covers = [{"upper": f"c{i + 1}", "lower": f"c{i}", "incidence": 1}
              for i in range(length - 1)]
    for k in (1, 2):
        faces += [{"id": f"a{k}", "dim": length}, {"id": f"b{k}", "dim": length + 1}]
        covers += [{"upper": f"a{k}", "lower": f"c{length - 1}", "incidence": 1},
                   {"upper": f"b{k}", "lower": f"a{k}", "incidence": 1}]
    return {"format_version": 1, "n": length + 3, "faces": faces, "covers": covers}


def test_witness_walk_stops_at_acyclic_heads(tmp_path):
    """The walk no longer visits each of the 2^L chains of the chain: L = 22
    took over 20 s while it did, and its reports stay byte-identical."""
    for length, digests in CHAIN_CM_DIGESTS.items():
        path = write_doc(tmp_path, chain_under_two_edges(length))
        outputs = [run(["check-cm", path, "--coeff", c])[1] for c in ("z", "q")]
        assert [hashlib.sha256(out.encode()).hexdigest() for out in outputs] == list(digests)
    path = write_doc(tmp_path, chain_under_two_edges(22))
    start = time.perf_counter()
    code, report = run_json(["check-cm", path])
    assert time.perf_counter() - start < 5
    assert code == EXIT_CHECK_FAILED
    assert [w["chain"] for w in report["witnesses"]] == [[f"c{i}" for i in range(22)]]


# sha256 of the stdout of check-cm on a chain of 400 faces, recorded while every
# interval built and sorted its element set before its cone test
CHAIN_400_CM_DIGEST = "6fa30e673ae0ac9100a5518deef73ae8e26ac1d74d387185c61dd2f570a63cbc"


def test_check_cm_on_a_long_chain_reads_its_cones_from_covers(tmp_path):
    """Faces c0 < ... < c(L-1), one per dimension, n = L + 1, every incidence 1.
    Each of its ~L^2/2 intervals is a cone; L = 400 took about 20 s while each
    one built its element set first, and its report stays byte-identical."""
    length = 400
    doc = {"format_version": 1, "n": length + 1,
           "faces": [{"id": f"c{i}", "dim": i} for i in range(length)],
           "covers": [{"upper": f"c{i + 1}", "lower": f"c{i}", "incidence": 1}
                      for i in range(length - 1)]}
    path = write_doc(tmp_path, doc)
    start = time.perf_counter()
    code, out, _ = run(["check-cm", path])
    assert time.perf_counter() - start < 5
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == CHAIN_400_CM_DIGEST


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
                       ("n", True), ("h", [1, None]), ("realized", None), ("error", 3),
                       ("f", [1, True]), ("h", [1, 2.0]), ("f", [[1]]), ("symmetric", 1),
                       ("local_model", "yes")):
        code, report = resume_with_second_record(**{key: value})
        assert code == EXIT_INPUT_ERROR, (key, value)
        assert "line 2" in report["error"] and f"{key} has the wrong type" in report["error"]
    # null where a field may be absent is a valid record
    code, report = resume_with_second_record(b=None, error=None, local_model=None)
    assert code == fresh_code and report["summary"]["total"] == fresh["summary"]["total"]
    # a key no record has is ignored, not refused
    code, report = resume_with_second_record(note="kept by hand")
    assert (code, report) == (fresh_code, fresh)


# sha256 of stdout and of the checkpoint file for the two scans the
# scan_trivalent benchmark runs; the resumed fspace scan must reproduce both
SCAN_PINS = {
    "trivalent": (["scan", "--family", "trivalent", "--max", "12", "--checkpoint", "A.jsonl"],
                  "16e81ea2859850e2f834719ff77cb93972e22f1c4db87bd948329c4338ba77d8",
                  "d9630bbcedf377c8476455aeb5cb007a6aa01f5a399c74db4dc5bedd6f3ecd51"),
    "fspace": (["scan", "--fspace", "--n", "5", "--bound", "9", "--checkpoint", "B.jsonl"],
               "81f17c95e9a88870ee7be78c77b2fc51b6acf86b73760589c9abc1903ac83f06",
               "e8865db9a936316d2c017f06d23c764c4518de5f0a255286370ed6b172cb8339"),
}


def test_scan_reports_and_checkpoints_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def digests(argv):
        _, out, _ = run(argv)
        return (hashlib.sha256(out.encode()).hexdigest(),
                hashlib.sha256((tmp_path / argv[-1]).read_bytes()).hexdigest())

    for name, (argv, stdout_digest, checkpoint_digest) in SCAN_PINS.items():
        assert digests(argv) == (stdout_digest, checkpoint_digest), name
    argv, stdout_digest, checkpoint_digest = SCAN_PINS["fspace"]
    assert digests(argv) == (stdout_digest, checkpoint_digest), "resumed fspace"


def test_unusable_checkpoint_path_exits_2(tmp_path, monkeypatch):
    """A directory, or a file in a missing directory, is refused with the path
    named, before any sponge is classified."""
    classified = []
    monkeypatch.setattr(search, "classify_sponge", lambda *args: classified.append(args))
    for path in (tmp_path, tmp_path / "missing-dir" / "x.jsonl"):
        code, report = run_json(
            ["scan", "--family", "trivalent", "--max", "4", "--checkpoint", str(path)]
        )
        assert code == EXIT_INPUT_ERROR, path
        assert f"checkpoint {path}: " in report["error"]
    assert classified == []


def test_scan_fspace_bad_sizes_exit_2():
    for argv, message in [(["--n", "4", "--bound", "1", "2"], "--fspace needs n >= 2"),
                          (["--n", "0", "--bound", "1"], "--fspace needs n >= 2"),
                          (["--n", "1", "--bound", "3"], "--fspace needs n >= 2"),
                          (["--n", "3", "--bound", "-1"], "nonnegative bounds, got [-1, -1]"),
                          (["--n", "3", "--bound", "2", "-1"], "nonnegative bounds, got [2, -1]")]:
        code, report = run_json(["scan", "--fspace", *argv])
        assert code == EXIT_INPUT_ERROR, argv
        assert message in report["error"], argv


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


def test_repeated_cover_exits_2(tmp_path):
    """A cover listed twice is refused, whatever its incidences, in sponge and
    polytope documents alike."""
    code, doc = run_json(["gen", "builtin", "f3_k33"])
    covers, first = doc["covers"], doc["covers"][0]
    for repeat in (first, {**first, "incidence": -first["incidence"]}):
        doc["covers"] = covers + [repeat]
        for command in ("validate", "check-acyclic"):
            code, report = run_json([command, write_doc(tmp_path, doc)])
            assert code == EXIT_INPUT_ERROR, (command, repeat)
            assert report["error"] == ("malformed sponge document: duplicate cover "
                                       f"{first['upper']!r} > {first['lower']!r}")
    from sponges.generators import simplex_lattice

    lattice = _lattice_document(simplex_lattice(3))
    lattice["covers"].append(lattice["covers"][-1])
    code, report = run_json(["gen", "polytope-skeleton", write_doc(tmp_path, lattice)])
    assert code == EXIT_INPUT_ERROR and "duplicate cover" in report["error"]


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


def test_array_fields_must_be_json_arrays(tmp_path):
    """faces, covers, vertices, facets and each facet are JSON arrays, never iterated
    strings or objects."""
    k33 = serialize_sponge(builtin("f3_k33"))
    for key, value in [("covers", ""), ("covers", {}), ("faces", ""), ("faces", {"v": 0})]:
        for command in ("validate", "homology"):
            code, report = run_json([command, write_doc(tmp_path, {**k33, key: value})])
            assert code == EXIT_INPUT_ERROR, (command, key, value)
            assert report["error"] == (f"malformed sponge document: {key} must be a list, "
                                       f"not {value!r}")
    for doc, field in [({"vertices": "ab", "facets": "ab"}, "vertices must be a list"),
                       ({"vertices": ["a", "b"], "facets": "ab"}, "facets must be a list"),
                       ({"vertices": ["a", "b"], "facets": {"a": 1}}, "facets must be a list"),
                       ({"vertices": ["a", "b"], "facets": ["a", ["b"]]}, "facet must be a list"),
                       ({"vertices": {"a": 1}, "facets": [["a"]]}, "vertices must be a list")]:
        code, report = run_json(["homology", write_doc(tmp_path, doc)])
        assert code == EXIT_INPUT_ERROR and field in report["error"], doc
    fine = {"vertices": ["a", "b"], "facets": [["a"], ["b"]]}
    assert run(["homology", write_doc(tmp_path, fine)])[0] == EXIT_PASS
    from sponges.generators import simplex_lattice

    lattice = _lattice_document(simplex_lattice(3))
    for key, value in [("faces", ""), ("covers", ""), ("covers", {})]:
        code, report = run_json(["gen", "polytope-skeleton",
                                 write_doc(tmp_path, {**lattice, key: value}, "lat.json")])
        assert code == EXIT_INPUT_ERROR and f"{key} must be a list" in report["error"], key


def run_python(cwd, *args):
    """A fresh ``python <args>`` in ``cwd`` with this package on its path and
    its stdout block-buffered, as on any pipe; stdout and stderr are bytes."""
    src = str(Path(sponges.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, env=env,
                          timeout=120)


def imported_modules(tmp_path, *args):
    """The modules a fresh ``python <args>`` imports, by ``-X importtime``,
    which names each module as it is first imported."""
    proc = run_python(tmp_path, "-X", "importtime", *args)
    assert proc.returncode in (EXIT_PASS, EXIT_CHECK_FAILED), proc.stderr
    return {line.rpartition("|")[2].strip() for line in proc.stderr.decode().splitlines()
            if line.startswith("import time:")}


def layers(modules):
    """The ``sponges`` layers among ``modules``."""
    return {name.partition(".")[2] for name in modules if name.startswith("sponges.")}


def test_each_command_imports_only_its_own_layers(tmp_path):
    """Each command loads only the layers it uses; none loads `dataclasses`,
    and the integer-only commands load no `fractions`."""
    model = write_doc(tmp_path, serialize_sponge(gen_model_sponge(4)))
    skeleton = write_doc(tmp_path, serialize_simplicial(gen_simplex_skeleton(3, 1)), "k.json")
    cube = write_doc(tmp_path, serialize_sponge(builtin("cube_skeleton")), "cube.json")
    runs = {
        "import": imported_modules(tmp_path, "-c", "import sponges"),
        "check-cm": imported_modules(tmp_path, "-m", "sponges", "check-cm", model),
        "homology": imported_modules(tmp_path, "-m", "sponges", "homology", skeleton),
        "scan": imported_modules(tmp_path, "-m", "sponges", "scan", "--fspace", "--n", "3",
                                 "--bound", "1", "1"),
        "dihomology-check": imported_modules(tmp_path, "-m", "sponges", "dihomology-check",
                                             model),
        "check-acyclic": imported_modules(tmp_path, "-m", "sponges", "check-acyclic", cube),
    }
    assert layers(runs["import"]) == set()
    assert layers(runs["check-cm"]) == {"cli", "errors", "exactalg", "complexes", "poset",
                                        "sponge"}
    assert layers(runs["homology"]) == {"cli", "errors", "exactalg", "complexes", "poset"}
    assert layers(runs["check-acyclic"]) == {"cli", "errors", "exactalg", "complexes", "poset",
                                             "sponge"}
    assert layers(runs["scan"]) == {"cli", "errors", "enumerative", "search"}
    for command, modules in runs.items():
        assert "dataclasses" not in modules, command
    assert "fractions" not in runs["check-cm"] | runs["homology"] | runs["check-acyclic"]
    assert "fractions" not in runs["dihomology-check"]  # ranks from the integer double complex


def test_main_exits_like_cli_dispatch(tmp_path, monkeypatch):
    """`main` ends the process without tearing the interpreter down; a
    ``python -m sponges`` child still gives the exit code, stdout bytes and
    checkpoint bytes of `cli_dispatch` in process, and an input error its
    line on stderr too."""
    model = write_doc(tmp_path, serialize_sponge(gen_model_sponge(4)))
    cases = [
        (["check-cm", model], EXIT_PASS),
        (["scan", "--fspace", "--n", "4", "--bound", "3", "--checkpoint", "scan.jsonl"],
         EXIT_CHECK_FAILED),
        (["local-cohomology", model, "--face", "nowhere"], EXIT_INPUT_ERROR),
    ]
    for k, (argv, expected) in enumerate(cases):
        child_dir, local_dir = tmp_path / f"child{k}", tmp_path / f"local{k}"
        child_dir.mkdir()
        local_dir.mkdir()
        child = run_python(child_dir, "-m", "sponges", *argv)
        monkeypatch.chdir(local_dir)
        code, out, err = run(argv)
        assert child.returncode == code == expected, (argv, child.stderr)
        assert child.stdout == out.encode() and out.endswith("\n"), argv
        assert sorted(p.name for p in child_dir.iterdir()) == sorted(
            p.name for p in local_dir.iterdir()), argv
        for path in child_dir.iterdir():
            assert path.read_bytes() == (local_dir / path.name).read_bytes(), path.name
        if expected == EXIT_INPUT_ERROR:
            assert child.stderr == err.encode() and err.startswith("error: "), argv
    assert (tmp_path / "child1" / "scan.jsonl").stat().st_size > 0


# the public names of the package, the eight layer modules among them
PUBLIC_NAMES = [
    "AcyclicityReport", "ExtendedFVector", "GradedPoset", "HVector", "HilbertSeries",
    "HomologyProfile", "IntegerChainComplex", "IntegerMatrix", "LocalCohomologyCosheaf",
    "PolytopeFaceLattice", "ScanRecord", "SimplicialComplex", "SmithDecomposition",
    "SpongeComplex", "b_from_euler", "betti_polynomial", "betti_polynomial_alt",
    "build_cosheaf", "builtin", "cellular_complex", "check_acyclic", "check_cohen_macaulay",
    "check_local_model", "cohomology", "complexes", "cosheaf", "cosheaf_homology",
    "dihomology_check", "duality_check", "enumerative", "exactalg", "fvector_of",
    "gen_model_sponge", "gen_polytope_skeleton", "gen_simplex_skeleton",
    "gen_trivalent_sponges", "generators", "hilbert_equivariant", "homology", "hvector_of",
    "induced_map_on_homology", "local_cohomology", "order_complex", "poset", "rank",
    "realization_cross_check", "scan", "scan_fvector_space", "search", "section_complex",
    "series_expand", "sign_solver", "smith_normal_form", "sponge", "subposet",
    "validate_sponge",
]


def test_public_names_resolve_to_their_defining_modules():
    """Each public name is its layer module, or the object its defining
    module holds under that name; each exception class is the one in
    `sponges.errors`, whichever module names it."""
    assert sorted(sponges.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        obj = getattr(sponges, name)
        if obj is sys.modules.get(f"sponges.{name}"):
            continue
        assert obj.__module__.startswith("sponges."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    layers = ("complexes", "poset", "sponge", "cosheaf", "enumerative", "generators", "search")
    for module in layers:
        for name, value in vars(getattr(sponges, module)).items():
            if isinstance(value, type) and issubclass(value, Exception):
                assert value is getattr(errors, name), (module, name)
    for name in ("BadParameter", "NotSimple", "UnknownBuiltin", "CorruptCheckpoint"):
        assert getattr(sys.modules["sponges.cli"], name) is getattr(errors, name)
