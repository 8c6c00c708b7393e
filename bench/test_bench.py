"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest bench/test_bench.py -q

The last test runs one traced pass of every workload (about half a minute)
and checks that each workload stresses the layers it was chosen for.
"""

from __future__ import annotations

import json
import shutil
from fnmatch import fnmatch

import pytest

import compare
import run
from spans import Tracer, count_under, reduce_spans
from workloads import WORKLOADS, hypercube_lattice_document, order_complex_document, relabel_sponge

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# pass 0, wall 100 ns:
#   cli.a [0,90)
#     exactalg.b [10,40)
#       exactalg.c [20,30)
#     poset.d [50,80)
#   cli.e [92,98)
SYNTHETIC = [
    (2, 1, "exactalg.c", 20, 30, 0),
    (1, 0, "exactalg.b", 10, 40, 0),
    (3, 0, "poset.d", 50, 80, 0),
    (0, None, "cli.a", 0, 90, 0),
    (4, None, "cli.e", 92, 98, 0),
]


def test_reducer_on_nested_spans():
    reduced = reduce_spans(SYNTHETIC, 100)
    assert reduced["calls"] == {"exactalg.c": 1, "exactalg.b": 1, "poset.d": 1,
                                "cli.a": 1, "cli.e": 1}
    assert reduced["self_ns"] == {"exactalg.c": 10, "exactalg.b": 20, "poset.d": 30,
                                  "cli.a": 30, "cli.e": 6}
    assert reduced["module_self_ns"] == {"exactalg": 30, "poset": 30, "cli": 36}
    assert reduced["outside_ns"] == 4
    assert sum(reduced["module_self_ns"].values()) + reduced["outside_ns"] == 100


def test_count_under_follows_ancestors():
    assert count_under(SYNTHETIC, "exactalg.c", "cli.a") == (1, 10)
    assert count_under(SYNTHETIC, "exactalg.c", "poset.d") == (0, 0)
    assert count_under(SYNTHETIC, "poset.d", "cli.a") == (1, 30)


def test_per_layer_names_match_benchmark_and_layer_map():
    emitted = list(run.layer_metrics(Tracer(), [], 1, 1, run.PassResult()))
    assert [m["name"] for m in BENCHMARK["per_layer"]] == emitted
    assert all(m["unit"] == run.unit_of(m["name"])
               for m in BENCHMARK["per_layer"] + BENCHMARK["end_to_end"])
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    layer_map = json.loads((run.ROOT / "bench" / "layer_map.json").read_text(encoding="utf-8"))
    patterns = [p for entry in layer_map["map"] for p in entry["metrics"]]
    assert all(any(fnmatch(name, p) for p in patterns) for name in emitted)
    assert all(any(fnmatch(name, p) for name in emitted) for p in patterns)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_tracer_restores_every_name():
    import sponges
    from sponges import complexes, exactalg

    before = (exactalg.smith_diagonal, complexes.smith_diagonal, exactalg.IntegerMatrix.__init__,
              sponges.dihomology_check)
    with Tracer().installed():
        assert complexes.smith_diagonal is exactalg.smith_diagonal is not before[0]
        assert sponges.dihomology_check is not before[3]
    assert (exactalg.smith_diagonal, complexes.smith_diagonal, exactalg.IntegerMatrix.__init__,
            sponges.dihomology_check) == before


def test_relabelling_keeps_structure_and_seed_zero_is_identity():
    from sponges.cli import parse_simplicial, parse_sponge, serialize_sponge
    from sponges.generators import gen_polytope_skeleton, hypercube_lattice

    doc = serialize_sponge(gen_polytope_skeleton(hypercube_lattice(3)))
    assert relabel_sponge(doc, 0) is doc
    moved = relabel_sponge(doc, 7)
    assert moved != doc
    assert parse_sponge(moved).face_counts() == parse_sponge(doc).face_counts()
    assert sorted(c["incidence"] for c in moved["covers"]) == sorted(
        c["incidence"] for c in doc["covers"])
    oc = parse_simplicial(order_complex_document(moved, 7))
    assert oc.euler_characteristic() == parse_simplicial(
        order_complex_document(doc, 0)).euler_characteristic()
    assert len(hypercube_lattice_document(3)["faces"]) == 27


def test_compare_refuses_different_stamps():
    old = {"stamp": {"python": "3.11.7", "nproc": 2}, "workload": "oc_cube5", "trace": 0}
    assert compare.comparable(old, old) is None
    assert "nproc" in compare.comparable(old, {**old, "stamp": {"python": "3.11.7", "nproc": 4}})
    assert "python" in compare.comparable(old, {**old, "stamp": {"python": "3.12.1", "nproc": 2}})


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_pass_adds_up_and_stresses_its_layers(name):
    work = run.WORK / "test" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name]
    workload.setup(run.Children(work).gen, work, 0)
    tracer = Tracer()
    traced = run.InProcess(work)
    with tracer.installed():
        result = run.run_pass(workload, work, 0, traced)
    assert result.failures == []
    reduced = reduce_spans(tracer.spans, traced.wall_ns)
    assert sum(reduced["module_self_ns"].values()) + reduced["outside_ns"] == traced.wall_ns
    assert 0 <= reduced["outside_ns"] < traced.wall_ns / 100
    share = {m: ns / traced.wall_ns for m, ns in reduced["module_self_ns"].items()}
    if name == "scan_trivalent":
        assert share["generators"] >= 0.5
    else:
        assert share.get("generators", 0) < 0.01
    if name == "oc_cube5":
        assert share["exactalg"] + share["complexes"] >= 0.5
    cm_only = [n for n in reduced["calls"] if n.startswith("cosheaf.")]
    cm_links, _ = count_under(tracer.spans, "complexes.homology", "poset.check_cohen_macaulay")
    assert bool(cm_only) == bool(cm_links) == (name == "cm_model6")
    shutil.rmtree(work)
