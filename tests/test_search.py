import hashlib
import json

import pytest

from sponges import search
from sponges.generators import builtin, gen_trivalent_sponges, graph_sponge
from sponges.search import ScanRecord, classify_sponge, scan, scan_fvector_space


def test_scan_trivalent_family_small():
    summary = scan(gen_trivalent_sponges(8))
    assert summary.total == 8  # 1 + 2 + 5 connected cubic graphs
    assert summary.acyclic_count == 8
    assert summary.ds_failures == []
    assert summary.nonneg_failures == []
    for record in summary.records:
        m = record.f[0] // 2
        assert record.h == (1, m - 1, m - 1, 1)
        assert record.local_model is True


def test_scan_corpus_builtins():
    family = [builtin("g42_octahedron"), builtin("f3_k33"), builtin("cube_skeleton")]
    summary = scan(family)
    assert summary.total == 3
    assert summary.acyclic_count == 3
    assert not summary.ds_failures and not summary.nonneg_failures
    for record in summary.records:
        assert record.symmetric and record.nonnegative


def test_scan_disconnected_graph_excluded_from_verdicts():
    two_k4 = graph_sponge(
        8,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
         (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)],
        name="two-k4",
    )
    summary = scan([two_k4])
    assert summary.total == 1
    assert summary.acyclic_count == 0
    record = summary.records[0]
    assert record.acyclic is False
    assert record.h is None and record.symmetric is None
    assert not summary.ds_failures and not summary.nonneg_failures


def test_scan_per_item_errors_do_not_abort():
    from sponges.poset import GradedPoset
    from sponges.sponge import SpongeComplex

    # vertex-free edge: invalid sponge, must become an error record
    bad = SpongeComplex(
        n=3, faces=GradedPoset([("e", 1)], []), incidence={}, name="bad"
    )
    summary = scan([bad, builtin("f3_k33")])
    assert summary.total == 2
    assert summary.errors == 1
    assert summary.acyclic_count == 1
    assert classify_sponge(bad) == ScanRecord(identifier="bad", n=3, error="invalid sponge")


def test_scan_validates_each_sponge_once(monkeypatch):
    """The verdict cached by `graph_sponge` is the one the scan reads."""
    from sponges import generators, sponge

    calls = []
    validate_sponge = sponge.validate_sponge

    def counted(z):
        calls.append(z.name)
        return validate_sponge(z)

    for module in (sponge, search, generators):
        if hasattr(module, "validate_sponge"):
            monkeypatch.setattr(module, "validate_sponge", counted)
    summary = scan(gen_trivalent_sponges(10))
    assert summary.total == len(calls) == len(set(calls)) == 27


def test_scan_encodes_each_record_once_and_checks_each_grid_point_once(tmp_path, monkeypatch):
    """A fresh record is encoded once, for the checkpoint and the summary
    alike; a resumed one once, for the summary.  A grid point's f is checked
    once, by `ExtendedFVector`."""
    from sponges import enumerative

    encoded, checked = [], []
    to_json, face_counts = ScanRecord.to_json, enumerative._face_counts
    monkeypatch.setattr(ScanRecord, "to_json", lambda r: encoded.append(r) or to_json(r))
    monkeypatch.setattr(enumerative, "_face_counts", lambda f: checked.append(f) or face_counts(f))
    path = str(tmp_path / "checkpoint.jsonl")
    first = scan_fvector_space(4, [2, 2, 2], checkpoint_path=path).to_json()
    assert len(encoded) == 27 and len(checked) == 27 - first["errors"]
    encoded.clear()
    assert scan_fvector_space(4, [2, 2, 2], checkpoint_path=path).to_json() == first
    assert len(encoded) == 27


def test_scan_order_independent():
    family = list(gen_trivalent_sponges(6))
    forward = scan(family).to_json()
    backward = scan(list(reversed(family))).to_json()
    assert forward == backward


def test_scan_rerun_identical():
    a = scan(gen_trivalent_sponges(6)).to_json()
    b = scan(gen_trivalent_sponges(6)).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_scan_checkpoint_resume(tmp_path):
    path = tmp_path / "checkpoint.jsonl"
    first = scan(gen_trivalent_sponges(6), checkpoint_path=str(path))
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if l]
    assert len(lines) == first.total == 3
    # rerun: nothing recomputed (file unchanged), summary identical
    second = scan(gen_trivalent_sponges(6), checkpoint_path=str(path))
    lines_after = [l for l in path.read_text(encoding="utf-8").splitlines() if l]
    assert lines_after == lines
    assert first.to_json() == second.to_json()


def test_scan_fvector_space_trivalent_slice_matches_family():
    """Grid points (2m, 3m) for n=3 reproduce the cubic closed form."""
    summary = scan_fvector_space(3, [20, 30])
    by_f = {record.f: record for record in summary.records if record.error is None}
    for m in range(2, 11):
        record = by_f[(2 * m, 3 * m)]
        assert record.h == (1, m - 1, m - 1, 1)
        assert record.symmetric and record.nonnegative
        assert record.realized is False  # grid points carry no realization


def test_scan_fvector_space_g42_point():
    summary = scan_fvector_space(4, [6, 12, 11])
    by_f = {r.f: r for r in summary.records if r.error is None}
    assert by_f[(6, 12, 11)].symmetric


def test_scan_fvector_space_negative_b_skipped():
    summary = scan_fvector_space(4, [0, 0, 0])
    assert summary.total == 1
    assert summary.records[0].error == "NegativeB"


def test_scan_fvector_space_refuses_bad_bounds():
    for bounds, message in [([1, 2, 3], "need 2 bounds"), ([-1, -1], "nonnegative"),
                            ([2, -1], r"nonnegative, got \[2, -1\]")]:
        with pytest.raises(ValueError, match=message):
            scan_fvector_space(3, bounds)


def test_scan_record_roundtrip():
    record = classify_sponge(builtin("f3_k33"))
    again = ScanRecord.from_json(record.to_json())
    assert again == record


def test_scan_fvector_space_counts_unrealized_points_separately():
    summary = scan_fvector_space(3, [2, 2])
    assert summary.total == 9
    assert summary.errors == 1  # f = (2, 0) forces b < 0
    assert summary.unrealized_count == 8
    assert summary.acyclic_count == 0
    assert len(summary.nonneg_failures) == 8
    assert scan(gen_trivalent_sponges(6)).to_json()["unrealized_count"] == 0


def test_scan_checkpoint_opens_one_handle_and_closes_it(tmp_path, monkeypatch):
    handles = []

    def recording_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        handles.append((args[1:2], handle))
        return handle

    monkeypatch.setattr(search, "open", recording_open, raising=False)
    path = str(tmp_path / "checkpoint.jsonl")
    summary = scan_fvector_space(3, [3, 3], checkpoint_path=path)
    assert [mode for mode, _ in handles] == [("a",)]
    with open(path) as fh:
        assert len(fh.readlines()) == summary.total == 16

    def failing_family():
        yield from gen_trivalent_sponges(6)
        raise RuntimeError("stream broke")

    handles.clear()
    path = str(tmp_path / "broken.jsonl")
    with pytest.raises(RuntimeError, match="stream broke"):
        scan(failing_family(), checkpoint_path=path)
    assert [mode for mode, _ in handles] == [("a",)]
    assert handles[0][1].closed
    with open(path) as fh:
        assert len(fh.readlines()) == 3


# sha256 of the sorted-key JSON of scan_fvector_space(5, [5, 5, 5, 5])'s
# summary: every grid point's b, h-vector and verdicts for n = 5
FSPACE_N5_DIGEST = "7a5b2f3bcc8d9881294cacf8a95ba96b2027fc4498672863d4b2a16d85110265"


def test_scan_fvector_space_n5_summary_is_pinned():
    summary = scan_fvector_space(5, [5, 5, 5, 5]).to_json()
    text = json.dumps(summary, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FSPACE_N5_DIGEST
