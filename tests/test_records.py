"""The record types of every layer: repr text, value equality, hashing and
frozenness, pinned from their values when the records were dataclasses.

Hashes of records that hold only integers, bools and tuples of them are
pinned as numbers; a record holding strings hashes like the tuple of its
fields (string hashes vary with ``PYTHONHASHSEED``).  The mutable records
are unhashable.
"""

import pytest

from sponges.cosheaf import DihomologyReport, LocalCohomologyCosheaf
from sponges.enumerative import DualityReport, ExtendedFVector, HVector
from sponges.exactalg import IntegerMatrix, SmithDecomposition
from sponges.generators import PolytopeFaceLattice, simplex_lattice
from sponges.poset import CMReport, CMWitness, GradedPoset
from sponges.search import ScanRecord, ScanSummary
from sponges.sponge import (
    AcyclicityReport,
    LocalModelReport,
    RealizationReport,
    SpongeComplex,
    SpongeValidation,
)

ONE = IntegerMatrix(1, 1, {(0, 0): 1})
WITNESS = CMWitness(chain=(1, 2), degree=0, free_rank=1, torsion=(2,))
POINT = SpongeComplex(n=2, faces=GradedPoset([("v0", 0)], []), incidence={})

# (make, a record unequal to make(), repr of make(), hash of make()); the hash
# is a number, a tuple of the fields (whose hash it is) or None (unhashable)
RECORDS = [
    (lambda: SmithDecomposition(U=ONE, D=ONE, V=ONE, diagonal=(1,)),
     SmithDecomposition(U=ONE, D=ONE, V=ONE, diagonal=(2,)),
     "SmithDecomposition(U=IntegerMatrix([[1]]), D=IntegerMatrix([[1]]), "
     "V=IntegerMatrix([[1]]), diagonal=(1,))",
     2466034473604266028),
    (lambda: CMWitness(chain=(1, 2), degree=0, free_rank=1, torsion=(2,)),
     CMWitness(chain=(1, 2), degree=1, free_rank=1, torsion=(2,)),
     "CMWitness(chain=(1, 2), degree=0, free_rank=1, torsion=(2,))",
     4736640642259562089),
    (lambda: CMReport(is_cm=True, coefficients="integers"),
     CMReport(is_cm=True, coefficients="rationals"),
     "CMReport(is_cm=True, coefficients='integers', witnesses=())",
     (True, "integers", ())),
    (lambda: CMReport(is_cm=False, coefficients="rationals", witnesses=(WITNESS,)),
     CMReport(is_cm=False, coefficients="rationals"),
     "CMReport(is_cm=False, coefficients='rationals', witnesses=(CMWitness(chain=(1, 2), "
     "degree=0, free_rank=1, torsion=(2,)),))",
     (False, "rationals", (WITNESS,))),
    (lambda: SpongeValidation(),
     SpongeValidation(vertex_free_faces=(3,)),
     "SpongeValidation(non_diamond_intervals=(), diamond_violations=(), vertex_free_faces=())",
     -3517168634428989288),
    (lambda: SpongeValidation(non_diamond_intervals=((1, 2),), diamond_violations=((1, 2, 0),),
                              vertex_free_faces=(3,)),
     SpongeValidation(non_diamond_intervals=((1, 2),), diamond_violations=((1, 2, 0),)),
     "SpongeValidation(non_diamond_intervals=((1, 2),), diamond_violations=((1, 2, 0),), "
     "vertex_free_faces=(3,))",
     -2732923366973653507),
    (lambda: AcyclicityReport(n=3, faces_ok=True, lower_interval_failures=(),
                              skeleton_acyclic_up_to=1, b_number=2, torsion_found=((1, 2),)),
     AcyclicityReport(n=3, faces_ok=True, lower_interval_failures=(),
                      skeleton_acyclic_up_to=1, b_number=3, torsion_found=((1, 2),)),
     "AcyclicityReport(n=3, faces_ok=True, lower_interval_failures=(), "
     "skeleton_acyclic_up_to=1, b_number=2, torsion_found=((1, 2),))",
     4068946963754614913),
    (lambda: LocalModelReport(violations=((1, 2, 3, 4),)),
     LocalModelReport(violations=()),
     "LocalModelReport(violations=((1, 2, 3, 4),))",
     9100042382982909912),
    (lambda: RealizationReport(degrees_checked=(0, 1)),
     RealizationReport(degrees_checked=(0,)),
     "RealizationReport(degrees_checked=(0, 1), cellular={}, simplicial={})",
     None),
    (lambda: RealizationReport(degrees_checked=(0, 1), cellular={0: (1, ())},
                               simplicial={1: (0, (2,))}),
     RealizationReport(degrees_checked=(0, 1), cellular={0: (1, ())}, simplicial={}),
     "RealizationReport(degrees_checked=(0, 1), cellular={0: (1, ())}, "
     "simplicial={1: (0, (2,))})",
     None),
    (lambda: DihomologyReport(n=3, cosheaf_ranks=(1, 0), order_complex_ranks=(1, 0),
                              concentrated=True, stray_sections=(),
                              section_torsion=((1, 2, 3),), order_complex_torsion=()),
     DihomologyReport(n=3, cosheaf_ranks=(1, 0), order_complex_ranks=(1, 0),
                      concentrated=True, stray_sections=(), section_torsion=(),
                      order_complex_torsion=()),
     "DihomologyReport(n=3, cosheaf_ranks=(1, 0), order_complex_ranks=(1, 0), "
     "concentrated=True, stray_sections=(), section_torsion=((1, 2, 3),), "
     "order_complex_torsion=())",
     None),
    (lambda: ExtendedFVector(n=3, f=[4, 6], b=3),
     ExtendedFVector(n=3, f=(4, 6), b=2),
     "ExtendedFVector(n=3, f=(4, 6), b=3)",
     1977487723631770566),
    (lambda: HVector(h=(1, 2, 1), symmetric=True, nonnegative=True),
     HVector(h=(1, 2, 1), symmetric=True, nonnegative=False),
     "HVector(h=(1, 2, 1), symmetric=True, nonnegative=True)",
     -6188979359780653942),
    (lambda: DualityReport(passed=True, identity_holds=True, euler_consistent=False,
                           betti=(1, 0), betti_alt=(1, 2)),
     DualityReport(passed=True, identity_holds=True, euler_consistent=False,
                   betti=(1, 0), betti_alt=(1, 0)),
     "DualityReport(passed=True, identity_holds=True, euler_consistent=False, "
     "betti=(1, 0), betti_alt=(1, 2))",
     8572445550870436807),
    (lambda: simplex_lattice(1),
     simplex_lattice(2),
     "PolytopeFaceLattice(dimension=1, faces=(('0', 0), ('1', 0), ('0-1', 1)), "
     "covers=(('0-1', '1'), ('0-1', '0')))",
     (1, (("0", 0), ("1", 0), ("0-1", 1)), (("0-1", "1"), ("0-1", "0")))),
    (lambda: ScanRecord(identifier="x", n=3, f=(1, 2)),
     ScanRecord(identifier="x", n=3, f=(1, 2), realized=False),
     "ScanRecord(identifier='x', n=3, f=(1, 2), b=None, h=None, symmetric=None, "
     "nonnegative=None, acyclic=False, local_model=None, error=None, realized=True)",
     ("x", 3, (1, 2), None, None, None, None, False, None, None, True)),
    (lambda: ScanRecord("y", 4, (1, 2, 3), 2, (1, 1, 1, 1), True, True, True, False, "e", False),
     ScanRecord("y", 4, (1, 2, 3), 2, (1, 1, 1, 1), True, True, True, False, "f", False),
     "ScanRecord(identifier='y', n=4, f=(1, 2, 3), b=2, h=(1, 1, 1, 1), symmetric=True, "
     "nonnegative=True, acyclic=True, local_model=False, error='e', realized=False)",
     ("y", 4, (1, 2, 3), 2, (1, 1, 1, 1), True, True, True, False, "e", False)),
    (lambda: ScanSummary(),
     ScanSummary(errors=1),
     "ScanSummary(total=0, acyclic_count=0, unrealized_count=0, ds_failures=[], "
     "nonneg_failures=[], errors=0, records=[])",
     None),
    (lambda: ScanSummary(total=1, acyclic_count=1, records=[1]),
     ScanSummary(total=1, acyclic_count=1, records=[2]),
     "ScanSummary(total=1, acyclic_count=1, unrealized_count=0, ds_failures=[], "
     "nonneg_failures=[], errors=0, records=[1])",
     None),
    (lambda: LocalCohomologyCosheaf(base=POINT),
     LocalCohomologyCosheaf(base=POINT, sections={"v0": None}),
     "LocalCohomologyCosheaf(base=SpongeComplex(n=2, f=(1,)), sections={}, "
     "sections_integral={}, cover_maps={})",
     None),
]

FROZEN = [
    (SmithDecomposition(U=ONE, D=ONE, V=ONE, diagonal=(1,)), "diagonal"),
    (WITNESS, "degree"),
    (CMReport(is_cm=True, coefficients="integers"), "is_cm"),
    (SpongeValidation(), "vertex_free_faces"),
    (AcyclicityReport(3, True, (), 1, 2, ()), "b_number"),
    (LocalModelReport(violations=()), "violations"),
    (ExtendedFVector(n=3, f=(4, 6), b=3), "f"),
    (HVector(h=(1,), symmetric=True, nonnegative=True), "h"),
    (DualityReport(True, True, True, (1,), (1,)), "passed"),
    (simplex_lattice(1), "dimension"),
    (ScanRecord(identifier="x", n=3), "error"),
]


@pytest.mark.parametrize("make, other, text, hashed", RECORDS,
                         ids=[f"{row[2].partition('(')[0]}-{i}" for i, row in enumerate(RECORDS)])
def test_records_keep_their_repr_equality_and_hash(make, other, text, hashed):
    record = make()
    assert repr(record) == text
    assert record == make() and not record != make()
    assert record != other and not record == other
    if hashed is None:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        return
    assert hash(record) == hash(make())
    assert hash(record) == (hash(hashed) if isinstance(hashed, tuple) else hashed)


@pytest.mark.parametrize("record, name", FROZEN, ids=[type(r).__name__ for r, _ in FROZEN])
def test_frozen_records_refuse_assignment(record, name):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    assert repr(record) == before


def test_mutable_records_take_assignment_and_fresh_defaults():
    first, second = ScanSummary(), ScanSummary()
    first.total += 1
    first.records.append(1)
    assert (second.total, second.records) == (0, [])
    report = RealizationReport(degrees_checked=())
    report.cellular[0] = (1, ())
    assert RealizationReport(degrees_checked=()).cellular == {}
    cosheaf = LocalCohomologyCosheaf(base=POINT)
    cosheaf.sections["v0"] = None
    assert LocalCohomologyCosheaf(base=POINT).sections == {}


def test_extended_fvector_validates_and_stores_a_tuple():
    fv = ExtendedFVector(n=3, f=[4, 6], b=3)
    assert type(fv.f) is tuple and fv == ExtendedFVector(3, (4, 6), 3)
    assert ExtendedFVector(4, range(3), 0).f == (0, 1, 2)
    for args, error in [((3, (4,), 3), ValueError), ((3, (4, -1), 3), ValueError),
                        ((3, (4, 6), -1), ValueError), ((1, (), 0), ValueError),
                        ((3, (4, 6), True), TypeError), ((3, (4, 6.0), 3), TypeError),
                        ((True, (4,), 3), TypeError), ((3, (4, "6"), 3), TypeError)]:
        with pytest.raises(error):
            ExtendedFVector(*args)
        with pytest.raises(error):  # the named-tuple constructors check too
            ExtendedFVector._make(args)
    with pytest.raises(ValueError):
        fv._replace(b=-1)
    assert fv._replace(f=[4, 5]).f == (4, 5)


def test_polytope_lattice_still_validates():
    with pytest.raises(ValueError, match="exactly one top face"):
        PolytopeFaceLattice(dimension=1, faces=(("a", 0), ("b", 0)), covers=())
    with pytest.raises(ValueError, match="out of range"):
        PolytopeFaceLattice(dimension=1, faces=(("a", 0), ("t", 1), ("x", 2)), covers=())
    lattice = simplex_lattice(2)
    assert lattice.face_count(0) == 3 and lattice.poset().rank("0-1-2") == 2
    with pytest.raises(ValueError, match="exactly one top face"):
        lattice._replace(dimension=1)
