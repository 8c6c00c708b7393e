"""The SpongeComplex type: a graded face poset with signed incidence data.

A sponge of ambient parameter n (n >= 2) has faces of dimensions 0..n-2 and
an integer incidence number on every cover pair.  Three combinatorial axioms
are validated: every rank-2 interval is a diamond (exactly two intermediate
faces), every diamond satisfies the sign relation
[F:G1][G1:F'] + [F:G2][G2:F'] = 0, and every face has a vertex below it.

Cellular (co)homology is read straight off the incidence numbers: a cellular
complex is `complexes.cell_complex` on the faces, each face's faces being
its lower covers with their incidences (`poset.cellular_faces`, as for the
face poset's cellular intervals).  Each sponge keeps one cellular
complex per ``augmented`` flag, so every homology question on it reads one
complex and the ranks and Smith diagonals of its coreduced residual, cached
on it.  Local cohomology at a face F is the homology of
`section_complex(z, F)`, the cochain subcomplex on the faces above F,
built from those faces alone; the cosheaf takes its sections, bases and
cover maps from the same complex.  For compact face-acyclic sponges
this agrees with the order-complex pair computation, which the test suite
keeps as an independent oracle.  The two genuinely differ on the non-compact
local models, whose faces are cones; such sponges carry the ``non_compact``
flag and keep only the local-cohomology / poset / Cohen-Macaulay machinery
enabled.  Order-complex homology, of (0^, F) for face acyclicity and of
(0^, 1^) for the realization cross-check, is `poset.interval_homology`,
cached on the face poset, so the checks eliminate each interval at most
once per sponge.  With +-1 incidences each (0^, F) is read from cells, but
(0^, 1^) never is: the cross-check must not read the incidences.

Face identifiers are opaque strings, and the canonical generator order is
(dimension, identifier) everywhere, so every matrix in this module is
reproducible byte for byte.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import HomologyProfile, IntegerChainComplex, cell_complex, cohomology, homology
from .errors import (
    InvalidSponge,
    MalformedComplex,
    NonCompactSponge,
    NotAcyclicSponge,
    NotDiamond,
    RealizationMismatch,
    SignUnsolvable,
)
from .poset import GradedPoset, _sphere_defect, cellular_faces, interval_homology


class SpongeComplex:
    """Faces of dimensions 0..n-2 with integer incidence numbers on covers."""

    __slots__ = ("n", "faces", "incidence", "non_compact", "name", "_validation", "_cellular")

    def __init__(
        self,
        n: int,
        faces: GradedPoset,
        incidence: dict[tuple[str, str], int],
        non_compact: bool = False,
        name: str = "",
    ):
        if type(n) is not int:
            raise TypeError(f"ambient parameter n must be an integer, not {n!r}")
        if n < 2:
            raise ValueError("ambient parameter n must be at least 2")
        top = faces.max_rank()
        if top > n - 2:
            raise ValueError(f"face of dimension {top} exceeds n-2 = {n - 2}")
        cover_set = set(faces.covers())
        provided = set(incidence)
        if provided != cover_set:
            extra = provided - cover_set
            missing = cover_set - provided
            raise ValueError(
                f"incidence keys must match covers exactly "
                f"(extra: {sorted(extra)[:3]}, missing: {sorted(missing)[:3]})"
            )
        for cover, v in incidence.items():
            if type(v) is not int:
                raise TypeError(f"incidence of {cover} must be an integer, not {v!r}")
            if not v:
                raise ValueError("incidence numbers must be nonzero")
        self.n = n
        self.faces = faces
        self.incidence = dict(incidence)
        self.non_compact = bool(non_compact)
        self.name = name
        self._validation: SpongeValidation | None = None
        self._cellular: dict[bool, IntegerChainComplex] = {}

    @property
    def dimension(self) -> int:
        return self.n - 2

    def faces_of_dim(self, d: int) -> list[str]:
        return self.faces.elements_of_rank(d)

    def face_counts(self) -> tuple[int, ...]:
        return tuple(len(self.faces_of_dim(d)) for d in range(self.n - 1))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"SpongeComplex(n={self.n}, f={self.face_counts()}{label})"


class SpongeValidation(NamedTuple):
    """Structured result of validate_sponge; never raised from there."""

    non_diamond_intervals: tuple = ()
    diamond_violations: tuple = ()
    vertex_free_faces: tuple = ()

    @property
    def is_valid(self) -> bool:
        return not (
            self.non_diamond_intervals
            or self.diamond_violations
            or self.vertex_free_faces
        )

    def summary(self) -> str:
        return (
            f"{len(self.non_diamond_intervals)} non-diamond intervals, "
            f"{len(self.diamond_violations)} diamond violations, "
            f"{len(self.vertex_free_faces)} vertex-free faces"
        )


def rank2_intervals(faces: GradedPoset):
    """Yield (upper, lower, middles) for every length-2 interval, sorted."""
    for upper in faces.elements():
        grand: dict[str, list[str]] = {}
        for mid in faces.lower_covers(upper):
            for low in faces.lower_covers(mid):
                grand.setdefault(low, []).append(mid)
        for low in sorted(grand, key=faces.sort_key):
            yield upper, low, sorted(grand[low], key=faces.sort_key)


def validate_sponge(z: SpongeComplex) -> SpongeValidation:
    """Check the three sponge axioms, collecting every violation."""
    non_diamond = []
    violations = []
    for upper, low, middles in rank2_intervals(z.faces):
        if len(middles) != 2:
            non_diamond.append((upper, low, tuple(middles)))
            continue
        g1, g2 = middles
        total = (
            z.incidence[(upper, g1)] * z.incidence[(g1, low)]
            + z.incidence[(upper, g2)] * z.incidence[(g2, low)]
        )
        if total != 0:
            violations.append((upper, low, total))
    vertexless = []
    for f in z.faces.elements():
        if not any(z.faces.rank(t) == 0 for t in z.faces.downset(f)):
            vertexless.append(f)
    return SpongeValidation(
        non_diamond_intervals=tuple(non_diamond),
        diamond_violations=tuple(violations),
        vertex_free_faces=tuple(vertexless),
    )


def _validated(z: SpongeComplex) -> SpongeValidation:
    """The validation verdict, computed once and cached on the sponge."""
    if z._validation is None:
        z._validation = validate_sponge(z)
    return z._validation


def ensure_valid(z: SpongeComplex) -> None:
    if not _validated(z).is_valid:
        raise InvalidSponge(z._validation)


def incidence_signs(z: SpongeComplex) -> dict[tuple[str, str], int] | None:
    """The incidences as a signing for `poset.interval_homology`, or None.

    A signing is +-1 on every cover and satisfies every diamond relation, on
    a poset whose rank-2 intervals are all diamonds.  The incidences are one
    exactly when the sponge validates and each of them is +-1; otherwise the
    face poset's intervals take the chain route.
    """
    if _validated(z).is_valid and all(v in (1, -1) for v in z.incidence.values()):
        return z.incidence
    return None


def cellular_complex(z: SpongeComplex, augmented: bool = False) -> IntegerChainComplex:
    """The cellular chain complex: one generator per face, incidence boundary.

    With ``augmented`` a rank-one group in degree -1, the cell None, receives
    every vertex with coefficient 1; this requires the edge incidences to be
    balanced (each 1-face's vertex incidences sum to zero), and an unbalanced
    edge raises `MalformedComplex` naming it.  The complex is cached on the
    sponge per flag; an unbalanced edge is never cached, so it raises again.
    """
    ensure_valid(z)
    if augmented in z._cellular:
        return z._cellular[augmented]
    cells: dict[int, list] = {d: z.faces_of_dim(d) for d in range(z.n - 1)}
    if augmented:
        for e in cells.get(1, ()):
            k = sum(z.incidence[(e, g)] for g in z.faces.lower_covers(e))
            if k:
                raise MalformedComplex(
                    f"edge {e!r} is unbalanced: its vertex incidences sum to {k}, not 0"
                )
        cells[-1] = [None]
    z._cellular[augmented] = cell_complex(cells, lambda f: cellular_faces(z.faces, z.incidence, f))
    return z._cellular[augmented]


class AcyclicityReport(NamedTuple):
    n: int
    faces_ok: bool
    lower_interval_failures: tuple
    skeleton_acyclic_up_to: int
    b_number: int
    torsion_found: tuple

    @property
    def is_acyclic(self) -> bool:
        return self.faces_ok and self.skeleton_acyclic_up_to >= self.n - 3


def check_acyclic(z: SpongeComplex) -> AcyclicityReport:
    """Face acyclicity via lower intervals, plus skeleton acyclicity.

    Condition (i): for every face F, the open interval (0^, F) of faces
    strictly below F must be a homology (dim F - 1)-sphere over Z.  Its
    homology comes from `interval_homology`, signed by `incidence_signs`;
    the empty interval is the (-1)-sphere, so vertices pass without
    elimination.  Condition (ii): the reduced cellular cohomology must
    vanish in degrees up to n-3; the report also carries the rank of the
    top reduced cohomology (the b-number) and any torsion.
    """
    ensure_valid(z)
    if z.non_compact:
        raise NonCompactSponge(
            "face acyclicity is undefined for non-compact sponges (cone faces)"
        )
    failures, signs = [], incidence_signs(z)
    for f in z.faces.elements():
        prof, _ = interval_homology(z.faces, None, f, signs)
        defect = _sphere_defect(prof, z.faces.rank(f) - 1)
        if defect is not None:
            failures.append((f, tuple(sorted(defect.items()))))
    reduced = cohomology(cellular_complex(z, augmented=True))
    up_to = -2
    for i in range(-1, z.n - 1):
        if reduced.free_rank(i) == 0 and not reduced.torsion(i):
            up_to = i
        else:
            break
    return AcyclicityReport(
        n=z.n,
        faces_ok=not failures,
        lower_interval_failures=tuple(failures),
        skeleton_acyclic_up_to=up_to,
        b_number=reduced.free_rank(z.n - 2),
        torsion_found=tuple(reduced.total_torsion()),
    )


def faces_above(z: SpongeComplex, face: str) -> dict[int, list[str]]:
    """Per dimension, the faces above ``face`` in canonical order."""
    up = z.faces.upset(face)
    return {d: [f for f in z.faces_of_dim(d) if f in up] for d in range(z.n - 1)}


def section_complex(z: SpongeComplex, face: str) -> IntegerChainComplex:
    """The cellular cochain complex on the faces above F, degree p at chain degree -p.

    A p-face G goes to the sum of [H:G] H over its upper covers H, which lie
    above F when G does: these cochains span a subcomplex of the cellular
    cochain complex, the cochain complex of the quotient by the faces not
    above F, so its homology at -p is the local cohomology H^p at F.
    """
    ensure_valid(z)  # an unknown face raises UnknownElement in `faces_above`
    return _section_complex(z, faces_above(z, face))


def _section_complex(z: SpongeComplex, above: dict[int, list[str]]) -> IntegerChainComplex:
    """`section_complex` on the `faces_above` lists of its face."""
    return cell_complex(
        {-d: faces for d, faces in above.items()},
        lambda g: [(h, z.incidence[h, g]) for h in z.faces.upper_covers(g)],
    )


def _section_cohomology(section: IntegerChainComplex, coefficients: str) -> HomologyProfile:
    """The cohomology of a `section_complex`: its homology at -p, read at degree p."""
    h = homology(section, coefficients)
    return HomologyProfile({-d: (h.free_rank(d), h.torsion(d)) for d in h.degrees()})


def local_cohomology(
    z: SpongeComplex, face: str, coefficients: str = "integers"
) -> HomologyProfile:
    """Cohomology of the sponge relative to everything outside the star of F.

    This is the homology of `section_complex`, the cochain subcomplex on
    the up-set of F, read in cohomological degrees, and the cosheaf's
    section at F.
    """
    return _section_cohomology(section_complex(z, face), coefficients)


class LocalModelReport(NamedTuple):
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def check_local_model(z: SpongeComplex) -> LocalModelReport:
    """Cover-count regularity imposed by the local structure.

    Every face of dimension k < n-2 must be covered by exactly n-k faces of
    dimension k+1.  This is a necessary combinatorial consequence of the
    local model, not known to be sufficient; violations are listed.
    """
    ensure_valid(z)
    violations = []
    for f in z.faces.elements():
        k = z.faces.rank(f)
        if k >= z.n - 2:
            continue
        found = len(z.faces.upper_covers(f))
        if found != z.n - k:
            violations.append((f, k, found, z.n - k))
    return LocalModelReport(violations=tuple(violations))


def sign_solver(faces: GradedPoset) -> dict[tuple[str, str], int]:
    """Solve for +-1 incidence numbers satisfying every diamond relation.

    Writing each sign as (-1)^x, every diamond contributes the linear
    equation x(F,G1)+x(G1,F')+x(F,G2)+x(G2,F') = 1 over GF(2).  Edges with
    exactly two vertices additionally get the balance equation
    x(e,v)+x(e,w) = 1, so the assignment orients the complex (without it the
    augmented chain complex, and with it integral H_0, would be wrong; a
    one-vertex gauge flip of any balanced solution breaks balance while
    preserving all diamonds, so balance is not implied).  Free variables are
    set to zero, so the output is deterministic.

    One Gauss-Jordan pass solves it.  A pivot is keyed by its lead bit, its
    row's lowest unknown (the constant term is the top bit), and kept zero at
    every other lead, so a row's leads clear in any order; the pivots end as
    the reduced row echelon form, which is unique, so no order matters.

    Raises NotDiamond if some rank-2 interval lacks exactly two middles, and
    SignUnsolvable if the system is inconsistent.
    """
    covers = sorted(faces.covers(), key=lambda uv: (faces.sort_key(uv[0]), faces.sort_key(uv[1])))
    var = {cover: i for i, cover in enumerate(covers)}
    nvars = len(covers)

    def equation(*terms) -> int:  # a bitmask row: the terms sum to 1, bit nvars
        return sum(1 << var[cover] for cover in terms) | 1 << nvars

    bad = []
    equations: list[int] = []
    for upper, low, middles in rank2_intervals(faces):
        if len(middles) != 2:
            bad.append((upper, low, tuple(middles)))
            continue
        g1, g2 = middles
        equations.append(equation((upper, g1), (g1, low), (upper, g2), (g2, low)))
    if bad:
        raise NotDiamond(bad)
    for e in faces.elements_of_rank(1):
        below = faces.lower_covers(e)
        if len(below) == 2:
            equations.append(equation((e, below[0]), (e, below[1])))
    pivots: dict[int, int] = {}  # lead bit -> row, zero at every other lead bit
    leads = 0
    for row in equations:
        held = row & leads
        while held:
            bit = held & -held
            row ^= pivots[bit]
            held ^= bit
        lead = row & -row  # the lowest unknown, or the constant bit if none is left
        if lead >> nvars:  # 0 = 1
            raise SignUnsolvable(
                "no +-1 incidence assignment satisfies the diamond relations"
            )
        if not lead:
            continue
        for bit, prow in pivots.items():
            if prow & lead:
                pivots[bit] = prow ^ row
        pivots[lead] = row
        leads |= lead
    return {cover: -1 if pivots.get(1 << i, 0) >> nvars else 1 for cover, i in var.items()}


class RealizationReport:
    def __init__(self, degrees_checked: tuple, cellular: dict | None = None,
                 simplicial: dict | None = None):
        self.degrees_checked = degrees_checked
        self.cellular = {} if cellular is None else cellular
        self.simplicial = {} if simplicial is None else simplicial

    def __eq__(self, other) -> bool:
        if type(other) is not RealizationReport:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"RealizationReport({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


def realization_cross_check(z: SpongeComplex) -> RealizationReport:
    """Reduced cellular cohomology must match that of the order complex.

    The order complex is the barycentric-subdivision model of the sponge, so
    for face-acyclic sponges both sides compute the same groups (free ranks
    and torsion, degree by degree); the order-complex side is the cached
    homology of (0^, 1^) by universal coefficients.  Raises
    RealizationMismatch at the first disagreeing degree, NotAcyclicSponge if
    the face condition fails first.
    """
    report = check_acyclic(z)  # raises InvalidSponge first
    if not report.faces_ok:
        raise NotAcyclicSponge(
            f"faces fail the lower-interval sphere condition: "
            f"{[f for f, _ in report.lower_interval_failures]}"
        )
    cellular = cohomology(cellular_complex(z, augmented=True))
    reduced, _ = interval_homology(z.faces, None, None)  # torsion moves up one degree
    simplicial = HomologyProfile({d: (reduced.free_rank(d), reduced.torsion(d - 1))
                                  for d in range(-1, z.n - 1)})
    degrees = sorted(set(cellular.degrees()) | set(simplicial.degrees()) | set(range(z.n - 1)))
    for d in degrees:
        left = (cellular.free_rank(d), cellular.torsion(d))
        right = (simplicial.free_rank(d), simplicial.torsion(d))
        if left != right:
            raise RealizationMismatch(d, left, right)
    return RealizationReport(
        degrees_checked=tuple(degrees),
        cellular={d: (cellular.free_rank(d), cellular.torsion(d)) for d in degrees},
        simplicial={d: (simplicial.free_rank(d), simplicial.torsion(d)) for d in degrees},
    )
