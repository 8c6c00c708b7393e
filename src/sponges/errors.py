"""The exception classes of the package, in one module that imports nothing.

Each module that raises or catches one of them imports it from here, so
``sponges.generators.BadParameter is sponges.errors.BadParameter``, and the
command line can name its exit codes without importing any layer.
"""


class MalformedComplex(ValueError):
    """The boundary data does not define a chain complex."""


class NotAChainMap(ValueError):
    """The given per-degree matrices do not commute with the boundaries."""

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"map fails to commute with boundaries at degree {degree}")


class CyclicPoset(ValueError):
    """Cover data incompatible with a grading (would create a cycle)."""


class UnknownElement(KeyError):
    """An element identifier not present in the poset."""


class InvalidSponge(ValueError):
    """The sponge fails structural validation; carries the report."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"invalid sponge: {report.summary()}")


class NonCompactSponge(ValueError):
    """Operation disabled for non-compact sponges (cone faces)."""


class NotAcyclicSponge(ValueError):
    """The sponge fails the acyclicity conditions."""


class NotDiamond(ValueError):
    """Some rank-2 interval does not have exactly two intermediate faces."""

    def __init__(self, intervals):
        self.intervals = tuple(intervals)
        super().__init__(f"{len(self.intervals)} rank-2 intervals are not diamonds")


class SignUnsolvable(ValueError):
    """The diamond/balance sign system has no solution over +-1."""


class RealizationMismatch(ValueError):
    """Cellular and order-complex cohomology disagree."""

    def __init__(self, degree: int, cellular, simplicial):
        self.degree = degree
        self.cellular = cellular
        self.simplicial = simplicial
        super().__init__(
            f"cohomology mismatch in degree {degree}: "
            f"cellular {cellular} vs order complex {simplicial}"
        )


class NotCohenMacaulay(ValueError):
    """The face poset fails the Cohen-Macaulay precondition."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"face poset is not Cohen-Macaulay ({len(report.witnesses)} witnesses)"
        )


class RankMismatch(ValueError):
    """The two sides of the dihomology comparison disagree."""

    def __init__(self, r: int, lhs: int, rhs: int):
        self.r = r
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"dihomology rank mismatch at r={r}: cosheaf side {lhs}, "
            f"order-complex side {rhs}"
        )


class NegativeB(ValueError):
    """The Euler relation forces a negative b; no acyclic sponge fits."""


class BadParameter(ValueError):
    """Generator parameters out of range."""


class UnknownBuiltin(KeyError):
    """No builtin object with that name."""


class NotSimple(ValueError):
    """Not a simple polytope's lattice: a rank-2 interval is not a diamond,
    or the skeleton's b-number is not the number of facets minus one."""


class CorruptCheckpoint(ValueError):
    """An unreadable or unwritable checkpoint, or a complete line that is not a scan record."""
