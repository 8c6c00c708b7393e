"""Extended f-vectors, h-vectors, and Hilbert series for sponges.

All series arithmetic is exact over the integers.  Polynomials are dense
coefficient tuples in the variable t; sponge data only ever produces even
powers, and that convention is kept (rather than substituting s = t^2) so
reports read in the same variable as the underlying theory.

The two Betti-polynomial formulas are implemented independently:

    betti_polynomial      sum_i f_i t^(2n-2i) (1-t^2)^i + (1 + b t^2)(1-t^2)^(n-1)
    betti_polynomial_alt  sum_i (-1)^i f_i (1-t^2)^i + (-1)^(n-1)(b + t^2)(1-t^2)^(n-1)

The first applies one cached integer matrix of binomials per n to (1, f, b);
the second multiplies polynomials with the kit below, as `HilbertSeries`
does, so the two share no code.  They are related by reversing coefficients within degree 2n (substituting 1/t
and multiplying by t^(2n)).  That reversal relation is in fact an
unconditional polynomial identity in (f, b) -- it holds whether or not b is
Euler-consistent -- so `duality_check` reports the raw identity outcome and
gates its verdict on Euler consistency, which is the condition under which
the two formulas compute the same thing.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import NegativeB, NotAcyclicSponge

if TYPE_CHECKING:  # annotations only: `fvector_of` imports the sponge layer when it runs
    from .sponge import SpongeComplex


# ---------------------------------------------------------------------------
# small exact polynomial kit (dense coefficient lists in t)


def _ptrim(p: list[int]) -> tuple[int, ...]:
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _padd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return _ptrim(out)


def _pscale(a: Sequence[int], c: int) -> tuple[int, ...]:
    return _ptrim([c * x for x in a])


def _pmul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ptrim(out)


def _one_minus_t2_pow(k: int) -> tuple[int, ...]:
    out = [0] * (2 * k + 1)
    out[::2] = [(-1) ** m * comb(k, m) for m in range(k + 1)]
    return tuple(out)


def _shift(p: Sequence[int], by: int) -> tuple[int, ...]:
    return _ptrim([0] * by + list(p))


def _divide_by_one_minus_t2(p: Sequence[int]) -> tuple[int, ...] | None:
    """Quotient p / (1 - t^2) if exact, else None."""
    rem = list(p)
    if not rem:
        return ()
    quot = [0] * max(len(rem) - 2, 1)
    for d in range(len(rem) - 1, 1, -1):
        c = rem[d]
        if c:
            # c * t^d = -c * t^(d-2) * (1 - t^2) + c * t^(d-2)
            quot[d - 2] += -c
            rem[d] = 0
            rem[d - 2] += c
    if any(rem[:2]):  # remainder sits in degrees 0 and 1 after the sweep
        return None
    return _ptrim(quot)


def poly_string(p: Sequence[int], variable: str = "t") -> str:
    parts = []
    for d, c in enumerate(p):
        if not c:
            continue
        if d == 0:
            parts.append(str(c))
        else:
            coeff = "" if c == 1 else ("-" if c == -1 else str(c))
            power = variable if d == 1 else f"{variable}^{d}"
            parts.append(f"{coeff}{power}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _ambient(n: int) -> None:
    """Refuse an n that is not an int (a bool included) or is below 2."""
    if type(n) is not int:
        raise TypeError(f"n must be an integer, not {n!r}")
    if n < 2:
        raise ValueError("n must be at least 2")


def _face_counts(f: Sequence[int]) -> tuple[int, ...]:
    """f as a tuple, refusing any entry that is not an int (a bool included)."""
    f = tuple(f)
    for x in f:
        if type(x) is not int:
            raise TypeError(f"face counts must be integers, not {x!r}")
    return f


# ---------------------------------------------------------------------------
# data types


class _FVectorFields(NamedTuple):
    n: int
    f: tuple[int, ...]
    b: int


class ExtendedFVector(_FVectorFields):
    """Face counts (f_0, ..., f_{n-2}) plus the top Betti number b."""

    __slots__ = ()

    def __new__(cls, n: int, f: Sequence[int], b: int) -> ExtendedFVector:
        _ambient(n)
        f = _face_counts(f)
        if type(b) is not int:
            raise TypeError(f"b must be an integer, not {b!r}")
        if len(f) != n - 1:
            raise ValueError(f"expected {n - 1} face counts for n={n}, got {len(f)}")
        if any(x < 0 for x in f):
            raise ValueError("face counts must be nonnegative")
        if b < 0:
            raise ValueError("b must be nonnegative")
        return super().__new__(cls, n, f, b)

    @classmethod
    def _make(cls, iterable) -> ExtendedFVector:
        return cls(*iterable)  # checked, and so is `_replace`, which calls it

    def euler_defect(self) -> int:
        """alternating face sum minus (1 + (-1)^(n-2) b); zero iff consistent."""
        alternating = sum((-1) ** i * x for i, x in enumerate(self.f))
        return alternating - (1 + (-1) ** (self.n - 2) * self.b)

    @property
    def is_euler_consistent(self) -> bool:
        return self.euler_defect() == 0


class HVector(NamedTuple):
    h: tuple[int, ...]
    symmetric: bool
    nonnegative: bool


class HilbertSeries:
    """numerator(t) / (1 - t^2)^denominator_power, kept in lowest terms."""

    __slots__ = ("numerator", "denominator_power")

    def __init__(self, numerator: Sequence[int], denominator_power: int):
        if denominator_power < 0:
            raise ValueError("denominator power must be nonnegative")
        num = _ptrim(list(numerator))
        k = denominator_power
        while k > 0:
            reduced = _divide_by_one_minus_t2(num)
            if reduced is None:
                break
            num = reduced
            k -= 1
        self.numerator = num
        self.denominator_power = k

    def __add__(self, other: "HilbertSeries") -> "HilbertSeries":
        k = max(self.denominator_power, other.denominator_power)
        num = _padd(
            _pmul(self.numerator, _one_minus_t2_pow(k - self.denominator_power)),
            _pmul(other.numerator, _one_minus_t2_pow(k - other.denominator_power)),
        )
        return HilbertSeries(num, k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        # exact cross-multiplication; normalization makes this representational
        lhs = _pmul(self.numerator, _one_minus_t2_pow(other.denominator_power))
        rhs = _pmul(other.numerator, _one_minus_t2_pow(self.denominator_power))
        return lhs == rhs

    def __hash__(self):
        return hash((self.numerator, self.denominator_power))

    def expand(self, up_to: int) -> tuple[int, ...]:
        return series_expand(self, up_to)

    def __repr__(self) -> str:
        num = poly_string(self.numerator)
        if self.denominator_power == 0:
            return f"HilbertSeries({num})"
        return f"HilbertSeries(({num}) / (1-t^2)^{self.denominator_power})"


class DualityReport(NamedTuple):
    passed: bool
    identity_holds: bool
    euler_consistent: bool
    betti: tuple[int, ...]
    betti_alt: tuple[int, ...]


# ---------------------------------------------------------------------------
# operations


def fvector_of(z: SpongeComplex) -> ExtendedFVector:
    """Extended f-vector of an acyclic sponge; checks the Euler relation."""
    from .sponge import check_acyclic

    report = check_acyclic(z)
    if not report.is_acyclic:
        raise NotAcyclicSponge(
            f"sponge is not acyclic: faces_ok={report.faces_ok}, "
            f"acyclic up to {report.skeleton_acyclic_up_to} (need {z.n - 3})"
        )
    fv = ExtendedFVector(n=z.n, f=z.face_counts(), b=report.b_number)
    if not fv.is_euler_consistent:
        raise RuntimeError("acyclic sponge violates the Euler relation")
    return fv


def b_from_euler(f: Sequence[int], n: int) -> int:
    """Recover b from the face counts via the Euler characteristic.

    The defining relation is f_0 - f_1 + ... + (-1)^(n-2) f_{n-2}
    = 1 + (-1)^(n-2) b: both sides are the Euler characteristic of an
    acyclic sponge.  Equivalently, reading the alternating sum downward from
    the top dimension with the convention f_{-1} = 1:
    b = f_{n-2} - f_{n-3} + ... + (-1)^(n-2) f_0 + (-1)^(n-1) f_{-1}.
    (Only f_0 .. f_{n-2} and the conventional f_{-1} enter; there is no
    f_{n-1} for a sponge.)
    """
    f = _face_counts(f)
    _ambient(n)
    if len(f) != n - 1:
        raise ValueError(f"expected {n - 1} face counts for n={n}")
    return _euler_b(f, n)


def _euler_b(f: tuple[int, ...], n: int) -> int:
    """`b_from_euler` on a tuple of n - 1 integer face counts, unchecked."""
    alternating = sum(f[::2]) - sum(f[1::2])
    b = alternating - 1 if n % 2 == 0 else 1 - alternating
    if b < 0:
        raise NegativeB(f"face counts {f} force b = {b} < 0")
    return b


@lru_cache(maxsize=None)
def _betti_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row j: the coefficient of t^(2j) in `betti_polynomial`, linear in
    (1, f_0, ..., f_{n-2}, b).  f_i t^(2n-2i) (1-t^2)^i gives (-1)^k C(i, k) f_i
    with k = j - n + i, and (1 + b t^2)(1-t^2)^(n-1) gives (-1)^j C(n-1, j)
    and (-1)^(j-1) C(n-1, j-1) b; no odd power of t occurs."""
    return tuple(
        ((-1) ** j * comb(n - 1, j),
         *((-1) ** (j - n + i) * comb(i, j - n + i) if j - n + i >= 0 else 0 for i in range(n - 1)),
         (-1) ** (j - 1) * comb(n - 1, j - 1) if j else 0)
        for j in range(n + 1))


def _even_coefficients(fv: ExtendedFVector) -> tuple[int, ...]:
    """Coefficients of t^0, t^2, ..., t^(2n) in `betti_polynomial`."""
    values = (1, *fv.f, fv.b)
    return tuple(sum(map(mul, row, values)) for row in _betti_rows(fv.n))


def betti_polynomial(fv: ExtendedFVector) -> tuple[int, ...]:
    """sum_i f_i t^(2n-2i) (1-t^2)^i + (1 + b t^2) (1-t^2)^(n-1)."""
    out = [0] * (2 * fv.n + 1)
    out[::2] = _even_coefficients(fv)
    return tuple(out)


def betti_polynomial_alt(fv: ExtendedFVector) -> tuple[int, ...]:
    """sum_i (-1)^i f_i (1-t^2)^i + (-1)^(n-1) (b + t^2) (1-t^2)^(n-1)."""
    n = fv.n
    total: tuple[int, ...] = ()
    for i, fi in enumerate(fv.f):
        total = _padd(total, _pscale(_one_minus_t2_pow(i), (-1) ** i * fi))
    tail = _pscale(_pmul((fv.b, 0, 1), _one_minus_t2_pow(n - 1)), (-1) ** (n - 1))
    total = _padd(total, tail)
    out = list(total) + [0] * (2 * n + 1 - len(total))
    return tuple(out[: 2 * n + 1])


def duality_check(fv: ExtendedFVector) -> DualityReport:
    """Compare t^(2n) * betti_polynomial_alt(1/t) against betti_polynomial.

    The coefficient reversal itself is an unconditional identity, so the
    verdict additionally requires b to satisfy the Euler relation -- exactly
    the hypothesis under which the two formulas agree with each other and
    compute honest Betti numbers.  Both polynomials are returned.
    """
    betti = betti_polynomial(fv)
    alt = betti_polynomial_alt(fv)
    reversed_alt = tuple(alt[len(alt) - 1 - i] for i in range(len(alt)))
    identity = reversed_alt == betti
    euler = fv.is_euler_consistent
    return DualityReport(
        passed=identity and euler,
        identity_holds=identity,
        euler_consistent=euler,
        betti=betti,
        betti_alt=alt,
    )


def hvector_of(fv: ExtendedFVector) -> HVector:
    """h_i = coefficient of t^(2i) in the Betti polynomial, with flags.

    Asymmetric or negative h-vectors are findings, not errors.
    """
    h = _even_coefficients(fv)
    return HVector(h=h, symmetric=h == h[::-1], nonnegative=min(h) >= 0)


def hilbert_equivariant(fv: ExtendedFVector) -> HilbertSeries:
    """sum_i f_i t^(2n-2i) / (1-t^2)^(n-1-i) + (1 + b t^2), normalized.

    Summation happens in rational-series arithmetic (common denominators a
    power of 1-t^2); no expansion through the Betti polynomial is involved,
    so the equivariant/ordinary consistency identity is a real check.
    """
    n = fv.n
    total = HilbertSeries((1, 0, fv.b), 0)
    for i, fi in enumerate(fv.f):
        if fi:
            total = total + HilbertSeries(_shift((fi,), 2 * n - 2 * i), n - 1 - i)
    return total


def series_expand(s: HilbertSeries, up_to: int) -> tuple[int, ...]:
    """Exact power-series coefficients of s through degree up_to."""
    if up_to < 0:
        raise ValueError("expansion degree must be nonnegative")
    k = s.denominator_power
    out = [0] * (up_to + 1)
    # 1/(1-t^2)^k has coefficient C(j+k-1, k-1) at t^(2j)
    for d, c in enumerate(s.numerator):
        if not c or d > up_to:
            continue
        if k == 0:
            out[d] += c
            continue
        j = 0
        while d + 2 * j <= up_to:
            out[d + 2 * j] += c * comb(j + k - 1, k - 1)
            j += 1
    return tuple(out)
