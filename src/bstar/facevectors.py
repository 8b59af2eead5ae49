"""Face-counting invariants: f-, h-, h'-, and short simplicial h-vectors.

The h-numbers come from the polynomial identity
sum_j h_j x^(d-j) = sum_i f_(i-1) (x-1)^(d-i) with d = dim + 1; for
non-pure complexes the same d is used and callers are expected to check
purity where a statement requires it.  The h'-numbers correct h by the
reduced Betti numbers and therefore carry a field tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import Complex, NotPureError
from .homology import reduced_betti
from .linalg import CoefficientField, InvariantError


def f_vector(c: Complex) -> tuple:
    """Face counts (f_-1, f_0, ..., f_(dim))."""
    if c.is_void:
        raise ValueError("f-vector of the void complex is undefined")
    return tuple(map(len, c.face_table()))


def h_from_f(f: tuple) -> tuple:
    """h-vector from an f-vector indexed from f_-1 (d = len(f) - 1)."""
    d = len(f) - 1
    return tuple(
        sum((-1) ** (j - i) * comb(d - i, j - i) * f[i] for i in range(j + 1))
        for j in range(d + 1)
    )


def f_from_h(h: tuple) -> tuple:
    """Inverse transform; exact round trip with :func:`h_from_f`."""
    d = len(h) - 1
    return tuple(
        sum(comb(d - j, i - j) * h[j] for j in range(i + 1))
        for i in range(d + 1)
    )


def h_vector(c: Complex) -> tuple:
    """h-numbers (h_0, ..., h_d) with d = dim + 1."""
    return h_from_f(f_vector(c))


def reduced_euler_characteristic(c: Complex) -> int:
    """chi-tilde = -f_-1 + f_0 - f_1 + ..."""
    f = f_vector(c)
    return sum(n if k % 2 else -n for k, n in enumerate(f))


def h_prime_vector(c: Complex, field: CoefficientField) -> tuple:
    """h'-numbers: h_j plus the binomially weighted alternating sum of the
    reduced Betti numbers below degree j-1.  Requires a pure complex."""
    if not c.is_pure:
        raise NotPureError("h'-numbers are defined for pure complexes")
    h = h_vector(c)
    betti = reduced_betti(c, field)
    d = len(h) - 1
    out = []
    for j in range(d + 1):
        corr = sum((-1) ** (j - i - 1) * betti[i - 1] for i in range(j))
        out.append(h[j] + comb(d, j) * corr)
    return tuple(out)


def short_simplicial_h(c: Complex) -> tuple:
    """Short simplicial h-numbers: coordinatewise sums of vertex-link
    h-vectors.  Requires a pure complex."""
    if c.is_void or not c.is_pure:
        raise NotPureError("short simplicial h-numbers require a pure complex")
    d = c.dim + 1
    out = [0] * d
    for v in c.vertices:
        link_h = h_vector(c.link((v,)))
        for j, val in enumerate(link_h):
            out[j] += val
    h = h_vector(c)
    for j in range(1, d + 1):
        if out[j - 1] != j * h[j] + (d - j + 1) * h[j - 1]:
            raise InvariantError(f"short-h identity fails at j={j}")
    return tuple(out)


def poly_geq(a, b) -> bool:
    """Coefficientwise a >= b, zero-padding the shorter sequence."""
    n = max(len(a), len(b))
    pa = tuple(a) + (0,) * (n - len(a))
    pb = tuple(b) + (0,) * (n - len(b))
    return all(x >= y for x, y in zip(pa, pb))


@dataclass(frozen=True)
class FaceVectors:
    """All face-counting invariants of one complex over one field."""

    f: tuple
    h: tuple
    h_prime: tuple | None
    short_h: tuple | None
    chi_reduced: int
    is_pure: bool
    field: CoefficientField

    @classmethod
    def compute(cls, c: Complex, field: CoefficientField) -> "FaceVectors":
        pure = c.is_pure
        return cls(
            f=f_vector(c),
            h=h_vector(c),
            h_prime=h_prime_vector(c, field) if pure else None,
            short_h=short_simplicial_h(c) if pure else None,
            chi_reduced=reduced_euler_characteristic(c),
            is_pure=pure,
            field=field,
        )
