"""Exact linear algebra over the rationals and prime fields.

Matrices hold ints only, checked where entries come in (``Matrix`` and
``Matrix.from_rows``), and are interpreted through a CoefficientField at
elimination time, so the same matrix can be ranked over Q and over any
F_p.  A rational matrix has the rank and kernel of its rows scaled to
integers.  There is no floating point anywhere.  A matrix is stored as
the rows the elimination uses, {row: {column: int}}, so take_rows shares
them and they reach the elimination uncopied; the elimination never
mutates them.  A Matrix only holds and selects entries; the arithmetic is
four functions: :func:`rank`, :func:`pivot_columns`, :func:`kernel_basis`
and :func:`product_is_zero`.

One sparse elimination routine, :func:`_eliminated`, serves rank and
kernel_basis.  It works on rows stored as {column: int} over a modulus.
With modulus 0 it eliminates over the integers, pivoting only on entries
1 and -1; this runs first.  Those row operations are unimodular and leave
unit pivots, so when every pivot is a unit the rank and the integral
RREF hold over Q and, read mod p, over every F_p at once (Dumas, Saunders
and Villard, JSC 2001, reduce homology boundary matrices this way
first).  A matrix that needs a pivot that is not a unit falls back to
elimination over its field.  Over Q the rows are reduced fraction-free
(row = b*row - a*pivot), and every new row is divided by the gcd of its
entries, which keeps the integers small.  Over F_p the entries are read
mod p and each pivot row is scaled to a leading 1.  rank stops after
forward elimination; kernel_basis also back-substitutes, and its columns
are ints on every path.  The reduced row echelon form is unique, so
results do not depend on the order rows are eliminated in or on the path
taken.  rank skips elimination on a matrix with at most one row or one
column: its rank is 1 exactly when some entry is non-zero in the field.

Every result that could differ between fields (a fallback, or a thin
matrix with no entry 1 or -1) moves a per-thread counter,
:func:`_field_dependence`.  A caller that finds the counter unmoved
across a computation over one field may reuse the result for any other.

:func:`pivot_columns` gives the pivot columns of rank's elimination,
so rank(m) == len(pivot_columns(m)).  When AB = 0, the echelon rows of A
are independent relations among the rows of B, so B has the rank of its
rows outside A's pivot columns (clearing).  The pivots hold over every
field when unit pivots finish, and over the field alone after a
fallback, which has moved the counter.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence
from math import gcd, lcm


class ShapeError(ValueError):
    """Incompatible matrix/vector dimensions."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class CoefficientField:
    """Descriptor of an exact coefficient field: the rationals or F_p."""

    __slots__ = ("kind", "p")
    _instances: dict = {}

    def __new__(cls, kind: str, p: int | None = None):
        key = (kind, p)
        inst = cls._instances.get(key)
        if inst is None:
            if kind == "prime_field":
                if not isinstance(p, int) or not _is_prime(p):
                    raise ValueError(f"{p!r} is not a prime")
            elif kind != "rationals":
                raise ValueError(f"unknown field kind {kind!r}")
            inst = object.__new__(cls)
            inst.kind = kind
            inst.p = p
            cls._instances[key] = inst
        return inst

    def __reduce__(self):
        return CoefficientField, (self.kind, self.p)

    @classmethod
    def rationals(cls) -> "CoefficientField":
        return cls("rationals")

    @classmethod
    def prime(cls, p: int) -> "CoefficientField":
        return cls("prime_field", p)

    @property
    def label(self) -> str:
        return "Q" if self.kind == "rationals" else f"F{self.p}"

    def __repr__(self) -> str:
        return f"CoefficientField({self.label})"


QQ = CoefficientField.rationals()
GF2 = CoefficientField.prime(2)
GF3 = CoefficientField.prime(3)


class _Entries(Mapping):
    """Read-only {(i, j): v} view of a matrix's rows; its length costs one
    len per row, not a copy of every entry."""

    __slots__ = ("_rows",)

    def __init__(self, rows: dict):
        self._rows = rows

    def __getitem__(self, key):
        i, j = key
        return self._rows[i][j]

    def __iter__(self):
        return ((i, j) for i, row in self._rows.items() for j in row)

    def __len__(self) -> int:
        return sum(map(len, self._rows.values()))

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class Matrix:
    """Immutable integer matrix stored as its non-zero rows {i: {j: v}}.

    Entries are ints only: any other type, bool included, raises TypeError.
    Zeros and empty rows are never stored.  Matrices may share row dicts,
    so nothing may mutate them.  Use :meth:`from_rows` for small literals.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, entries: dict | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise ShapeError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                if type(v) is not int:
                    raise TypeError(f"entry ({i},{j}) is {v!r}, not an int")
                if v:
                    row = rows.get(i)
                    if row is None:
                        rows[i] = row = {}
                    row[j] = v

    @classmethod
    def _of_rows(cls, nrows: int, ncols: int, rows: dict) -> "Matrix":
        """A matrix over rows already in range, free of zeros and empty
        rows; the rows are shared, not copied."""
        m = object.__new__(cls)
        m.nrows = nrows
        m.ncols = ncols
        m.rows = rows
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ShapeError("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(nrows, ncols, entries)

    @property
    def entries(self) -> Mapping:
        """The non-zero entries as a read-only {(i, j): v} mapping."""
        return _Entries(self.rows)

    def __getitem__(self, key):
        i, j = key
        return self.rows.get(i, {}).get(j, 0)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        cpos = {c: j for j, c in enumerate(col_idx)}
        out = {}
        for i, r in enumerate(row_idx):
            row = self.rows.get(r)
            if row:
                kept = {cpos[c]: v for c, v in row.items() if c in cpos}
                if kept:
                    out[i] = kept
        return Matrix._of_rows(len(row_idx), len(col_idx), out)

    def take_rows(self, row_idx: Sequence[int]) -> "Matrix":
        rows = self.rows
        out = {i: rows[r] for i, r in enumerate(row_idx) if r in rows}
        return Matrix._of_rows(len(row_idx), self.ncols, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return (f"Matrix({self.nrows}x{self.ncols}, "
                f"{len(self.entries)} non-zero)")


class InvariantError(AssertionError):
    """An exact result failed a consistency check (also under python -O)."""


_local = threading.local()


def _field_dependence() -> int:
    """How often this thread has computed, or read from a cache, a result
    that could differ between fields.  Per thread, so that another
    thread's work never hides one."""
    return getattr(_local, "count", 0)


def _depends_on_field() -> None:
    """Record that the result being computed could differ between fields."""
    _local.count = getattr(_local, "count", 0) + 1


def _residues(rows: dict, p: int) -> dict:
    """The rows with their entries mod p, in [1, p); rows that vanish mod
    p are dropped."""
    out = {}
    for i, row in rows.items():
        row = {j: r for j, v in row.items() if (r := v % p)}
        if row:
            out[i] = row
    return out


def _eliminate(row: dict, prow: dict, col: int, p: int | None) -> dict:
    """b*row - a*prow with a, b chosen to clear column col.

    Over Q (p None) this is fraction-free and the result is divided by its
    content.  Over F_p prow has a leading 1, so b = 1.  With p = 0 prow
    has a leading 1 and the arithmetic is over the integers.
    """
    a, b = row[col], prow[col]
    if p is None:
        g = gcd(a, b)
        a, b = a // g, b // g
    out = {j: b * v for j, v in row.items()} if b != 1 else dict(row)
    for j, v in prow.items():
        nv = out.get(j, 0) - a * v
        if p:
            nv %= p
        if nv:
            out[j] = nv
        else:
            del out[j]
    if p is None and (g := gcd(*out.values())) > 1:
        out = {j: v // g for j, v in out.items()}
    return out


def _echelon(m: Matrix, field: CoefficientField, reduced: bool) -> dict:
    """Echelon rows of m keyed by pivot column: {pivot: {col: int}}.

    Each row's smallest column is its pivot.  With reduced=True every row
    is also zero in the other pivot columns, so dividing each row by its
    pivot entry gives the RREF.  The rows of m are never mutated (matrices
    share them): every changed row is a new dict, and a pivot row may be
    one of m's own rows.  Unit pivots over the integers come first, and
    their rows hold over Q and, read mod p, over F_p; the elimination over
    the field is the fallback, and it moves the field-dependence counter.
    """
    pivots = _eliminated(m.rows, 0, reduced)
    if pivots is None:
        _depends_on_field()
        p = field.p
        pivots = _eliminated(_residues(m.rows, p) if p else m.rows, p, reduced)
    return pivots


def _eliminated(rows: dict, p: int | None, reduced: bool) -> dict | None:
    """Echelon rows of int rows over the modulus p: with p = 0 over the
    integers, pivoting only on entries 1 and -1, and None when a pivot
    would not be a unit; fraction-free over Q with p None; over F_p with p
    prime, on residues in [1, p).  Every pivot entry is 1 except over Q."""
    pivots: dict = {}
    for row in rows.values():
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                a = row[lead]
                if p == 0 and a != 1:
                    if a != -1:
                        return None
                    row = {j: -v for j, v in row.items()}
                elif p and a != 1:
                    inv = pow(a, -1, p)
                    row = {j: v * inv % p for j, v in row.items()}
                pivots[lead] = row
                break
            row = _eliminate(row, prow, lead, p)
    if reduced:
        _back_substitute(pivots, p)
    return pivots


def _back_substitute(pivots: dict, p: int | None) -> None:
    """Clear every pivot column from the other rows, in place."""
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for col in [j for j in row if j != lead and j in pivots]:
            row = _eliminate(row, pivots[col], col, p)
        pivots[lead] = row


def rank(m: Matrix, field: CoefficientField) -> int:
    """Rank of the matrix over the given field."""
    if m.nrows <= 1 or m.ncols <= 1:
        # 1 iff some entry is non-zero in the field.  An entry 1 or -1 is
        # non-zero in every field; any other entry may vanish mod p.
        values = [v for row in m.rows.values() for v in row.values()]
        if 1 in values or -1 in values:
            return 1
        if not values:
            return 0
        _depends_on_field()
        p = field.p
        return int(not p or any(v % p for v in values))
    return len(pivot_columns(m, field))


def pivot_columns(m: Matrix, field: CoefficientField):
    """The pivot columns of m's echelon form over the field, a set-like
    view; unlike :func:`rank`, it eliminates thin matrices too."""
    return _echelon(m, field, reduced=False).keys()


def kernel_basis(m: Matrix, field: CoefficientField) -> Matrix:
    """Matrix of int columns spanning the null space of m over the field.

    Column k is the RREF null-space solution that is 1 at the k-th free
    (non-pivot) column and 0 at the others; over Q times the lcm of its
    denominators, over F_p read mod p.  When unit pivots finish it is that
    solution over the integers, for every field.  Raises InvariantError
    unless rank(m) + cols(result) == cols(m) and m*result is zero over the
    field.
    """
    rows = _echelon(m, field, reduced=True)
    free = [c for c in range(m.ncols) if c not in rows]
    position = {c: k for k, c in enumerate(free)}
    # Only fraction-free rows over Q have pivots other than 1.  The columns
    # scaled by the lcm of the pivots, then divided by their contents, are
    # the primitive solutions positive at their free column: the RREF
    # solutions times the lcm of their denominators.
    scale = lcm(*(row[lead] for lead, row in rows.items()))
    out = {c: {k: scale} for k, c in enumerate(free)}
    for lead, row in rows.items():
        ratio = scale // row[lead]
        solved = {position[j]: -v * ratio for j, v in row.items() if j != lead}
        if solved:
            out[lead] = solved
    if scale != 1:
        content = [0] * len(free)
        for row in out.values():
            for k, v in row.items():
                content[k] = gcd(content[k], v)
        out = {i: {k: v // content[k] for k, v in row.items()}
               for i, row in out.items()}
    result = Matrix._of_rows(m.ncols, len(free), out)
    if len(rows) + result.ncols != m.ncols:
        raise InvariantError(
            f"rank {len(rows)} + nullity {result.ncols} != {m.ncols} columns")
    if not product_is_zero(m, result, field):
        raise InvariantError("kernel basis is not annihilated by the matrix")
    return result


def product_is_zero(a: Matrix, b: Matrix, field: CoefficientField) -> bool:
    """Whether a*b vanishes over the field: every entry of the integer
    product is zero, or over F_p zero mod p.  The product is formed one
    row at a time and never kept; the first row with an entry that is
    non-zero in the field answers False."""
    if a.ncols != b.nrows:
        raise ShapeError(f"{a.ncols} cols vs {b.nrows} rows")
    p = field.p
    b_rows = b.rows
    for row in a.rows.values():
        acc: dict = {}
        for k, v in row.items():
            for j, w in b_rows.get(k, {}).items():
                acc[j] = acc.get(j, 0) + v * w
        values = acc.values()
        if any(v % p for v in values) if p else any(values):
            return False
    return True
