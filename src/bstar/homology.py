"""Reduced simplicial homology over exact coefficient fields.

Chain complexes use the reduced (augmented) convention: degree -1 is
spanned by the empty face and the vertex boundary map is the all-ones
augmentation row.  Boundary matrices carry alternating integer signs in
sorted vertex order (emitted even over F_2, where they are irrelevant).

Relative homology of a contrastar pair (Delta, cost(tau)) is computed on
the quotient complex whose degree-j basis is the j-faces containing tau;
the induced restriction maps used by the Buchsbaum-star classifiers are
coordinate projections at chain level, never routed through the
link-shift isomorphism, which therefore stays available as an independent
cross-check.  Absolute homology is the case tau = empty face (bitmask 0):
cost of the empty face is the void complex, so the quotient complex is
the whole augmented chain complex and H(Delta) = H(Delta, cost(empty)).

Every cached result goes through one memo, :func:`_memo`, which keeps
``compute(c, *args)`` in one cache under ``(kind, index form, *args)``.
The index form of a complex is its facets with each vertex replaced by
its position in the sorted vertex list (:attr:`Complex.index_form`), a
face tau is the bitmask of its vertex positions, and a field is the
interned :class:`CoefficientField` itself.  The kinds are:

- ``chain`` ``(c)``: chain data, its bases read from the complex's face
  table (:meth:`Complex.face_table`);
- ``betti`` ``(c, field)``: Betti vectors;
- ``star`` ``(c, tau)``: per degree, the basis indices of the faces
  containing tau, shared by every field; only relative Betti vectors
  use it;
- ``rel_kernel`` ``(c, sigma, field)``: for the source face sigma of a
  restriction test, a basis of the top cycles of the quotient complex
  (at sigma empty, the top cycle space): the int columns of
  :func:`bstar.linalg.kernel_basis`, its rows keyed by facet basis
  index;
- ``sweep`` ``(c, field)``: for every non-empty face tau of a pure
  complex, in face-table order, the basis indices of the ridges and the
  facets containing tau, the dimension of the quotient complex's top
  cycle space, and whether top homology maps onto it; each face's ridges
  and facets are taken from those of the face without its last vertex;
- one kind per predicate of :mod:`bstar.properties`, named after it
  (``cohen_macaulay``, ``m_cm`` with ``(c, m, field)``, ...): the verdict
  and the witness as vertex positions.

The ranks behind relative Betti vectors are recomputed from ``star`` on
every call, since they are rarely asked for twice.  Complexes that differ
by an order-preserving relabelling share every entry, and that is exact:
such a relabelling keeps the lexicographic order of the faces and every
boundary sign, which depend only on vertex positions, so the bases,
matrices, ranks, kernel bases and first violations are the same.  No
entry holds a label; faces are mapped back through the vertices of the
complex asked about.  Each entry is a deterministic function of its key.
Under one lock, insertion keeps the first value stored for a key, so
concurrent identical queries get one object, and a full cache
(CACHE_LIMIT entries) drops its oldest quarter, which costs only
recomputation.

The memo records which entries depended on the field.  Ranks move a
per-thread counter (:func:`bstar.linalg._field_dependence`) whenever
their result could differ between fields.  An entry whose computation
moved the counter is stored marked, and returning it moves the caller's
counter again, so a computation that finds the counter unmoved, cache
hits included, holds over every field.  The mark lives in the entry: it
goes when the entry is evicted or the cache is cleared.  Betti vectors
loaded from a file are marked, since nothing shows they hold for another
field.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from contextlib import suppress
from itertools import islice

from .complexes import Complex, NotPureError, Record, index_faces
from .linalg import (CoefficientField, InvariantError, Matrix,
                     _depends_on_field, _field_dependence, kernel_basis, rank)

CACHE_LIMIT = 1 << 16
_cache: dict = {}
_cache_lock = threading.Lock()


def clear_caches() -> None:
    with _cache_lock:
        _cache.clear()


class _FieldDependent:
    """A cache value whose computation moved the field-dependence counter."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _store(key, value):
    """Insert unless the key is present, first dropping the oldest quarter
    of a full cache; return the value kept for the key, marked or not."""
    with _cache_lock:
        if len(_cache) >= CACHE_LIMIT:
            for old in list(islice(_cache, len(_cache) - CACHE_LIMIT * 3 // 4)):
                del _cache[old]
        return _cache.setdefault(key, value)


def _in_order(compute, args: tuple, named: dict) -> tuple:
    """``args`` and then ``named`` in the parameter order of ``compute``,
    which has no defaults: ``named`` must give every parameter after them."""
    code = compute.__code__
    rest = code.co_varnames[1 + len(args):code.co_argcount]
    if named.keys() != set(rest):
        raise TypeError(f"{compute.__name__}() takes the arguments "
                        f"{', '.join(code.co_varnames[:code.co_argcount])}")
    return args + tuple(named[name] for name in rest)


def _memo(kind: str):
    """Cache ``compute(c, *args)`` under ``(kind, c.index_form, *args)``,
    a field argument being the interned :class:`CoefficientField` itself.
    A value whose computation moved this thread's field-dependence counter
    is stored marked, and returning a marked value moves the counter
    again, so the record survives every cache hit."""
    def decorate(compute):
        @functools.wraps(compute)
        def memo(c: Complex, *args, **named):
            if named:
                args = _in_order(compute, args, named)
            key = (kind, c.index_form) + args
            value = _cache.get(key)
            if value is None:
                before = _field_dependence()
                value = compute(c, *args)
                value = _store(key, value if _field_dependence() == before
                               else _FieldDependent(value))
            if type(value) is _FieldDependent:
                _depends_on_field()
                return value.value
            return value
        return memo
    return decorate


class BettiVector(Record):
    """Reduced Betti numbers for degrees -1 .. d-1 over a fixed field."""

    __slots__ = ("values", "field")

    def __init__(self, values: tuple, field: CoefficientField):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "field", field)

    def __getitem__(self, degree: int) -> int:
        idx = degree + 1
        if 0 <= idx < len(self.values):
            return self.values[idx]
        return 0

    def __iter__(self):
        return iter(self.values)

    @property
    def top_degree(self) -> int:
        return len(self.values) - 2

    def chi_reduced(self) -> int:
        return sum(v if i % 2 else -v for i, v in enumerate(self.values))

    def __repr__(self) -> str:
        return f"BettiVector({self.values}, {self.field.label})"


@_memo("chain")
def _chain_data(c: Complex):
    """Boundary matrices over the integers and, per degree, the vertex
    bitmask of each basis face (bit i for the i-th vertex of c); the bases
    are the rows of the face table of c, so boundaries[j] maps degree-j
    chains to degree-(j-1) chains in the order of ``c.faces_of_dim``.
    Each boundary is built as its rows: dropping the k-th vertex of a face
    gives the row, found by its mask, of the sign (-1)^k."""
    bases = c.face_table()
    bit = [1 << i for i in range(c.n_vertices)]
    masks = tuple(tuple(sum(map(bit.__getitem__, face)) for face in basis)
                  for basis in bases)
    boundaries = []
    for degree in range(0, c.dim + 1):
        row_of = {m: i for i, m in enumerate(masks[degree])}
        rows: dict = {}
        for j, (face, m) in enumerate(zip(bases[degree + 1], masks[degree + 1])):
            sign = 1
            for v in face:
                i = row_of[m ^ bit[v]]
                row = rows.get(i)
                if row is None:
                    rows[i] = row = {}
                row[j] = sign
                sign = -sign
        boundaries.append(Matrix._of_rows(len(bases[degree]),
                                          len(bases[degree + 1]), rows))
    for j in range(1, len(boundaries)):
        if not boundaries[j - 1].matmul(boundaries[j]).is_zero:
            raise InvariantError(f"boundary of boundary is not zero in degree {j}")
    return tuple(boundaries), masks


@_memo("betti")
def reduced_betti(c: Complex, field: CoefficientField) -> BettiVector:
    """Reduced Betti numbers of a non-void complex: the relative Betti
    numbers at the empty face, whose quotient complex is the whole
    augmented chain complex."""
    if c.is_void:
        raise ValueError("Betti numbers of the void complex are undefined")
    counts, ranks = _relative_data(c, 0, field)
    bv = BettiVector(_betti_values(counts, ranks, c.dim), field)
    chi_f = sum(-n if degree % 2 else n for degree, n in counts.items())
    if bv.chi_reduced() != chi_f:
        raise InvariantError(f"Euler characteristic mismatch: "
                             f"{bv.chi_reduced()} != {chi_f}")
    return bv


@_memo("star")
def _superset_indices(c: Complex, t: int) -> dict:
    """Per degree, the basis indices of faces containing the face with
    vertex bitmask t, shared by every field."""
    _, masks = _chain_data(c)
    return {k - 1: [i for i, m in enumerate(masks[k]) if m & t == t]
            for k in range(t.bit_count(), len(masks))}


def _relative_data(c: Complex, t: int, field: CoefficientField):
    """Face counts and boundary ranks of the quotient complex for
    (Delta, cost(tau)), tau given by its vertex bitmask t: counts[j] and
    rank of the induced boundary leaving degree j, for |tau|-1 <= j <= dim.
    Not cached: its callers rarely ask for one (complex, tau, field) twice.
    Each rank is of whole rows of a boundary matrix: a face containing tau
    has all its cofaces, the non-zeros of its row, among the faces
    containing tau, so restricting the columns too would not change it."""
    boundaries, _ = _chain_data(c)
    sel = _superset_indices(c, t)
    counts = {deg: len(idx) for deg, idx in sel.items()}
    ranks = {}
    for deg in sel:
        rows = sel.get(deg - 1)
        if not rows:
            ranks[deg] = 0
            continue
        ranks[deg] = rank(boundaries[deg].take_rows(rows) if t
                          else boundaries[deg], field)
    return counts, ranks


def relative_betti_vector(c: Complex, tau, field: CoefficientField) -> BettiVector:
    """dim H(Delta, cost(tau)) per degree -1 .. dim, from the quotient complex."""
    counts, ranks = _relative_data(c, c.face_mask(tau, nonempty=True), field)
    return BettiVector(_betti_values(counts, ranks, c.dim), field)


def _betti_values(counts: dict, ranks: dict, top: int) -> tuple:
    """Homology dimensions per degree -1 .. top from face counts and ranks."""
    values = []
    for degree in range(-1, top + 1):
        values.append(counts.get(degree, 0) - ranks.get(degree, 0)
                      - ranks.get(degree + 1, 0))
    return tuple(values)


@_memo("sweep")
def _sweep(c: Complex, field: CoefficientField) -> dict:
    """The restriction test of Buchsbaum-star at every non-empty face tau
    of a pure complex, keyed by vertex bitmask in face-table order: the
    basis indices of the ridges and of the facets containing tau, the
    dimension of the top cycle space Z_tau of the quotient complex at tau,
    and whether top homology maps onto relative top homology at tau.

    A vertex's ridges and facets come from one pass over all of them, and
    a larger face takes those of the face without its last vertex that
    contain the new one, so no face rescans every mask.  dim Z_tau is the
    number of facets containing tau minus the rank of the top boundary's
    rows at those ridges: a ridge containing tau has all its cofaces among
    those facets, so the whole rows are the quotient's top boundary.
    Relative top homology is Z_tau, and the map projects the top cycle
    space onto the facets containing tau, into Z_tau; so it is onto
    exactly when the projected basis of the top cycles has rank dim Z_tau.
    """
    if not c.vertices:
        return {}
    boundaries, masks = _chain_data(c)
    top = boundaries[-1]
    table = c.face_table()
    ridge_masks, facet_masks = masks[-2], masks[-1]
    ridges_at = [[] for _ in c.vertices]
    facets_at = [[] for _ in c.vertices]
    for at, basis in ((ridges_at, table[-2]), (facets_at, table[-1])):
        for i, face in enumerate(basis):
            for v in face:
                at[v].append(i)
    cycles = _source_cycles(c, 0, field)
    sweep = {}
    for faces, face_masks in zip(table[1:], masks[1:]):
        for face, t in zip(faces, face_masks):
            v = face[-1]
            if len(face) == 1:
                ridges, facets = ridges_at[v], facets_at[v]
            else:
                bit = 1 << v
                ridges, facets, _, _ = sweep[t ^ bit]
                ridges = [i for i in ridges if ridge_masks[i] & bit]
                facets = [i for i in facets if facet_masks[i] & bit]
            z_dim = len(facets) - rank(top.take_rows(ridges), field)
            sweep[t] = (ridges, facets, z_dim, z_dim == 0 or rank(
                cycles.take_rows(facets), field) == z_dim)
    return sweep


@_memo("rel_kernel")
def _source_cycles(c: Complex, s: int, field: CoefficientField) -> Matrix:
    """A basis of the top cycles of the quotient complex at the face with
    vertex bitmask s (at s = 0, the top cycle space) as the int columns of
    :func:`kernel_basis`, rows keyed by facet basis index.  The ridges and
    facets containing a non-empty face come from :func:`_sweep`."""
    top = _chain_data(c)[0][-1]
    if s:
        ridges, cols, _, _ = _sweep(c, field)[s]
    else:
        ridges, cols = range(top.nrows), range(top.ncols)
    k = kernel_basis(top.submatrix(ridges, cols), field)
    return Matrix._of_rows(top.ncols, k.ncols,
                           {cols[i]: row for i, row in k.rows.items()})


def top_restriction_surjective(c: Complex, tau, field: CoefficientField) -> bool:
    """Whether top homology surjects onto the relative top homology at tau."""
    if c.is_void or not c.is_pure:
        raise NotPureError("surjectivity test requires a pure complex")
    t = c.face_mask(tau, nonempty=True)
    return _sweep(c, field)[t][3]


def pair_restriction_surjective(c: Complex, sigma, tau,
                                field: CoefficientField) -> bool:
    """Whether the inclusion-induced map between the relative top homology
    at sigma and at tau is surjective (sigma a subset of tau; sigma empty
    means the absolute top homology).

    As for :func:`_sweep`, the map projects Z_sigma onto the facets
    containing tau, into Z_tau, so it is onto exactly when the projected
    basis of Z_sigma has rank dim Z_tau: only the source needs a basis."""
    if c.is_void or not c.is_pure:
        raise NotPureError("surjectivity test requires a pure complex")
    s = c.canonical_face(sigma)
    t = c.canonical_face(tau)
    if not set(s).issubset(t):
        raise ValueError(f"{s!r} is not a subset of {t!r}")
    tm = c.face_mask(t)
    if s == t:
        return True
    _, facets, z_dim, onto = _sweep(c, field)[tm]
    if not s or z_dim == 0:
        return onto
    source = _source_cycles(c, c.vertex_mask(s), field)
    return rank(source.take_rows(facets), field) == z_dim


# -- on-disk Betti cache -----------------------------------------------------
# No command reads or writes this file any more: the CLI computes every
# vector from the complex it parsed.  Only the benchmark tracer still needs
# these two functions, which it looks up by name.

def _cache_key_string(facets: tuple, field_label: str) -> str:
    return field_label + "|" + json.dumps(facets)


def save_betti_cache(path, complexes=None, held=None) -> None:
    """Write Betti vectors of the cache to a JSON file, each under the
    facets of a complex it belongs to.

    With ``complexes`` None, every Betti vector of the cache is written,
    under its index form (the complex on the vertices 0..n-1 with those
    facets).  Otherwise ``complexes`` lists the facets of complexes, and
    the file gets the entries of ``held`` (as filled by
    :func:`load_betti_cache`) and the cache's vectors of those complexes,
    under their own facets, and is written only if it is missing or lacks
    one of those vectors.  The vectors of links and other complexes a
    predicate computes on the way are not written.

    The file is written whole to a temporary file in the same directory,
    which then replaces it, so a failed write leaves the old file intact.
    """
    wanted: dict = {}   # index form -> the facets asked for with it
    if complexes is not None:
        for facets in complexes:
            wanted.setdefault(index_faces(facets)[1], []).append(facets)
    entries = {}
    for key, bv in list(_cache.items()):
        if key[0] != "betti":
            continue
        if type(bv) is _FieldDependent:
            bv = bv.value
        for facets in (wanted.get(key[1], ()) if complexes is not None
                       else (key[1],)):
            entries[facets, key[2].label] = bv
    if complexes is not None:
        held = held or {}
        if entries.keys() <= held.keys() and os.path.exists(path):
            return
        entries = {**held, **entries}
    text = json.dumps({  # one C-encoded string, not many chunks
        _cache_key_string(facets, label): list(bv.values)
        for (facets, label), bv in entries.items()
    })
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_betti_cache(path, held=None) -> int:
    """Merge a saved cache file into the cache and return how many
    distinct Betti vectors it holds; a dict passed as ``held`` also gets
    them, keyed ``(facets, field label)``.  Each vector is cached under
    the index form of its facets, which a complex shares only if the
    facets are canonical.  A missing or unparsable file loads nothing,
    and an entry whose key does not parse is skipped.  Raises ValueError
    if the file is not a JSON object or an entry is not a list of
    non-negative ints of length max-facet-size + 1."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return 0
    except RecursionError as exc:
        raise ValueError(f"{path}: the Betti cache is nested too deeply") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: the Betti cache is not a JSON object")
    loaded = {}
    for key, values in data.items():
        try:
            label, _, facets_json = key.partition("|")
            facets = tuple(map(tuple, json.loads(facets_json)))
            size = max(map(len, facets)) + 1
            field = (CoefficientField.rationals() if label == "Q"
                     else CoefficientField.prime(int(label[1:])))
            hash(facets)  # a label that is a JSON list or object
        except (ValueError, TypeError, RecursionError):
            continue
        if not (type(values) is list and len(values) == size
                and set(map(type, values)) == {int} and min(values) >= 0):
            raise ValueError(f"{path}: Betti cache entry {key!r} is not a list "
                             f"of {size} non-negative ints")
        bv = BettiVector(tuple(values), field)
        try:
            index = index_faces(facets)[1]
        except TypeError:  # labels with no common order: no complex has them
            loaded[facets, label] = bv
        else:
            # a vector from a file: nothing shows it holds for other fields
            _store(("betti", index, field), _FieldDependent(bv))
            loaded[facets, label] = bv
    if held is not None:
        held.update(loaded)
    return len(loaded)
