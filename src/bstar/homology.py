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

Results live in one cache keyed ``(kind, index form, ...)``, where the
index form of a complex is its facets with each vertex replaced by its
position in the sorted vertex list (:attr:`Complex.index_form`).  The
kinds are:

- ``chain``: chain data per complex, its bases read from the complex's
  face table (:meth:`Complex.face_table`);
- ``betti``: Betti vectors per complex and field;
- ``report``: the property reports of :mod:`bstar.properties` per
  predicate, complex, field (and m), witnesses as vertex positions;
- ``star``: per complex and face tau, given as a bitmask of vertex
  positions, the basis indices of the faces containing tau in every
  degree, shared by every field; only relative Betti vectors use it;
- ``rel_kernel``: per complex, source face sigma of a restriction test
  and field, a basis of the top cycles of the quotient complex, its rows
  keyed by facet basis index and its entries ints (at sigma empty, the
  top cycle space);
- ``nullity``: per complex, target face tau of a restriction test and
  field, the basis indices of the facets containing tau and the
  dimension of the quotient complex's top cycle space, from one rank.

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

The cache records which entries depended on the field.  Ranks move a
per-thread counter (:func:`bstar.linalg._field_dependence`) whenever
their result could differ between fields.  An entry whose computation
moved the counter is stored marked, and reading it moves the reader's
counter again, so a computation that finds the counter unmoved, cache
hits included, holds over every field.  The mark lives in the entry: it
goes when the entry is evicted or the cache is cleared.  Betti vectors
loaded from a file are marked, since nothing shows they hold for another
field.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import suppress
from itertools import islice
from math import lcm

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


def _cached(key):
    """The value cached for key, or None.  Reading a value whose
    computation depended on the field moves this thread's counter."""
    value = _cache.get(key)
    if type(value) is _FieldDependent:
        _depends_on_field()
        return value.value
    return value


def _store(key, value, dependent: bool = False):
    """Insert unless the key is present, first dropping the oldest quarter
    of a full cache; return the value kept for the key.  A dependent value
    (its computation moved the field-dependence counter) is marked, and
    the mark leaves the cache with the entry."""
    if dependent:
        value = _FieldDependent(value)
    with _cache_lock:
        if len(_cache) >= CACHE_LIMIT:
            for old in list(islice(_cache, len(_cache) - CACHE_LIMIT * 3 // 4)):
                del _cache[old]
        kept = _cache.setdefault(key, value)
    return kept.value if type(kept) is _FieldDependent else kept


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


def _chain_data(c: Complex):
    """Boundary matrices over the integers and, per degree, the vertex
    bitmask of each basis face (bit i for the i-th vertex of c), cached
    per index form; the bases are the rows of the face table of c, so
    boundaries[j] maps degree-j chains to degree-(j-1) chains in the
    order of ``c.faces_of_dim``."""
    key = ("chain", c.index_form)
    cached = _cache.get(key)
    if cached is not None:
        return cached
    bases = c.face_table()
    bit = [1 << i for i in range(c.n_vertices)]
    masks = tuple(tuple(sum(map(bit.__getitem__, face)) for face in basis)
                  for basis in bases)
    index = [{face: i for i, face in enumerate(b)} for b in bases]
    boundaries = []
    for degree in range(0, c.dim + 1):
        cols = bases[degree + 1]
        rows_idx = index[degree]
        entries = {}
        for j, face in enumerate(cols):
            for drop in range(len(face)):
                sub = face[:drop] + face[drop + 1:]
                entries[(rows_idx[sub], j)] = 1 if drop % 2 == 0 else -1
        boundaries.append(Matrix(len(bases[degree]), len(cols), entries))
    for j in range(1, len(boundaries)):
        if not boundaries[j - 1].matmul(boundaries[j]).is_zero:
            raise InvariantError(f"boundary of boundary is not zero in degree {j}")
    return _store(key, (tuple(boundaries), masks))


def reduced_betti(c: Complex, field: CoefficientField) -> BettiVector:
    """Reduced Betti numbers of a non-void complex: the relative Betti
    numbers at the empty face, whose quotient complex is the whole
    augmented chain complex."""
    if c.is_void:
        raise ValueError("Betti numbers of the void complex are undefined")
    key = ("betti", c.index_form, field.label)
    cached = _cached(key)
    if cached is not None:
        return cached
    before = _field_dependence()
    counts, ranks = _relative_data(c, 0, field)
    bv = BettiVector(_betti_values(counts, ranks, c.dim), field)
    chi_f = sum(-n if degree % 2 else n for degree, n in counts.items())
    if bv.chi_reduced() != chi_f:
        raise InvariantError(f"Euler characteristic mismatch: "
                             f"{bv.chi_reduced()} != {chi_f}")
    return _store(key, bv, _field_dependence() != before)


def _superset_indices(c: Complex, t: int) -> dict:
    """Per degree, the basis indices of faces containing the face with
    vertex bitmask t, cached per index form and t for every field."""
    key = ("star", c.index_form, t)
    cached = _cache.get(key)
    if cached is not None:
        return cached
    _, masks = _chain_data(c)
    return _store(key, {k - 1: [i for i, m in enumerate(masks[k]) if m & t == t]
                        for k in range(t.bit_count(), len(masks))})


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


def _top_star(c: Complex, t: int) -> tuple:
    """The top boundary matrix of c, and the basis indices of the ridges
    (its rows) and of the facets (its columns) containing the face with
    vertex bitmask t: the top boundary of the quotient complex at t is
    that submatrix."""
    boundaries, masks = _chain_data(c)
    rows = [i for i, m in enumerate(masks[-2]) if m & t == t]
    cols = [i for i, m in enumerate(masks[-1]) if m & t == t]
    return boundaries[-1], rows, cols


def _source_cycles(c: Complex, s: int, field: CoefficientField) -> Matrix:
    """A basis of the top cycles of the quotient complex at the face with
    vertex bitmask s (at s = 0, the top cycle space) as matrix columns,
    rows keyed by facet basis index.  Each column is the RREF kernel
    vector times the lcm of its denominators, so every entry is an int."""
    key = ("rel_kernel", c.index_form, s, field.label)
    cached = _cached(key)
    if cached is not None:
        return cached
    before = _field_dependence()
    top, ridges, cols = _top_star(c, s)
    k = kernel_basis(top.submatrix(ridges, cols), field)
    den = [1] * k.ncols
    for row in k.rows.values():
        for j, v in row.items():
            den[j] = lcm(den[j], v.denominator)
    rows = {cols[i]: {j: v.numerator * (den[j] // v.denominator)
                      for j, v in row.items()} for i, row in k.rows.items()}
    return _store(key, Matrix._of_rows(top.ncols, k.ncols, rows),
                  _field_dependence() != before)


def _target_nullity(c: Complex, t: int, field: CoefficientField) -> tuple:
    """The basis indices of the facets containing the face with vertex
    bitmask t, and the dimension of the relative top cycle space there:
    the number of those facets minus the rank of the quotient complex's
    top boundary.  That rank is of whole rows of the top boundary: a ridge
    containing tau has all its cofaces among the facets containing tau."""
    key = ("nullity", c.index_form, t, field.label)
    cached = _cached(key)
    if cached is not None:
        return cached
    before = _field_dependence()
    top, ridges, cols = _top_star(c, t)
    z_dim = len(cols) - rank(top.take_rows(ridges), field)
    return _store(key, (cols, z_dim), _field_dependence() != before)


def _restriction_surjective(c: Complex, s: int, t: int,
                            field: CoefficientField) -> bool:
    """Whether relative top homology at the face with vertex bitmask s
    (0: absolute top homology) maps onto that at its superset t.

    Relative top homology is the relative top cycle space Z, and the map
    projects Z_s onto the facets containing t, into Z_t.  So it is onto
    exactly when the projected basis of Z_s has rank dim Z_t, and by
    rank-nullity dim Z_t = (facets containing t) - rank of the top
    boundary of the quotient complex at t: only the source needs a basis.
    """
    rows_t, z_dim = _target_nullity(c, t, field)
    if z_dim == 0:
        return True
    source = _source_cycles(c, s, field)
    return rank(source.take_rows(rows_t), field) == z_dim


def top_restriction_surjective(c: Complex, tau, field: CoefficientField) -> bool:
    """Whether top homology surjects onto the relative top homology at tau."""
    if c.is_void or not c.is_pure:
        raise NotPureError("surjectivity test requires a pure complex")
    return _restriction_surjective(c, 0, c.face_mask(tau, nonempty=True),
                                   field)


def pair_restriction_surjective(c: Complex, sigma, tau,
                                field: CoefficientField) -> bool:
    """Whether the inclusion-induced map between the relative top homology
    at sigma and at tau is surjective (sigma a subset of tau; sigma empty
    means the absolute top homology)."""
    if c.is_void or not c.is_pure:
        raise NotPureError("surjectivity test requires a pure complex")
    s = c.canonical_face(sigma)
    t = c.canonical_face(tau)
    if not set(s).issubset(t):
        raise ValueError(f"{s!r} is not a subset of {t!r}")
    tm = c.face_mask(t)
    if s == t:
        return True
    return _restriction_surjective(c, c.vertex_mask(s), tm, field)


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
            entries[facets, key[2]] = bv
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
            loaded[facets, label] = _store(("betti", index, label), bv, True)
    if held is not None:
        held.update(loaded)
    return len(loaded)
