"""Property predicates: Cohen-Macaulay, Buchsbaum, Buchsbaum-star and their
m-fold variants, homology manifolds, balanced colorings, rank selection.

Every predicate returns a PropertyReport whose false verdicts carry a
witness that independently re-checks to a genuine violation (see
:func:`revalidate_witness`).  Faces and vertex subsets are enumerated in
deterministic (dimension, lexicographic) order, so the reported witness is
always the first violation in that order.

The seven predicates (Cohen-Macaulay, Buchsbaum, doubly Buchsbaum,
Buchsbaum-star, m-CM, m-Buchsbaum-star, homology manifold) memoise their
verdicts through the homology memo, one kind per predicate, keyed by the
index form of the complex and the arguments (see :mod:`bstar.homology`),
with witnesses stored as vertex positions.
That is exact: an order-preserving relabelling keeps the vertex order, the
(dimension, lexicographic) face order and the order of the deleted vertex
subsets, so the first violation maps position for position.  Relabelled
links and deletions therefore share one report, returned in the labels of
the complex asked about.

Purity is part of the Buchsbaum definition here: without it the
"dimension d-1" bookkeeping of the deletion-based predicates breaks.
m-fold predicates quantify over vertex subsets A with |A| < m, so m = 0
degenerates to the base property's precondition and m = 1 to the base
property itself.
"""

from __future__ import annotations

import functools
import itertools

from .complexes import Complex, NotPureError, Record, build, label_key
from .homology import (_in_order, _memo, reduced_betti,
                       top_restriction_surjective)
from .linalg import CoefficientField, InvariantError


class ColoringError(Exception):
    """A vertex coloring fails validation."""


class _Unknown:
    """Distinct verdict for searches stopped by a node budget."""

    def __repr__(self):
        return "UNKNOWN"

    def __bool__(self):
        return False


UNKNOWN = _Unknown()


class Coloring(Record):
    """A vertex-to-color map witnessing balancedness (colors 1..d)."""

    __slots__ = ("assignment", "d")

    def color_set(self, face) -> frozenset:
        return frozenset(self.assignment[v] for v in face)

    def validate(self, c: Complex) -> None:
        """Raise ColoringError unless this is a proper coloring of the
        1-skeleton by colors from [d] covering every vertex."""
        for v in c.vertices:
            col = self.assignment.get(v)
            if col is None:
                raise ColoringError(f"vertex {v!r} is uncolored")
            if not isinstance(col, int) or not 1 <= col <= self.d:
                raise ColoringError(f"vertex {v!r} has color {col!r} outside [{self.d}]")
        table = c.face_table()
        colors = [self.assignment[v] for v in c.vertices]
        for i, j in table[2] if len(table) > 2 else ():
            if colors[i] == colors[j]:
                raise ColoringError(
                    f"edge {[c.vertices[i], c.vertices[j]]!r} has both ends "
                    f"colored {colors[i]}")
        if c.is_pure and not c.is_void and c.dim + 1 == self.d:
            for f in c.facets:
                if len(self.color_set(f)) != len(f):
                    raise InvariantError(f"facet {list(f)!r} repeats a color")

    def as_sorted_dict(self) -> dict:
        return {v: self.assignment[v]
                for v in sorted(self.assignment, key=label_key)}


class Witness(Record):
    """Certificate of a property violation; `kind` selects how the payload
    in `data` re-validates."""

    __slots__ = ("kind", "data")

    def __init__(self, kind: str, data: tuple):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)

    def __repr__(self):
        return f"Witness({self.kind}, {self.data!r})"


class PropertyReport(Record):
    __slots__ = ("prop", "field", "verdict", "witness")

    def __init__(self, prop: str, field: str | None, verdict: bool,
                 witness: Witness | None = None):
        object.__setattr__(self, "prop", prop)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.verdict


def _report(prop, field, verdict, witness=None) -> PropertyReport:
    label = field.label if isinstance(field, CoefficientField) else field
    return PropertyReport(prop, label, verdict, witness)


def _impure_witness(c: Complex) -> Witness:
    by_len = sorted(c.facets, key=len)
    return Witness("not_pure", (by_len[0], by_len[-1]))


# What each item of a witness's data is, per kind: a face or vertex set (a
# sorted tuple of vertices), a vertex, a degree, or a nested witness (or
# None).  The vertices of a nested witness are vertices of the outer
# complex too, since links and deletions keep their labels.
_WITNESS_SHAPES = {
    "not_pure": ("face", "face"),
    "link_homology": ("face", "degree"),
    "link_sphere": ("face", "degree"),
    "surjectivity": ("face",),
    "deletion_dimension": ("face",),
    "deletion_buchsbaum": ("face",),
    "deletion_cm": ("face", "witness"),
    "deletion_buchsbaum_star": ("face", "witness"),
    "vertex_link": ("vertex", "witness"),
}


def _map_witness(w: Witness | None, image) -> Witness | None:
    """The witness with every vertex v, nested witnesses included,
    replaced by image(v)."""
    if w is None:
        return None
    shape = _WITNESS_SHAPES.get(w.kind)
    if shape is None:
        raise InvariantError(f"unknown witness kind {w.kind!r}")
    if len(shape) != len(w.data):
        raise InvariantError(f"witness {w!r} does not have the shape {shape}")
    return Witness(w.kind, tuple(
        tuple(map(image, x)) if part == "face"
        else image(x) if part == "vertex"
        else _map_witness(x, image) if part == "witness"
        else x
        for part, x in zip(shape, w.data)))


def _memoised(prop: str):
    """Memoise a predicate ``(c[, m], field)`` through ``_memo(prop)`` of
    :mod:`bstar.homology`.  The entry is the verdict and the witness with
    vertices as positions in ``c.vertices``, so relabelled complexes share
    it; the report returned has the witness in the labels of the complex
    asked about."""
    def decorate(compute):
        @_memo(prop)
        def positioned(c: Complex, *args) -> tuple:
            report = compute(c, *args)
            return report.verdict, _map_witness(report.witness,
                                                c._positions().__getitem__)

        @functools.wraps(compute)
        def predicate(c: Complex, *args, **named) -> PropertyReport:
            if named:
                args = _in_order(compute, args, named)
            verdict, witness = positioned(c, *args)
            return _report(prop, args[-1], verdict,
                           _map_witness(witness, c.vertices.__getitem__))
        return predicate
    return decorate


@_memoised("cohen_macaulay")
def is_cohen_macaulay(c: Complex, field: CoefficientField) -> PropertyReport:
    """Vanishing of reduced link homology below the link dimension, for
    every face including the empty one.

    A CM complex is answered from its own homology and the memoised
    verdicts of its vertex links: every non-empty face contains a vertex
    v, and its link is a link of lk v in the same labels, so the vertex
    links being CM covers exactly the non-empty faces.  Otherwise the faces
    are scanned in order, which gives the first violation as witness."""
    if c.is_void:
        raise ValueError("void complex has no Cohen-Macaulay verdict")
    betti = reduced_betti(c, field)
    if (not any(betti[i] for i in range(-1, c.dim))
            and all(is_cohen_macaulay(c.link((v,)), field)
                    for v in c.vertices)):
        return _report("cohen_macaulay", field, True)
    for sigma in c.faces_sorted():
        link = c.link(sigma)
        betti = reduced_betti(link, field)
        bad = next((i for i in range(-1, link.dim) if betti[i] != 0), None)
        if bad is not None:
            return _report("cohen_macaulay", field, False,
                           Witness("link_homology", (sigma, bad)))
    return _report("cohen_macaulay", field, True)


def _vertex_subsets(c: Complex, max_size: int):
    for size in range(max_size + 1):
        yield from itertools.combinations(c.vertices, size)


@_memoised("m_cm")
def is_m_cm(c: Complex, m: int, field: CoefficientField) -> PropertyReport:
    """Cohen-Macaulay, with dimension preserved and Cohen-Macaulayness kept
    under deletion of every vertex subset of size below m."""
    if m < 1:
        raise ValueError("m must be at least 1")
    dim = c.dim
    for a in _vertex_subsets(c, m - 1):
        deleted = c.delete(a)
        if deleted.dim != dim:
            return _report("m_cm", field, False,
                           Witness("deletion_dimension", (a,)))
        inner = is_cohen_macaulay(deleted, field)
        if not inner.verdict:
            return _report("m_cm", field, False,
                           Witness("deletion_cm", (a, inner.witness)))
    return _report("m_cm", field, True)


@_memoised("buchsbaum")
def is_buchsbaum(c: Complex, field: CoefficientField) -> PropertyReport:
    """Pure with every vertex link Cohen-Macaulay of dimension d-2."""
    if c.is_void:
        raise ValueError("void complex has no Buchsbaum verdict")
    if not c.is_pure:
        return _report("buchsbaum", field, False, _impure_witness(c))
    for v in c.vertices:
        link = c.link((v,))
        if link.dim != c.dim - 1:
            return _report("buchsbaum", field, False,
                           Witness("vertex_link", (v, None)))
        inner = is_cohen_macaulay(link, field)
        if not inner.verdict:
            return _report("buchsbaum", field, False,
                           Witness("vertex_link", (v, inner.witness)))
    return _report("buchsbaum", field, True)


@_memoised("doubly_buchsbaum")
def is_doubly_buchsbaum(c: Complex, field: CoefficientField) -> PropertyReport:
    """Buchsbaum, and still Buchsbaum of the same dimension after deleting
    any single vertex."""
    base = is_buchsbaum(c, field)
    if not base.verdict:
        return _report("doubly_buchsbaum", field, False, base.witness)
    for v in c.vertices:
        deleted = c.delete((v,))
        if deleted.dim != c.dim or not is_buchsbaum(deleted, field).verdict:
            return _report("doubly_buchsbaum", field, False,
                           Witness("deletion_buchsbaum", ((v,),)))
    return _report("doubly_buchsbaum", field, True)


@_memoised("buchsbaum_star")
def is_buchsbaum_star(c: Complex, field: CoefficientField) -> PropertyReport:
    """Buchsbaum with the top-homology restriction map surjective at every
    non-empty face."""
    base = is_buchsbaum(c, field)
    if not base.verdict:
        return _report("buchsbaum_star", field, False, base.witness)
    for tau in c.faces_sorted():
        if not tau:
            continue
        if not top_restriction_surjective(c, tau, field):
            return _report("buchsbaum_star", field, False,
                           Witness("surjectivity", (tau,)))
    return _report("buchsbaum_star", field, True)


@_memoised("m_buchsbaum_star")
def is_m_buchsbaum_star(c: Complex, m: int,
                        field: CoefficientField) -> PropertyReport:
    """Buchsbaum, and Buchsbaum-star of unchanged dimension after deleting
    any vertex subset of size below m.  m = 0 is plain Buchsbaum, m = 1 is
    exactly Buchsbaum-star."""
    if m < 0:
        raise ValueError("m must be non-negative")
    base = is_buchsbaum(c, field)
    if not base.verdict:
        return _report("m_buchsbaum_star", field, False, base.witness)
    if m == 0:
        return _report("m_buchsbaum_star", field, True)
    dim = c.dim
    for a in _vertex_subsets(c, m - 1):
        deleted = c.delete(a)
        if deleted.dim != dim:
            return _report("m_buchsbaum_star", field, False,
                           Witness("deletion_dimension", (a,)))
        inner = is_buchsbaum_star(deleted, field)
        if not inner.verdict:
            return _report("m_buchsbaum_star", field, False,
                           Witness("deletion_buchsbaum_star", (a, inner.witness)))
    return _report("m_buchsbaum_star", field, True)


def _sphere_betti(top: int) -> tuple:
    values = [0] * (top + 2)
    values[-1] = 1
    return tuple(values)


@_memoised("homology_manifold")
def is_homology_manifold(c: Complex, field: CoefficientField) -> PropertyReport:
    """Pure, with every non-empty face link having the homology of a sphere
    of the link's dimension (closed manifolds only)."""
    if c.is_void:
        raise ValueError("void complex has no manifold verdict")
    if not c.is_pure:
        return _report("homology_manifold", field, False, _impure_witness(c))
    for sigma in c.faces_sorted():
        if not sigma:
            continue
        link = c.link(sigma)
        betti = reduced_betti(link, field)
        if tuple(betti.values) != _sphere_betti(link.dim):
            bad = next(i for i in range(-1, link.dim + 1)
                       if betti[i] != _sphere_betti(link.dim)[i + 1])
            return _report("homology_manifold", field, False,
                           Witness("link_sphere", (sigma, bad)))
    return _report("homology_manifold", field, True)


def find_balanced_coloring(c: Complex, max_nodes: int = 10_000_000):
    """Proper (dim+1)-coloring of the 1-skeleton via backtracking with a
    decreasing-degree vertex order.

    Returns a Coloring, None when provably absent, or UNKNOWN when the
    node budget is exhausted before the search finishes.
    """
    if c.is_void or not c.is_pure:
        raise NotPureError("balancedness is defined for pure complexes")
    d = c.dim + 1
    adj = {v: set() for v in c.vertices}
    for e in c.faces_of_dim(1):
        adj[e[0]].add(e[1])
        adj[e[1]].add(e[0])
    order = sorted(c.vertices, key=lambda v: (-len(adj[v]), label_key(v)))
    assignment: dict = {}
    tried = [0] * len(order)    # the colour last tried at each position
    nodes = 0
    pos = 0
    while 0 <= pos < len(order):
        v = order[pos]
        assignment.pop(v, None)
        color = tried[pos]
        while color < d:
            color += 1
            nodes += 1
            if nodes > max_nodes:
                return UNKNOWN
            if not any(assignment.get(u) == color for u in adj[v]):
                break
        else:   # every colour failed: back to the previous position
            tried[pos] = 0
            pos -= 1
            continue
        tried[pos] = color
        assignment[v] = color
        pos += 1
    if pos < 0:
        return None
    coloring = Coloring(dict(assignment), d)
    coloring.validate(c)
    return coloring


def rank_selected(c: Complex, coloring: Coloring, colors) -> Complex:
    """Subcomplex of the faces whose colors lie in the given color set."""
    coloring.validate(c)
    s = set(colors)
    if not s.issubset(range(1, coloring.d + 1)):
        raise ColoringError(f"color set {sorted(s)!r} not within [{coloring.d}]")
    gens = [tuple(v for v in f if coloring.assignment[v] in s)
            for f in c.facets]
    return build(gens)


def revalidate_witness(c: Complex, report: PropertyReport,
                       field: CoefficientField) -> bool:
    """Re-check that a false report's witness is a genuine violation.  The
    check recomputes the violation through the public predicates, which
    read and fill the shared homology cache (see :mod:`bstar.homology`);
    call clear_caches() first for a re-check that shares nothing."""
    if report.verdict or report.witness is None:
        return False
    w = report.witness
    if w.kind == "not_pure":
        a, b = w.data
        return len(a) != len(b) and a in c.faces() and b in c.faces()
    if w.kind == "link_homology":
        sigma, i = w.data
        link = c.link(sigma)
        return i < link.dim and reduced_betti(link, field)[i] != 0
    if w.kind == "deletion_dimension":
        (a,) = w.data
        return c.delete(a).dim != c.dim
    if w.kind == "deletion_cm":
        a = w.data[0]
        return not is_cohen_macaulay(c.delete(a), field).verdict
    if w.kind == "vertex_link":
        v = w.data[0]
        link = c.link((v,))
        return (link.dim != c.dim - 1
                or not is_cohen_macaulay(link, field).verdict)
    if w.kind == "deletion_buchsbaum":
        (a,) = w.data
        deleted = c.delete(a)
        return (deleted.dim != c.dim
                or not is_buchsbaum(deleted, field).verdict)
    if w.kind == "surjectivity":
        (tau,) = w.data
        return not top_restriction_surjective(c, tau, field)
    if w.kind == "deletion_buchsbaum_star":
        a = w.data[0]
        deleted = c.delete(a)
        return (deleted.dim != c.dim
                or not is_buchsbaum_star(deleted, field).verdict)
    if w.kind == "link_sphere":
        sigma, i = w.data
        link = c.link(sigma)
        expected = 1 if i == link.dim else 0
        return reduced_betti(link, field)[i] != expected
    raise ValueError(f"unknown witness kind {w.kind!r}")
