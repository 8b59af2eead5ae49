"""Property predicates: Cohen-Macaulay, Buchsbaum, Buchsbaum-star and their
m-fold variants, homology manifolds, balanced colorings, rank selection.

Every predicate returns a PropertyReport whose false verdicts carry a
witness that independently re-checks to a genuine violation (see
:func:`revalidate_witness`): the first violation, with faces in
(dimension, lexicographic) order and vertex subsets by size, then
lexicographically.  The link conditions share one loop over the vertex
links, the m-fold predicates one loop over the deleted vertex subsets.

The seven predicates memoise their reports through the homology memo
(see :mod:`bstar.homology`), one kind per predicate, with witnesses stored
as vertex positions.  That is exact: an order-preserving relabelling keeps
every order above, so relabelled links and deletions share one report,
returned in the labels of the complex asked about.

Purity is part of the Buchsbaum definition here, as the "dimension d-1"
bookkeeping of the deletion-based predicates needs it.  m-fold predicates
quantify over vertex subsets A with |A| < m, so m = 0 degenerates to the
base property's precondition and m = 1 to the base property itself.
"""

from __future__ import annotations

import functools
import itertools

from .complexes import Complex, NotPureError, Record, label_key
from .homology import (_in_order, _memo, _sweep, reduced_betti,
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
            for f in c.index_form:
                if len({colors[i] for i in f}) != len(f):
                    raise InvariantError(
                        f"facet {[c.vertices[i] for i in f]!r} repeats a color")

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


def _link_defect(link: Complex, field: CoefficientField, sphere: bool):
    """The least degree where the reduced Betti numbers of a link are not
    those of a sphere of its dimension (sphere) or 0 below its dimension."""
    betti = reduced_betti(link, field)
    top = link.dim if sphere else link.dim - 1
    return next((i for i in range(-1, top + 1) if betti[i] != (i == link.dim)),
                None)


def _failing_vertex_links(c: Complex, field: CoefficientField, sphere: bool):
    """Yield (v, sigma, i) for each vertex v, in order, whose link fails at
    its face sigma in degree i: the witness of the memoised Cohen-Macaulay
    report of lk v, or with sphere, sigma = () if lk v does not have a
    sphere's Betti numbers and else the witness of its manifold report."""
    predicate = is_homology_manifold if sphere else is_cohen_macaulay
    for v in c.vertices:
        link = c.link((v,))
        if sphere and (bad := _link_defect(link, field, True)) is not None:
            yield v, (), bad
        elif not (inner := predicate(link, field)).verdict:
            yield (v, *inner.witness.data)


def _link_witness(c: Complex, field: CoefficientField, sphere: bool):
    """The witness (link_sphere with sphere, else link_homology) of the
    first non-empty face of c, in (dimension, lexicographic) order, whose
    link fails, with the link's lowest failing degree; None if none does."""
    # Each v + sigma fails in c: for v in a face, its link is the link of
    # the face without v in lk v, in the same labels.  The first failing
    # face tau is one of them: for v in tau, lk v fails at tau - v, so it
    # yields a sigma no later than tau - v, and adding one vertex to two
    # faces of the same size keeps their lexicographic order.
    pos = c._positions().__getitem__
    least = None
    for v, sigma, i in _failing_vertex_links(c, field, sphere):
        face = sorted(map(pos, (v, *sigma)))
        found = (len(face), face, i)
        least = min(least, found) if least else found
        if not sigma:
            break   # no later vertex gives a smaller face
    return least and Witness("link_sphere" if sphere else "link_homology", (
        tuple(map(c.vertices.__getitem__, least[1])), least[2]))


@_memoised("cohen_macaulay")
def is_cohen_macaulay(c: Complex, field: CoefficientField) -> PropertyReport:
    """Reisner's criterion: the reduced homology of every face's link, the
    empty face's included, vanishes below the link's dimension.  The empty
    face is checked on the Betti numbers of c, the others through the
    vertex links (see _link_witness)."""
    if c.is_void:
        raise ValueError("void complex has no Cohen-Macaulay verdict")
    bad = _link_defect(c, field, False)
    witness = (_link_witness(c, field, False) if bad is None
               else Witness("link_homology", ((), bad)))
    return _report("cohen_macaulay", field, witness is None, witness)


def _deletion_witness(c: Complex, m: int, field: CoefficientField,
                      predicate, kind: str) -> Witness | None:
    """The witness for the first vertex subset A with |A| < m, by size,
    then lexicographically, whose deletion lowers the dimension or fails
    the predicate (kind, with its witness); None if there is none."""
    for size in range(m):
        for a in itertools.combinations(c.vertices, size):
            deleted = c.delete(a)
            if deleted.dim != c.dim:
                return Witness("deletion_dimension", (a,))
            inner = predicate(deleted, field)
            if not inner.verdict:
                return Witness(kind, (a, inner.witness))
    return None


@_memoised("m_cm")
def is_m_cm(c: Complex, m: int, field: CoefficientField) -> PropertyReport:
    """Cohen-Macaulay, with dimension preserved and Cohen-Macaulayness kept
    under deletion of every vertex subset of size below m."""
    if m < 1:
        raise ValueError("m must be at least 1")
    witness = _deletion_witness(c, m, field, is_cohen_macaulay, "deletion_cm")
    return _report("m_cm", field, witness is None, witness)


@_memoised("buchsbaum")
def is_buchsbaum(c: Complex, field: CoefficientField) -> PropertyReport:
    """Pure with every vertex link Cohen-Macaulay (so of dimension d-2);
    the witness is the first failing vertex with its link's witness."""
    if c.is_void:
        raise ValueError("void complex has no Buchsbaum verdict")
    if not c.is_pure:
        return _report("buchsbaum", field, False, _impure_witness(c))
    for v, sigma, i in _failing_vertex_links(c, field, False):
        return _report("buchsbaum", field, False, Witness(
            "vertex_link", (v, Witness("link_homology", (sigma, i)))))
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
    non-empty face; the witness is the first face, in face-table order, of
    the restriction sweep (:func:`bstar.homology._sweep`) where it is not."""
    base = is_buchsbaum(c, field)
    if not base.verdict:
        return _report("buchsbaum_star", field, False, base.witness)
    for t, (_, onto) in _sweep(c, field).items():
        if not onto:
            tau = tuple(v for i, v in enumerate(c.vertices) if t >> i & 1)
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
    witness = _deletion_witness(c, m, field, is_buchsbaum_star,
                                "deletion_buchsbaum_star")
    return _report("m_buchsbaum_star", field, witness is None, witness)


@_memoised("homology_manifold")
def is_homology_manifold(c: Complex, field: CoefficientField) -> PropertyReport:
    """Pure, with the link of every non-empty face having the reduced
    homology of a sphere of the link's dimension (closed manifolds only),
    checked through the vertex links (see _link_witness)."""
    if c.is_void:
        raise ValueError("void complex has no manifold verdict")
    if not c.is_pure:
        return _report("homology_manifold", field, False, _impure_witness(c))
    witness = _link_witness(c, field, True)
    return _report("homology_manifold", field, witness is None, witness)


def find_balanced_coloring(c: Complex, max_nodes: int = 10_000_000):
    """Proper (dim+1)-coloring of the 1-skeleton via backtracking with a
    decreasing-degree vertex order.

    Returns a Coloring, None when provably absent, or UNKNOWN when the
    node budget is exhausted before the search finishes.
    """
    if c.is_void or not c.is_pure:
        raise NotPureError("balancedness is defined for pure complexes")
    d = c.dim + 1
    table = c.face_table()
    adj = [set() for _ in c.vertices]   # by vertex position
    for i, j in table[2] if len(table) > 2 else ():
        adj[i].add(j)
        adj[j].add(i)
    # positions follow the label order, and the sort is stable
    order = sorted(range(len(adj)), key=lambda i: -len(adj[i]))
    colors = [0] * len(adj)     # 0 while uncoloured
    tried = [0] * len(order)    # the colour last tried at each position
    nodes = 0
    pos = 0
    while 0 <= pos < len(order):
        v = order[pos]
        colors[v] = 0
        color = tried[pos]
        while color < d:
            color += 1
            nodes += 1
            if nodes > max_nodes:
                return UNKNOWN
            if not any(colors[u] == color for u in adj[v]):
                break
        else:   # every colour failed: back to the previous position
            tried[pos] = 0
            pos -= 1
            continue
        tried[pos] = color
        colors[v] = color
        pos += 1
    if pos < 0:
        return None
    coloring = Coloring({c.vertices[v]: colors[v] for v in order}, d)
    coloring.validate(c)
    return coloring


def rank_selected(c: Complex, coloring: Coloring, colors) -> Complex:
    """Subcomplex of the faces whose colors lie in the given color set:
    the restriction to the vertices colored in it."""
    coloring.validate(c)
    s = set(colors)
    if not s.issubset(range(1, coloring.d + 1)):
        raise ColoringError(f"color set {sorted(s)!r} not within [{coloring.d}]")
    return c.delete([v for v in c.vertices if coloring.assignment[v] not in s])


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
        return len(a) != len(b) and c.has_face(a) and c.has_face(b)
    if w.kind in ("link_homology", "link_sphere"):
        sigma, i = w.data
        link = c.link(sigma)
        return ((w.kind == "link_sphere" or i < link.dim)
                and reduced_betti(link, field)[i] != (i == link.dim))
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
    raise ValueError(f"unknown witness kind {w.kind!r}")
