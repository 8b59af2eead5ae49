"""Finite simplicial complexes stored by their inclusion-maximal facets.

Vertices are integer or string labels, faces are sorted duplicate-free
tuples of labels, and every complex is canonical: facets are deduplicated,
inclusion-dominated entries are dropped, and all outputs use a fixed
lexicographic order (integers before strings).  Complexes are immutable
after construction, so every operation returns a fresh canonical complex
and may be evaluated concurrently without coordination.

Each complex also has an index form: its facets with every vertex replaced
by its position in ``vertices``.  It is again canonical, and two complexes
have the same index form exactly when an order-preserving relabelling
takes one to the other.  ``link`` and ``delete`` work on vertex positions
and bitmasks (bit i for the i-th vertex) and hand their result its vertices
and index form, so no labels are sorted again.

The void complex (no faces at all) is distinct from the empty complex
``{()}`` whose only face is the empty face.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Union

Label = Union[int, str]
Face = tuple  # sorted duplicate-free tuple of labels


class ComplexError(Exception):
    """Base class for complex construction and query errors."""


class MalformedFaceError(ComplexError):
    """A face lists the same vertex more than once."""


class FaceNotPresentError(ComplexError):
    """A queried face is not a face of the complex."""


class UnknownVertexError(ComplexError):
    """A vertex outside the complex's vertex set was supplied."""


class LabelCollisionError(ComplexError):
    """Two complexes that need disjoint vertex sets share a label."""


class NotPureError(ComplexError):
    """Operation defined only for pure complexes."""


def label_key(v: Label):
    """Sort key giving a total order on mixed int/str labels."""
    return (1, v) if isinstance(v, str) else (0, v)


def face_key(face: Face):
    """Lexicographic sort key for canonical faces."""
    return tuple(label_key(v) for v in face)


def as_face(vertices: Iterable[Label]) -> Face:
    """Canonicalize a vertex collection into a sorted duplicate-free face.

    Raises MalformedFaceError if a vertex repeats.
    """
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        raise MalformedFaceError(f"face {vs!r} repeats a vertex")
    return tuple(sorted(vs, key=label_key))


def build(facet_list: Iterable[Iterable[Label]]) -> "Complex":
    """Build the canonical complex generated by the given faces.

    The face set is the downward closure of the input; entries dominated by
    another entry are dropped.  An empty input yields the void complex,
    ``[[]]`` yields the empty complex {()}.
    """
    candidates = {as_face(f) for f in facet_list}
    if not candidates:
        return Complex(())
    sets = {f: frozenset(f) for f in candidates}
    maximal = [
        f for f in candidates
        if not any(f is not g and sets[f] < sets[g] for g in candidates)
    ]
    maximal.sort(key=face_key)
    return Complex(tuple(maximal))


class Complex:
    """Immutable simplicial complex given by canonical facets.

    Use :func:`build` rather than the constructor; the constructor assumes
    its argument is already canonical (sorted, pairwise incomparable), and
    that ``vertices`` and ``index``, when given, are those of the facets.
    """

    __slots__ = ("facets", "dim", "_vertices", "_faces", "_by_dim", "_hash",
                 "_index", "_masks", "_pos", "_pure")

    def __init__(self, facets: tuple, vertices=None, index=None):
        self.facets = facets
        # dimension (max facet dimension); None for the void complex
        self.dim = max(map(len, facets)) - 1 if facets else None
        self._vertices = vertices
        self._faces = None
        self._by_dim = None
        self._hash = None
        self._index = index
        self._masks = None
        self._pos = None
        self._pure = None

    # -- basic structure ---------------------------------------------------

    @property
    def is_void(self) -> bool:
        """True for the complex with no faces at all."""
        return not self.facets

    @property
    def is_pure(self) -> bool:
        if self._pure is None:
            self._pure = len(set(map(len, self.facets))) <= 1
        return self._pure

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            self._vertices = tuple(
                sorted({v for f in self.facets for v in f}, key=label_key))
        return self._vertices

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def index_form(self) -> tuple:
        """The facets with each vertex replaced by its position in
        ``vertices``: the same tuple for every order-preserving relabelling
        of the complex, and itself canonical."""
        if self._index is None:
            pos = self._positions()
            self._index = tuple(tuple(map(pos.__getitem__, f))
                                for f in self.facets)
        return self._index

    def _positions(self) -> dict:
        if self._pos is None:
            self._pos = {v: i for i, v in enumerate(self.vertices)}
        return self._pos

    def _facet_masks(self) -> tuple:
        if self._masks is None:
            self._masks = tuple(sum(1 << i for i in f) for f in self.index_form)
        return self._masks

    def vertex_mask(self, face: Iterable[Label]) -> int:
        """The bitmask of the given vertices of the complex: bit i for the
        vertex at position i of ``vertices``."""
        pos = self._positions()
        mask = 0
        for v in face:
            mask |= 1 << pos[v]
        return mask

    def faces(self) -> frozenset:
        """The full face set (downward closure of the facets)."""
        if self._faces is None:
            out = set()
            for f in self.facets:
                for k in range(len(f) + 1):
                    out.update(itertools.combinations(f, k))
            self._faces = frozenset(out)
        return self._faces

    def _faces_by_dim(self) -> dict:
        if self._by_dim is None:
            by_dim: dict = {}
            for f in self.faces():
                by_dim.setdefault(len(f) - 1, []).append(f)
            for lst in by_dim.values():
                lst.sort(key=face_key)
            self._by_dim = {k: tuple(v) for k, v in by_dim.items()}
        return self._by_dim

    def faces_of_dim(self, k: int) -> list:
        """All faces of dimension exactly k in lexicographic order."""
        return list(self._faces_by_dim().get(k, ()))

    def faces_sorted(self) -> list:
        """All faces ordered by (dimension, lexicographic)."""
        out = []
        if self.is_void:
            return out
        for k in range(-1, self.dim + 1):
            out.extend(self._faces_by_dim().get(k, ()))
        return out

    def canonical_face(self, face: Iterable[Label]) -> Face:
        """as_face(face), but a tuple that is a face of the complex, and so
        already canonical, is returned as it is."""
        if type(face) is tuple and face in self.faces():
            return face
        return as_face(face)

    def has_face(self, face: Iterable[Label]) -> bool:
        return self.canonical_face(face) in self.faces()

    # -- face-level operators ----------------------------------------------

    def link(self, face: Iterable[Label]) -> "Complex":
        """lk(tau): faces disjoint from tau whose union with tau is a face.

        The facets of the link are the facets containing tau with tau
        removed, already canonical, so no re-canonicalisation is needed.
        """
        t = self.canonical_face(face)
        if t not in self.faces():
            raise FaceNotPresentError(f"{t!r} is not a face")
        tm = self.vertex_mask(t)
        # f - tau <= g - tau with tau in f and g would give f <= g, so the
        # stripped facets stay pairwise incomparable.  They also keep their
        # lexicographic order.  Let f < g contain tau and first differ at
        # position k.  Then f[k] is not in tau (g, sorted, has no room for
        # it), and g - tau has a vertex beyond the common prefix (else
        # g <= f), larger than f[k]; so the order of f - tau and g - tau is
        # decided at f[k], as before.
        containing = []
        rest = 0
        for f, m in zip(self.index_form, self._facet_masks()):
            if m & tm == tm:
                containing.append(f)
                rest |= m
        return self._induced(containing, rest & ~tm)

    def contrastar(self, face: Iterable[Label]) -> "Complex":
        """cost(tau): the faces that do not contain tau (tau non-empty)."""
        t = self.canonical_face(face)
        if not t:
            raise ComplexError("contrastar of the empty face is undefined")
        if t not in self.faces():
            raise FaceNotPresentError(f"{t!r} is not a face")
        gens = []
        for f in self.facets:
            if set(t).issubset(f):
                gens.extend(tuple(v for v in f if v != x) for x in t)
            else:
                gens.append(f)
        return build(gens)

    def delete(self, removed: Iterable[Label]) -> "Complex":
        """Restriction to the complement of the given vertex set."""
        rem = set(removed)
        unknown = rem.difference(self.vertices)
        if unknown:
            raise UnknownVertexError(
                f"not vertices of the complex: {sorted(unknown, key=label_key)!r}")
        rm = self.vertex_mask(rem)
        stripped = {}
        for f, m in zip(self.index_form, self._facet_masks()):
            m &= ~rm
            if m not in stripped:
                stripped[m] = f
        maximal = sorted(tuple(i for i in f if not rm >> i & 1)
                         for m, f in stripped.items()
                         if not any(m != g and m & g == m for g in stripped))
        rest = 0
        for m in stripped:
            rest |= m
        return self._induced(maximal, rest)

    def _induced(self, index_facets: list, mask: int) -> "Complex":
        """The complex on the vertices whose bits are set in ``mask``, with
        the given facets (tuples of positions in this complex) cut down to
        those vertices; the cut-down facets must be canonical and ordered."""
        remap = [-1] * len(self.vertices)
        vertices = []
        for i, v in enumerate(self.vertices):
            if mask >> i & 1:
                remap[i] = len(vertices)
                vertices.append(v)
        vertices = tuple(vertices)
        kept, new = (-1).__lt__, remap.__getitem__
        index = tuple([tuple(filter(kept, map(new, f))) for f in index_facets])
        label = vertices.__getitem__
        facets = tuple([tuple(map(label, f)) for f in index])
        return Complex(facets, vertices, index)

    def join(self, other: "Complex") -> "Complex":
        """Simplicial join; vertex sets must be disjoint."""
        overlap = set(self.vertices).intersection(other.vertices)
        if overlap:
            raise LabelCollisionError(
                f"join factors share labels: {sorted(overlap, key=label_key)!r}")
        gens = [
            tuple(sorted(f + g, key=label_key))
            for f in self.facets
            for g in other.facets
        ]
        return build(gens)

    def skeleton(self, j: int) -> "Complex":
        """All faces of dimension at most j (j >= -1)."""
        if j < -1:
            raise ValueError("skeleton dimension must be >= -1")
        if self.is_void or j >= self.dim:
            return self
        gens: list = []
        for f in self.facets:
            if len(f) - 1 <= j:
                gens.append(f)
            else:
                gens.extend(itertools.combinations(f, j + 1))
        return build(gens)

    def missing_faces(self) -> list:
        """Minimal non-faces: tau not in the complex with every proper
        subset a face.  Missing faces have 2 <= |tau| <= dim + 2."""
        if self.is_void:
            raise ComplexError("missing faces of the void complex are undefined")
        fs = self.faces()
        out = []
        for size in range(2, self.dim + 3):
            for cand in itertools.combinations(self.vertices, size):
                if cand in fs:
                    continue
                if all(sub in fs
                       for sub in itertools.combinations(cand, size - 1)):
                    out.append(cand)
        return out

    @property
    def is_flag(self) -> bool:
        """True when every missing face has exactly two vertices."""
        return all(len(m) == 2 for m in self.missing_faces())

    def connected_components(self) -> list:
        """Partition by connectivity of the 1-skeleton; isolated vertices
        are their own components."""
        if self.is_void:
            raise ComplexError("components of the void complex are undefined")
        if not self.vertices:
            return [self]
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for f in self.facets:
            for a, b in zip(f, f[1:]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        groups: dict = {}
        for f in self.facets:
            groups.setdefault(find(f[0]), []).append(f)
        comps = [Complex(tuple(sorted(g, key=face_key))) for g in groups.values()]
        comps.sort(key=lambda c: face_key(c.facets[0]))
        return comps

    def relabel(self, mapping: Mapping[Label, Label]) -> "Complex":
        """Rename vertices through a bijective mapping covering all vertices."""
        missing = [v for v in self.vertices if v not in mapping]
        if missing:
            raise UnknownVertexError(f"mapping misses vertices: {missing!r}")
        images = [mapping[v] for v in self.vertices]
        if len(set(images)) != len(images):
            raise LabelCollisionError("relabeling is not injective")
        return build([tuple(mapping[v] for v in f) for f in self.facets])

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self.facets == other.facets

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.facets)
        return self._hash

    def __iter__(self) -> Iterator:
        return iter(self.faces())

    def __contains__(self, face) -> bool:
        try:
            return self.has_face(face)
        except MalformedFaceError:
            return False

    def __repr__(self) -> str:
        if self.is_void:
            return "Complex(void)"
        shown = ", ".join(repr(list(f)) for f in self.facets[:6])
        more = "" if len(self.facets) <= 6 else f", ... {len(self.facets)} facets"
        return f"Complex([{shown}{more}])"
