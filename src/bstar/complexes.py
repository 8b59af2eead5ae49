"""Finite simplicial complexes stored by their inclusion-maximal facets.

Vertices are integer or string labels, faces are sorted duplicate-free
tuples of labels, and every complex is canonical: facets are deduplicated,
inclusion-dominated entries are dropped, and all outputs use a fixed
lexicographic order (integers before strings).  Complexes are immutable
after construction, so every operation returns a fresh canonical complex
and may be evaluated concurrently without coordination.

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
    its argument is already canonical (sorted, pairwise incomparable).
    """

    __slots__ = ("facets", "dim", "_vertices", "_faces", "_by_dim", "_hash")

    def __init__(self, facets: tuple):
        self.facets = facets
        # dimension (max facet dimension); None for the void complex
        self.dim = max(map(len, facets)) - 1 if facets else None
        self._vertices = None
        self._faces = None
        self._by_dim = None
        self._hash = None

    # -- basic structure ---------------------------------------------------

    @property
    def is_void(self) -> bool:
        """True for the complex with no faces at all."""
        return not self.facets

    @property
    def is_pure(self) -> bool:
        lengths = {len(f) for f in self.facets}
        return len(lengths) <= 1

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            self._vertices = tuple(
                sorted({v for f in self.facets for v in f}, key=label_key))
        return self._vertices

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

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
        ts = set(t)
        # f - tau <= g - tau with tau in f and g would give f <= g, so the
        # stripped facets stay pairwise incomparable.  They also keep their
        # lexicographic order, mixed int/str labels included.  Let f < g
        # contain tau and first differ at position k.  Then f[k] is not in
        # tau (g, sorted, has no room for it), and g - tau has a vertex
        # beyond the common prefix (else g <= f), larger than f[k]; so the
        # order of f - tau and g - tau is decided at f[k], as before.
        return Complex(tuple(tuple(v for v in f if v not in ts)
                             for f in self.facets if ts.issubset(f)))

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
        gens = [tuple(v for v in f if v not in rem) for f in self.facets]
        return build(gens)

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
