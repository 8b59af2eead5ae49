"""Finite simplicial complexes stored by their inclusion-maximal facets.

Vertices are integer or string labels, faces are sorted duplicate-free
tuples of labels, and every complex is canonical: facets are deduplicated,
inclusion-dominated entries are dropped, and all outputs use a fixed
lexicographic order (integers before strings).  Complexes are immutable
after construction, so every operation returns a fresh canonical complex
and may be evaluated concurrently without coordination.

A complex stores only its sorted vertices and its index form: the facets
with every vertex replaced by its position in ``vertices``.  The index form
is again canonical, and two complexes share it exactly when an
order-preserving relabelling takes one to the other.  Label facets are
derived on first use.  ``build`` sorts the labels once, and ``link``,
``delete`` and ``connected_components`` work on positions and bitmasks
(bit i for the i-th vertex), so they sort no labels.

The void complex (no faces at all) is distinct from the empty complex
``{()}`` whose only face is the empty face.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence, Union

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


def index_faces(faces: Sequence[Face]) -> tuple:
    """The sorted vertex set of the given faces, and the faces with every
    vertex replaced by its position in it, in their given order.

    Raises TypeError if the labels have no common order.
    """
    vertices = tuple(sorted({v for f in faces for v in f}, key=label_key))
    pos = {v: i for i, v in enumerate(vertices)}.__getitem__
    return vertices, tuple([tuple(map(pos, f)) for f in faces])


def _maximal(faces: dict) -> tuple:
    """The faces (position tuples, keyed by distinct vertex bitmasks) that
    no other face contains, in lexicographic order.  Masks of one size
    never contain each other and containment is transitive, so each mask
    is compared only with the larger masks kept so far.  A mask containing
    it contains each of its vertices, so of those only the ones through
    the vertex of it that the fewest kept masks contain are compared."""
    if not faces:
        return ()
    by_size: dict = {}
    for m in faces:
        by_size.setdefault(m.bit_count(), []).append(m)
    sizes = sorted(by_size, reverse=True)
    kept = fresh = by_size[sizes[0]]
    through: dict = {}  # vertex position -> the kept masks containing it
    for size in sizes[1:]:
        for m in fresh:
            for v in faces[m]:
                through.setdefault(v, []).append(m)
        # the empty face (no vertex) lies in every kept mask
        fresh = [m for m in by_size[size] if not any(
            m & g == m for g in min([through.get(v, ()) for v in faces[m]],
                                    key=len, default=kept))]
        kept = kept + fresh
    return tuple(sorted(map(faces.__getitem__, kept)))


def build(facet_list: Iterable[Iterable[Label]]) -> "Complex":
    """Build the canonical complex generated by the given faces.

    The face set is the downward closure of the input; entries dominated by
    another entry are dropped.  An empty input yields the void complex,
    ``[[]]`` yields the empty complex {()}.
    """
    vertices, index = index_faces([as_face(f) for f in facet_list])
    bit = [1 << i for i in range(len(vertices))]
    return Complex(vertices,
                   _maximal({sum(map(bit.__getitem__, f)): f for f in index}))


class Complex:
    """Immutable simplicial complex, stored as ``vertices`` (sorted) and
    ``index_form`` (the facets as tuples of positions in ``vertices``).

    Use :func:`build` rather than the constructor; the constructor assumes
    ``index`` is canonical and uses every vertex.  The label facets, face
    sets, facet bitmasks and position map are derived on first use.
    """

    __slots__ = ("vertices", "index_form", "dim", "_facets", "_faces",
                 "_by_dim", "_masks", "_pos", "_pure")

    def __init__(self, vertices: tuple, index: tuple):
        self.vertices = vertices
        self.index_form = index
        # dimension (max facet dimension); None for the void complex
        self.dim = max(map(len, index)) - 1 if index else None
        self._facets = None
        self._faces = None
        self._by_dim = None
        self._masks = None
        self._pos = None
        self._pure = None

    # -- basic structure ---------------------------------------------------

    @property
    def facets(self) -> tuple:
        """The facets as sorted label tuples, in lexicographic order."""
        if self._facets is None:
            label = self.vertices.__getitem__
            self._facets = tuple([tuple(map(label, f)) for f in self.index_form])
        return self._facets

    @property
    def is_void(self) -> bool:
        """True for the complex with no faces at all."""
        return not self.index_form

    @property
    def is_pure(self) -> bool:
        if self._pure is None:
            self._pure = len(set(map(len, self.index_form))) <= 1
        return self._pure

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

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
                stripped[m] = tuple(i for i in f if not rm >> i & 1)
        rest = ((1 << self.n_vertices) - 1) & ~rm  # every vertex is in a facet
        return self._induced(_maximal(stripped), rest)

    def _induced(self, index_facets, mask: int) -> "Complex":
        """The complex on the vertices whose bits are set in ``mask``, with
        the given facets (tuples of positions in this complex) cut down to
        those vertices; the cut-down facets must be canonical and ordered."""
        remap = [-1] * len(self.vertices)
        vertices = []
        for i, v in enumerate(self.vertices):
            if mask >> i & 1:
                remap[i] = len(vertices)
                vertices.append(v)
        kept, new = (-1).__lt__, remap.__getitem__
        return Complex(tuple(vertices), tuple(
            [tuple(filter(kept, map(new, f))) for f in index_facets]))

    def join(self, other: "Complex") -> "Complex":
        """Simplicial join; vertex sets must be disjoint."""
        overlap = set(self.vertices).intersection(other.vertices)
        if overlap:
            raise LabelCollisionError(
                f"join factors share labels: {sorted(overlap, key=label_key)!r}")
        return build([f + g for f in self.facets for g in other.facets])

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
        parent = list(range(len(self.vertices)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for f in self.index_form:
            for a, b in zip(f, f[1:]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        # components in the order of their first facets
        groups: dict = {}
        masks: dict = {}
        for f, m in zip(self.index_form, self._facet_masks()):
            root = find(f[0])
            groups.setdefault(root, []).append(f)
            masks[root] = masks.get(root, 0) | m
        return [self._induced(g, masks[root]) for root, g in groups.items()]

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
        return hash(self.facets)

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
