"""Finite simplicial complexes stored by their inclusion-maximal facets.

Vertices are integer or string labels, faces are sorted duplicate-free
tuples of labels, and every complex is canonical: facets are deduplicated,
inclusion-dominated entries are dropped, and all outputs use a fixed
lexicographic order (integers before strings).  Complexes are immutable
after construction, so every operation returns a canonical complex (the
complex itself when nothing changes) and may be evaluated concurrently
without coordination.

A complex stores only its sorted vertices and its index form: the facets
with every vertex replaced by its position in ``vertices``.  The index form
is again canonical, and two complexes share it exactly when an
order-preserving relabelling takes one to the other.  ``build`` sorts the
labels once.  Inside, faces are positions and bitmasks (bit i for the i-th
vertex).  Labels come in only through the face gate (``canonical_face``,
``face_mask``, ``vertex_mask``) and go out only through the label views
(``facets``, ``faces``, ``faces_of_dim``, ``faces_sorted``,
``missing_faces``).

Faces are derived from one face table per complex: per size, the faces
as position tuples in lexicographic order, which is also the order of the
label faces since ``vertices`` is sorted.  The face lists, the face set,
the f-vector and the chain bases of :mod:`bstar.homology` are views of it.

The void complex (no faces at all) is distinct from the empty complex
``{()}`` whose only face is the empty face.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence

Label = int | str
Face = tuple  # sorted duplicate-free tuple of labels


class Record:
    """Immutable record whose fields, taken by position or by name, are the
    names in ``__slots__``.  Equality, hash, the repr ``Name(field=value,
    ...)`` and pickling go by them in order; pickling needs ``__reduce__``,
    as the default sets slots through the raising ``__setattr__``.  Records
    built for every face define a faster ``__init__``."""

    __slots__ = ()

    def __init__(self, *values, **named):
        names = self.__slots__
        if len(values) > len(names) or named.keys() != set(names[len(values):]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in (*zip(names, values), *named.items()):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
    table and its label views, facet bitmasks and position map are derived
    on first use.
    """

    __slots__ = ("vertices", "index_form", "dim", "_facets", "_table",
                 "_labelled", "_faces", "_masks", "_pos", "_pure")

    def __init__(self, vertices: tuple, index: tuple):
        self.vertices = vertices
        self.index_form = index
        # dimension (max facet dimension); None for the void complex
        self.dim = max(map(len, index)) - 1 if index else None
        self._facets = None
        self._table = None
        self._labelled = None
        self._faces = None
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

    def face_table(self) -> tuple:
        """Per size 0 .. dim + 1, the faces as tuples of vertex positions
        in lexicographic order, which is also the (dimension,
        lexicographic) order of the label faces; () for the void complex."""
        if self._table is None:
            sizes = 0 if self.is_void else self.dim + 2
            by_size = [set() for _ in range(sizes)]
            for f in self.index_form:
                for k in range(len(f) + 1):
                    by_size[k].update(itertools.combinations(f, k))
            self._table = tuple(tuple(sorted(faces)) for faces in by_size)
        return self._table

    def _labelled_table(self) -> tuple:
        """The face table with every position replaced by its label; the
        table itself when every vertex is the int equal to its position."""
        if self._labelled is None:
            table = self.face_table()
            if not (all(type(v) is int for v in self.vertices)
                    and self.vertices == tuple(range(len(self.vertices)))):
                label = self.vertices.__getitem__
                table = tuple(tuple([tuple(map(label, f)) for f in faces])
                              for faces in table)
            self._labelled = table
        return self._labelled

    def faces(self) -> frozenset:
        """The full face set (downward closure of the facets)."""
        if self._faces is None:
            self._faces = frozenset(
                itertools.chain.from_iterable(self._labelled_table()))
        return self._faces

    def faces_of_dim(self, k: int) -> list:
        """All faces of dimension exactly k in lexicographic order."""
        table = self._labelled_table()
        return list(table[k + 1]) if 0 <= k + 1 < len(table) else []

    def faces_sorted(self) -> list:
        """All faces ordered by (dimension, lexicographic)."""
        return list(itertools.chain.from_iterable(self._labelled_table()))

    def canonical_face(self, face: Iterable[Label]) -> Face:
        """as_face(face), but a tuple that is a face of the complex, and so
        already canonical, is returned as it is."""
        if type(face) is tuple and face in self.faces():
            return face
        return as_face(face)

    def has_face(self, face: Iterable[Label]) -> bool:
        return self.canonical_face(face) in self.faces()

    def face_mask(self, face: Iterable[Label], nonempty: bool = False) -> int:
        """The vertex bitmask of a face given as labels in any order.
        Raises MalformedFaceError if a vertex repeats, ValueError if
        ``nonempty`` and the face is empty, and FaceNotPresentError if it
        is not a face of the complex."""
        t = self.canonical_face(face)
        if nonempty and not t:
            raise ValueError("the empty face is not allowed here")
        if t not in self.faces():
            raise FaceNotPresentError(f"{t!r} is not a face")
        return self.vertex_mask(t)

    # -- face-level operators ----------------------------------------------

    def link(self, face: Iterable[Label]) -> "Complex":
        """lk(tau): faces disjoint from tau whose union with tau is a face.

        The facets of the link are the facets containing tau with tau
        removed, already canonical, so no re-canonicalisation is needed.
        """
        tm = self.face_mask(face)
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
        self.face_mask(t)  # FaceNotPresentError if t is not a face
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
        if not rem:
            return self
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
        subset a face, by size, then lexicographically.  Missing faces have
        2 <= |tau| <= dim + 2."""
        if self.is_void:
            raise ComplexError("missing faces of the void complex are undefined")
        table = self.face_table()
        fs = set(itertools.chain.from_iterable(table))
        out = []
        # a candidate without its last vertex is a face, so the candidates
        # of each size come, in lexicographic order, from the faces one
        # smaller, each extended by a later vertex
        for f in itertools.chain.from_iterable(table[1:]):
            for v in range(f[-1] + 1, self.n_vertices):
                cand = f + (v,)
                if cand not in fs and all(
                        sub in fs for sub in itertools.combinations(cand, len(f))):
                    out.append(cand)
        label = self.vertices.__getitem__
        return [tuple(map(label, m)) for m in out]

    @property
    def is_flag(self) -> bool:
        """True when every missing face has exactly two vertices."""
        return all(len(m) == 2 for m in self.missing_faces())

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
