import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bstar import (QQ, ComplexError, FaceNotPresentError,
                   LabelCollisionError, MalformedFaceError,
                   UnknownVertexError, as_face, build, cross_polytope,
                   f_vector, is_buchsbaum_star, is_cohen_macaulay,
                   multi_point_join_colored, named, reduced_betti, simplex,
                   simplex_boundary)
from bstar.homology import _chain_data

from oracles import (MIXED_LABELS, dense_rows, downward_closure,
                     labelled_missing_faces, oracle_bases, oracle_boundaries,
                     oracle_f_vector, oracle_maximal_faces)

small_faces = st.sets(st.integers(0, 6), min_size=1, max_size=4)
facet_lists = st.lists(small_faces, min_size=1, max_size=8)
complexes = facet_lists.map(build)
# int and str labels together, as in the suspended_hexagon fixture
mixed_facet_lists = st.lists(
    st.sets(st.sampled_from([1, 2, 3, 4, 5, 6, "n", "s"]),
            min_size=1, max_size=4),
    min_size=1, max_size=8)


def test_build_triangle_boundary(triangle_boundary):
    assert triangle_boundary.dim == 1
    assert len(triangle_boundary.facets) == 3
    assert triangle_boundary.n_vertices == 3


def test_build_drops_dominated():
    c = build([(1, 2, 3), (2, 3)])
    assert c.facets == ((1, 2, 3),)
    assert c.vertices == (1, 2, 3)


def test_build_void_and_empty():
    void = build([])
    assert void.is_void and void.dim is None and void.faces() == frozenset()
    empty = build([[]])
    assert not empty.is_void
    assert empty.dim == -1
    assert empty.faces() == frozenset({()})
    assert void != empty


def test_build_rejects_repeated_vertex():
    with pytest.raises(MalformedFaceError):
        build([(1, 1, 2)])


def test_as_face_sorts_mixed_labels():
    assert as_face(["b", 2, 1, "a"]) == (1, 2, "a", "b")


def test_faces_of_dim(octahedron, triangle_boundary):
    assert len(octahedron.faces_of_dim(1)) == 12
    assert octahedron.faces_of_dim(-1) == [()]
    assert triangle_boundary.faces_of_dim(2) == []
    assert triangle_boundary.faces_of_dim(99) == []
    # oracle: count edges in the brute-force downward closure
    assert len([f for f in downward_closure(octahedron.facets)
                if len(f) == 2]) == 12


def test_link_of_empty_face_is_identity(octahedron):
    assert octahedron.link(()) == octahedron


def test_link_of_octahedron_vertex_is_four_cycle(octahedron):
    link = octahedron.link(("x1",))
    assert link.n_vertices == 4
    assert len(link.faces_of_dim(1)) == 4
    assert link.dim == 1


def test_link_of_facet_is_empty_complex(triangle_boundary):
    assert triangle_boundary.link((1, 2)).faces() == frozenset({()})


def test_link_requires_membership(triangle_boundary):
    with pytest.raises(FaceNotPresentError):
        triangle_boundary.link((1, 2, 3))


def test_canonical_face_takes_faces_as_they_are():
    hexagon = named("suspended_hexagon")
    for face in hexagon.faces():
        assert hexagon.canonical_face(face) is face
    # other inputs go through as_face
    assert hexagon.canonical_face(["n", 2, 1]) == (1, 2, "n")
    assert hexagon.canonical_face(("s", 6)) == (6, "s")
    assert hexagon.canonical_face((1, 2, 3)) == (1, 2, 3)  # not a face
    with pytest.raises(MalformedFaceError):
        hexagon.canonical_face(["n", 1, "n"])
    with pytest.raises(MalformedFaceError):
        hexagon.canonical_face((1, 1))


def test_face_operators_accept_any_vertex_order():
    hexagon = named("suspended_hexagon")
    assert hexagon.link(["n", 1]) == hexagon.link((1, "n"))
    assert hexagon.link(("n", 1)).facets == ((2,), (6,))
    assert hexagon.contrastar(["n", 1]) == hexagon.contrastar((1, "n"))
    assert hexagon.has_face(["s", 6]) and not hexagon.has_face(("s", "n"))
    for bad in (["n", 1, "n"], (1, 1)):
        with pytest.raises(MalformedFaceError):
            hexagon.link(bad)
        with pytest.raises(MalformedFaceError):
            hexagon.contrastar(bad)
    for absent in (("n", "s"), ["s", "n"], (1, 3), [3, 1, "n"]):
        with pytest.raises(FaceNotPresentError):
            hexagon.link(absent)
        with pytest.raises(FaceNotPresentError):
            hexagon.contrastar(absent)


def test_contrastar_triangle(triangle_boundary):
    c = triangle_boundary.contrastar((1,))
    assert c.faces() == frozenset({(), (2,), (3,), (2, 3)})


def test_contrastar_octahedron_vertex(octahedron):
    c = octahedron.contrastar(("x1",))
    counts = tuple(len(c.faces_of_dim(k)) for k in range(-1, 3))
    assert counts == (1, 5, 8, 4)


def test_contrastar_of_facet_of_simplex_is_boundary():
    s = simplex(3)
    assert s.contrastar((0, 1, 2, 3)) == simplex_boundary(3)


def test_contrastar_empty_face_rejected(octahedron):
    with pytest.raises(ComplexError):
        octahedron.contrastar(())


def test_delete_nothing_is_identity(octahedron):
    assert octahedron.delete(()) is octahedron


def test_delete_octahedron_vertex(octahedron):
    c = octahedron.delete(("x1",))
    counts = tuple(len(c.faces_of_dim(k)) for k in range(-1, 3))
    assert counts == (1, 5, 8, 4)


def test_delete_k33_side_vertex():
    k33 = multi_point_join_colored(3, 2)[0]
    c = k33.delete(("c1p0",))
    assert c.n_vertices == 5
    assert len(c.faces_of_dim(1)) == 6  # K_{2,3}


def test_delete_unknown_vertex(octahedron):
    with pytest.raises(UnknownVertexError):
        octahedron.delete((99,))


def test_join_points_make_edge_and_cycles():
    p = build([(1,)])
    q = build([("a",)])
    assert p.join(q).facets == ((1, "a"),)
    two_a = build([(1,), (2,)])
    two_b = build([(3,), (4,)])
    square = two_a.join(two_b)
    assert len(square.faces_of_dim(1)) == 4 and square.dim == 1
    two_c = build([(5,), (6,)])
    octa = square.join(two_c)
    assert tuple(len(octa.faces_of_dim(k)) for k in range(-1, 3)) == (1, 6, 12, 8)


def test_join_rejects_shared_labels():
    with pytest.raises(LabelCollisionError):
        build([(1,)]).join(build([(1, 2)]))


def test_skeleton():
    assert simplex(2).skeleton(0).facets == ((0,), (1,), (2,))
    k4 = simplex(3).skeleton(1)
    assert len(k4.faces_of_dim(1)) == 6 and k4.dim == 1
    oct_ = cross_polytope(3)[0]
    assert len(oct_.skeleton(1).faces_of_dim(1)) == 12
    assert oct_.skeleton(5) == oct_
    assert oct_.skeleton(-1).faces() == frozenset({()})


def test_missing_faces_examples(octahedron, triangle_boundary):
    square = build([(1, 2), (2, 3), (3, 4), (1, 4)])
    assert square.missing_faces() == [(1, 3), (2, 4)]
    assert square.is_flag
    assert triangle_boundary.missing_faces() == [(1, 2, 3)]
    assert not triangle_boundary.is_flag
    assert octahedron.missing_faces() == [("x1", "y1"), ("x2", "y2"),
                                          ("x3", "y3")]
    assert octahedron.is_flag
    assert build([[]]).missing_faces() == [] and build([[]]).is_flag
    assert build([(0,), ("a",)]).missing_faces() == [(0, "a")]


@given(facet_lists, st.permutations(MIXED_LABELS))
def test_missing_faces_match_the_label_scan(fl, labels):
    # missing faces are found on positions and mapped to labels once; the
    # label scan tries every vertex subset against the label faces
    c = build(fl)
    c = c.relabel(dict(zip(c.vertices, labels)))
    want = labelled_missing_faces(c)
    assert c.missing_faces() == want
    assert c.is_flag == all(len(m) == 2 for m in want)


def test_relabel_roundtrip(octahedron):
    fwd = {v: f"z{v}" for v in octahedron.vertices}
    back = {w: v for v, w in fwd.items()}
    assert octahedron.relabel(fwd).relabel(back) == octahedron
    with pytest.raises(LabelCollisionError):
        octahedron.relabel({v: "same" for v in octahedron.vertices})


@given(facet_lists)
def test_downward_closure_property(fl):
    c = build(fl)
    faces = c.faces()
    assert faces == frozenset(downward_closure(c.facets))
    for f in faces:
        for k in range(len(f)):
            assert f[:k] + f[k + 1:] in faces


@given(facet_lists)
def test_f_vector_matches_bruteforce(fl):
    c = build(fl)
    counts = tuple(len(c.faces_of_dim(k)) for k in range(-1, c.dim + 1))
    assert counts == oracle_f_vector(c.facets)
    assert f_vector(c) == counts


@given(mixed_facet_lists)
def test_face_table_order_matches_label_oracle(fl):
    # the face table is ordered by vertex positions; since the vertices are
    # sorted, that must be the label order of the faces, which the chain
    # bases and their boundary signs follow
    c = build(fl)
    bases = oracle_bases(c.facets)
    assert c.faces_sorted() == [f for k in sorted(bases) for f in bases[k]]
    boundaries, _ = _chain_data(c)
    assert [dense_rows(b) for b in boundaries] == oracle_boundaries(c.facets)
    assert f_vector(c) == oracle_f_vector(c.facets)


def test_face_table_of_void_and_empty_complex():
    void, empty = build([]), build([[]])
    assert void.faces_sorted() == [] and void.faces_of_dim(-1) == []
    assert empty.faces_sorted() == [()] and empty.faces_of_dim(-1) == [()]
    assert empty.faces_of_dim(-2) == [] and empty.faces_of_dim(0) == []
    assert f_vector(empty) == (1,)
    assert tuple(reduced_betti(empty, QQ)) == (1,)
    assert is_cohen_macaulay(empty, QQ).verdict
    assert is_buchsbaum_star(empty, QQ).verdict
    for undefined, message in (
            (f_vector, "f-vector of the void complex is undefined"),
            (lambda c: reduced_betti(c, QQ),
             "Betti numbers of the void complex are undefined"),
            (lambda c: is_cohen_macaulay(c, QQ),
             "void complex has no Cohen-Macaulay verdict"),
            (lambda c: is_buchsbaum_star(c, QQ),
             "void complex has no Buchsbaum verdict")):
        with pytest.raises(ValueError, match=message):
            undefined(void)


def test_face_lists_carry_labels_equal_to_but_not_ints():
    # bool and float labels compare equal to the positions 0, 1 but must
    # still come back as the complex's own labels
    for fl in ([(False, True)], [(0.0, 1.0)]):
        c = build(fl)
        assert c.faces_of_dim(1) == list(c.facets) == fl
        assert all(type(v) is type(fl[0][0])
                   for f in c.faces_sorted() for v in f)
        assert all(type(v) is type(fl[0][0]) for f in c.faces() for v in f)


def _link_by_build(c, tau):
    return build([tuple(v for v in f if v not in tau)
                  for f in c.facets if set(tau).issubset(f)])


@given(mixed_facet_lists, st.data())
def test_link_facets_equal_rebuilt_link(fl, data):
    # link skips build: its stripped facets must already be canonical
    c = build(fl)
    faces = c.faces_sorted()
    for tau in ((), data.draw(st.sampled_from(c.facets)),
                data.draw(st.sampled_from(faces))):
        link = c.link(tau)
        assert link.facets == _link_by_build(c, tau).facets
        assert link.dim == _link_by_build(c, tau).dim


def test_link_facets_equal_rebuilt_link_on_suspended_hexagon():
    c = named("suspended_hexagon")
    for tau in c.faces():
        assert c.link(tau).facets == _link_by_build(c, tau).facets


@given(facet_lists, st.sets(st.integers(0, 6), max_size=3))
def test_link_contrastar_complementarity(fl, tau_set):
    c = build(fl)
    tau = as_face(tau_set)
    if not tau or tau not in c.faces():
        return
    cost_faces = c.contrastar(tau).faces()
    link_shift = {tuple(sorted(set(s) | set(tau))) for s in c.link(tau).faces()}
    assert cost_faces.isdisjoint(link_shift)
    assert cost_faces | link_shift == c.faces()


@given(facet_lists, facet_lists)
def test_join_face_count_convolution(fl_a, fl_b):
    a = build(fl_a)
    b = build([tuple(f"b{v}" for v in f) for f in fl_b])
    j = a.join(b)
    fa = {k: len(a.faces_of_dim(k)) for k in range(-1, a.dim + 1)}
    fb = {k: len(b.faces_of_dim(k)) for k in range(-1, b.dim + 1)}
    assert j.dim == a.dim + b.dim + 1
    for k in range(-1, j.dim + 1):
        expected = sum(fa.get(i, 0) * fb.get(k - 1 - i, 0)
                       for i in range(-1, k + 1))
        assert len(j.faces_of_dim(k)) == expected


@given(facet_lists, st.sets(st.integers(0, 6), max_size=3))
def test_delete_equals_face_filter(fl, removed):
    c = build(fl)
    rem = {v for v in removed if v in set(c.vertices)}
    d = c.delete(rem)
    assert d.faces() == frozenset(
        f for f in c.faces() if not rem.intersection(f))
    assert d == build([tuple(v for v in f if v not in rem) for f in c.facets])


@settings(max_examples=30)
@given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4),
                min_size=1, max_size=6))
def test_nonfaces_are_exactly_upclosure_of_missing_faces(fl):
    c = build(fl)
    missing = c.missing_faces()
    faces = c.faces()
    for size in range(len(c.vertices) + 1):
        for sub in itertools.combinations(c.vertices, size):
            contains_missing = any(set(m).issubset(sub) for m in missing)
            assert (sub in faces) == (not contains_missing)


def test_canonical_equality_and_hash():
    a = build([(3, 2, 1), (2, 4)])
    b = build([(2, 4), (1, 2, 3)])
    assert a == b and hash(a) == hash(b)
    assert a.facets == ((1, 2, 3), (2, 4))


def _fresh(c):
    # the same facets, with vertices and index form computed from labels
    return build(c.facets)


@given(mixed_facet_lists, st.data())
def test_link_and_delete_carry_the_index_form_of_their_labels(fl, data):
    # link and delete hand their result its vertices and index form, built
    # from the parent's vertex positions rather than from the new labels
    c = build(fl)
    faces = c.faces_sorted()
    removed = data.draw(st.sets(st.sampled_from(c.vertices), max_size=3))
    for child in (c.link(data.draw(st.sampled_from(faces))), c.delete(removed)):
        fresh = _fresh(child)
        assert child.facets == fresh.facets
        assert child.vertices == fresh.vertices
        assert child.index_form == fresh.index_form


@given(mixed_facet_lists, st.data())
def test_index_form_is_shared_by_order_preserving_relabellings(fl, data):
    c = build(fl)
    n = c.n_vertices
    ints = sorted(data.draw(st.sets(st.integers(-50, 50), max_size=n)))
    strs = sorted(data.draw(st.sets(st.text("abcxyz", min_size=1, max_size=3),
                                    min_size=n - len(ints),
                                    max_size=n - len(ints))))
    # ints sort before strs, so this map keeps the vertex order
    moved = c.relabel(dict(zip(c.vertices, ints + strs)))
    assert moved.index_form == c.index_form
    assert build(c.index_form).facets == c.index_form
    assert build(c.index_form).index_form == c.index_form


def test_index_form_examples(triangle_boundary):
    assert triangle_boundary.index_form == ((0, 1), (0, 2), (1, 2))
    assert build([]).index_form == ()
    assert build([[]]).index_form == ((),)
    hexagon = named("suspended_hexagon")
    link = hexagon.link(("n",))
    assert link.vertices == (1, 2, 3, 4, 5, 6)
    assert link.index_form == ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5))


# 1 and "1" are distinct labels; ints sort before strs
mixed_labels = st.sampled_from([1, 2, 3, 5, "1", "n", "s"])


@st.composite
def redundant_facet_lists(draw):
    """Faces in any vertex order, some repeated and some dominated by
    another entry."""
    faces = draw(st.lists(st.lists(mixed_labels, unique=True, max_size=4),
                          max_size=6))
    extra = []
    for f in faces:
        if draw(st.booleans()):
            extra.append(draw(st.permutations(f)))
        if f and draw(st.booleans()):
            extra.append(f[:draw(st.integers(0, len(f) - 1))])
    return draw(st.permutations(faces + extra))


@given(redundant_facet_lists())
@example([])
@example([[]])
@example([[], [], ["s"], [1, "s"]])
def test_build_matches_the_pairwise_dominance_oracle(fl):
    c = build(fl)
    want = tuple(oracle_maximal_faces(fl))
    assert c.facets == want
    labels = {v for f in want for v in f}
    assert c.vertices == tuple(sorted(labels, key=lambda v: (type(v) is str, v)))
    assert c.index_form == tuple(tuple(map(c.vertices.index, f)) for f in want)
    assert c.facets == tuple(tuple(c.vertices[i] for i in f)
                             for f in c.index_form)
