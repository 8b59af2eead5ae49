import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bstar import (GF2, QQ, UNKNOWN, Coloring, ColoringError, NotPureError,
                   build, find_balanced_coloring,
                   is_buchsbaum, is_buchsbaum_star, is_cohen_macaulay,
                   is_doubly_buchsbaum, is_homology_manifold,
                   is_m_buchsbaum_star, is_m_cm, multi_point_join,
                   named, rank_selected,
                   revalidate_witness, simplex, simplex_boundary,
                   stacked_cross_polytopal_sphere)
from bstar import clear_caches, linalg
from oracles import (check_frozen_record, oracle_cm_violation,
                     oracle_manifold_violation)


def test_cm_spheres_and_paths():
    for d in (1, 2, 3):
        for f in (QQ, GF2):
            assert is_cohen_macaulay(simplex_boundary(d), f).verdict
    assert is_cohen_macaulay(named("path2"), QQ).verdict


def test_cm_disconnected_fails_with_witness():
    c = named("two_disjoint_edges")
    rep = is_cohen_macaulay(c, QQ)
    assert not rep.verdict
    assert rep.witness.kind == "link_homology"
    sigma, i = rep.witness.data
    assert sigma == () and i == 0
    assert revalidate_witness(c, rep, QQ)


def test_m_cm_examples(octahedron):
    assert is_m_cm(octahedron, 2, QQ).verdict
    assert is_m_cm(multi_point_join(3, 2), 3, QQ).verdict
    tri = simplex_boundary(2)
    assert is_m_cm(tri, 2, QQ).verdict
    # deleting two of the three vertices leaves a point: the dimension
    # drops, so the triangle boundary is not 3-CM (nor 4-CM)
    rep3 = is_m_cm(tri, 3, QQ)
    assert not rep3.verdict
    assert rep3.witness.kind == "deletion_dimension"
    assert len(rep3.witness.data[0]) == 2
    rep4 = is_m_cm(tri, 4, QQ)
    assert not rep4.verdict
    assert revalidate_witness(tri, rep4, QQ)


def test_buchsbaum(rp2, octahedron):
    for f in (QQ, GF2):
        assert is_buchsbaum(rp2, f).verdict
    assert is_buchsbaum(named("two_octahedra_disjoint"), QQ).verdict
    bowtie = named("bowtie2d")
    rep = is_buchsbaum(bowtie, QQ)
    assert not rep.verdict
    assert rep.witness.kind == "vertex_link" and rep.witness.data[0] == 3
    assert revalidate_witness(bowtie, rep, QQ)


def test_doubly_buchsbaum(octahedron):
    assert is_doubly_buchsbaum(octahedron, QQ).verdict
    rep = is_doubly_buchsbaum(simplex(2), QQ)
    assert not rep.verdict and rep.witness.kind == "deletion_buchsbaum"
    st93, _ = stacked_cross_polytopal_sphere(9, 3)
    assert is_doubly_buchsbaum(st93, QQ).verdict


def test_buchsbaum_star(octahedron, rp2):
    for f in (QQ, GF2):
        assert is_buchsbaum_star(octahedron, f).verdict
    assert is_buchsbaum_star(rp2, GF2).verdict
    rep = is_buchsbaum_star(rp2, QQ)
    assert not rep.verdict
    assert rep.witness.kind == "surjectivity"
    assert len(rep.witness.data[0]) == 1  # a vertex
    assert revalidate_witness(rp2, rep, QQ)
    cone = named("cone_over_square")
    rep = is_buchsbaum_star(cone, QQ)
    assert not rep.verdict
    assert revalidate_witness(cone, rep, QQ)


def test_buchsbaum_star_path_fails_at_interior_vertex():
    from bstar import Witness
    rep = is_buchsbaum_star(named("path2"), QQ)
    assert not rep.verdict
    assert rep.witness == Witness("surjectivity", ((2,),))


def test_m_buchsbaum_star(octahedron):
    k33 = multi_point_join(3, 2)
    assert is_m_buchsbaum_star(k33, 2, QQ).verdict
    assert is_m_buchsbaum_star(octahedron, 1, QQ).verdict
    rep = is_m_buchsbaum_star(octahedron, 2, QQ)
    assert not rep.verdict
    assert rep.witness.kind == "deletion_buchsbaum_star"
    assert revalidate_witness(octahedron, rep, QQ)
    # m = 0 degenerates to the Buchsbaum verdict
    assert is_m_buchsbaum_star(named("rp2_min"), 0, QQ).verdict


def test_p33_is_2_buchsbaum_star():
    p33 = multi_point_join(3, 3)
    for f in (QQ, GF2):
        assert is_m_buchsbaum_star(p33, 2, f).verdict


def test_homology_manifold(octahedron, rp2):
    assert is_homology_manifold(octahedron, QQ).verdict
    for f in (QQ, GF2):
        assert is_homology_manifold(rp2, f).verdict
    # triangle boundary plus a pendant edge: pure, but the degree-3 vertex
    # and the leaf both have non-sphere links
    pendant = build([(1, 2), (2, 3), (1, 3), (3, 4)])
    rep = is_homology_manifold(pendant, QQ)
    assert not rep.verdict and rep.witness.kind == "link_sphere"
    assert revalidate_witness(pendant, rep, QQ)
    # a solid triangle plus a pendant edge fails already on purity
    tri_pendant = build([(1, 2, 3), (3, 4)])
    rep = is_homology_manifold(tri_pendant, QQ)
    assert not rep.verdict and rep.witness.kind == "not_pure"
    ball = named("cone_over_square")
    assert not is_homology_manifold(ball, QQ).verdict  # has boundary


def test_find_balanced_coloring(octahedron):
    coloring = find_balanced_coloring(octahedron)
    assert coloring is not None and coloring is not UNKNOWN
    classes = {}
    for v, c in coloring.assignment.items():
        classes.setdefault(c, set()).add(v)
    assert sorted(map(sorted, classes.values())) == \
        [["x1", "y1"], ["x2", "y2"], ["x3", "y3"]]
    assert find_balanced_coloring(simplex_boundary(2)) is None
    k33 = multi_point_join(3, 2)
    assert find_balanced_coloring(k33) is not None
    assert find_balanced_coloring(octahedron, max_nodes=2) is UNKNOWN
    assert not UNKNOWN  # falsy sentinel
    with pytest.raises(NotPureError):
        find_balanced_coloring(build([(1, 2, 3), (4, 5)]))


def test_find_balanced_coloring_on_a_long_path():
    # the search goes one vertex deeper per step, so it must not recurse
    path = build([(v, v + 1) for v in range(2999)])
    coloring = find_balanced_coloring(path)
    assert coloring is not None and coloring is not UNKNOWN
    assert {coloring.assignment[v] for v in (0, 1)} == {1, 2}
    coloring.validate(path)
    assert find_balanced_coloring(path, max_nodes=2) is UNKNOWN


def test_rank_selected(octahedron_colored):
    octahedron, coloring = octahedron_colored
    assert rank_selected(octahedron, coloring, {1, 2, 3}) == octahedron
    square = rank_selected(octahedron, coloring, {1, 2})
    assert square.dim == 1 and len(square.faces_of_dim(1)) == 4
    empty = rank_selected(octahedron, coloring, set())
    assert empty.faces() == frozenset({()})
    with pytest.raises(ColoringError):
        rank_selected(octahedron, coloring, {1, 7})
    bad = Coloring({v: 1 for v in octahedron.vertices}, 3)
    with pytest.raises(ColoringError):
        rank_selected(octahedron, bad, {1})


def test_coloring_validation(octahedron_colored):
    octahedron, coloring = octahedron_colored
    coloring.validate(octahedron)
    with pytest.raises(ColoringError):
        Coloring({v: 1 for v in octahedron.vertices}, 3).validate(octahedron)
    partial = dict(coloring.assignment)
    partial.pop("x1")
    with pytest.raises(ColoringError):
        Coloring(partial, 3).validate(octahedron)


def test_two_cm_implies_buchsbaum_star_on_small_members(octahedron):
    for c in (octahedron, multi_point_join(3, 2), simplex_boundary(3)):
        for f in (QQ, GF2):
            if is_m_cm(c, 2, f).verdict:
                assert is_buchsbaum_star(c, f).verdict


def test_three_cm_implies_2_buchsbaum_star():
    k33 = multi_point_join(3, 2)
    assert is_m_cm(k33, 3, QQ).verdict
    assert is_m_buchsbaum_star(k33, 2, QQ).verdict


def test_rank_selection_theorem_small(octahedron_colored):
    # doubly-Buchsbaum balanced input: codimension-one selections are
    # Buchsbaum-star
    octahedron, coloring = octahedron_colored
    for drop in (1, 2, 3):
        s = {1, 2, 3} - {drop}
        sub = rank_selected(octahedron, coloring, s)
        for f in (QQ, GF2):
            assert is_buchsbaum_star(sub, f).verdict


def test_suspension_of_projective_plane_field_dependence(rp2):
    # suspending shifts the homology up one degree, so the poles' links
    # keep the plane's torsion behavior: Buchsbaum over Q but not over F2,
    # and never Buchsbaum-star over Q (top homology vanishes rationally)
    susp = build([["n"]]).join(rp2).facets + build([["s"]]).join(rp2).facets
    susp = build(susp)
    from bstar import GF2, reduced_betti
    assert tuple(reduced_betti(susp, QQ)) == (0, 0, 0, 0, 0)
    assert tuple(reduced_betti(susp, GF2)) == (0, 0, 0, 1, 1)
    assert is_buchsbaum(susp, QQ).verdict
    rep_f2 = is_buchsbaum(susp, GF2)
    assert not rep_f2.verdict and rep_f2.witness.kind == "vertex_link"
    assert rep_f2.witness.data[0] in ("n", "s")
    rep_q = is_buchsbaum_star(susp, QQ)
    assert not rep_q.verdict
    assert revalidate_witness(susp, rep_q, QQ)


def test_rank_selection_theorem_on_random_balanced_inputs():
    # randomized instantiation of the rank-selection statement: every
    # proper selection from a balanced doubly-Buchsbaum complex is
    # Buchsbaum-star
    import itertools
    from bstar import random_balanced_complex
    hits = 0
    for seed in range(200):
        cx, coloring = random_balanced_complex(seed)
        if not is_doubly_buchsbaum(cx, QQ).verdict:
            continue
        hits += 1
        for size in range(1, coloring.d):
            for s in itertools.combinations(range(1, coloring.d + 1), size):
                sub = rank_selected(cx, coloring, s)
                assert is_buchsbaum_star(sub, QQ).verdict, (seed, s)
    assert hits >= 5  # the sample actually exercises the theorem


def test_one_dimensional_cm_is_connectivity():
    # independent characterization: a pure 1-dimensional complex is CM
    # over any field exactly when it is connected
    from bstar import GF2, random_pure_complex
    from math import comb
    for seed in range(40):
        n = 4 + seed % 4
        fc = 1 + seed % comb(n, 2)
        c = random_pure_complex(seed, n, 1, fc)
        connected = len(c.connected_components()) == 1
        for f in (QQ, GF2):
            assert is_cohen_macaulay(c, f).verdict == connected, (seed, f)


_DIFF_PREDICATES = (
    is_cohen_macaulay, is_buchsbaum, is_buchsbaum_star,
    lambda c, f: is_m_cm(c, 2, f),
    lambda c, f: is_m_buchsbaum_star(c, 2, f),
    is_doubly_buchsbaum, is_homology_manifold,
)


def test_cached_reports_match_cold_reports():
    # the homology cache memoises whole reports of every predicate and
    # the homology they are built from: a warm cache must give exactly the
    # reports (verdicts and first-violation witnesses) of a cold one
    from bstar import GF3, clear_caches, corpus
    from bstar.homology import _cache
    from bstar.suites import _random_pure_corpus
    complexes = [e.complex for e in corpus()]
    complexes += [e.complex for e in _random_pure_corpus(0, 40, 7)]
    calls = [(pred, c, f) for c in complexes for f in (QQ, GF2, GF3)
             for pred in _DIFF_PREDICATES]
    warm = [pred(c, f) for pred, c, f in calls]
    cold = []
    for pred, c, f in calls:
        clear_caches()
        assert not _cache
        cold.append(pred(c, f))
    assert warm == cold
    for (pred, c, f), rep in zip(calls, warm):
        if not rep.verdict:
            assert revalidate_witness(c, rep, f), (c, rep)


def test_bounded_cache_keeps_suite_records(monkeypatch):
    # with a tiny limit the cache evicts constantly; the hierarchy suite
    # must still give the same case records and the cache never exceeds
    # the limit
    from bstar import clear_caches, homology, run_suite
    clear_caches()
    expected = run_suite("hierarchy").to_dict()["cases"]

    sizes = []

    class RecordingDict(dict):
        def setdefault(self, key, value):
            kept = super().setdefault(key, value)
            sizes.append(len(self))
            return kept

    monkeypatch.setattr(homology, "CACHE_LIMIT", 50)
    monkeypatch.setattr(homology, "_cache", RecordingDict())
    assert run_suite("hierarchy").to_dict()["cases"] == expected
    assert len(sizes) > 50 and max(sizes) == 50
    clear_caches()


def _witness_faces_are_faces(c, w):
    """Every face in the witness w of a report on c is a face of c, and
    every vertex set a vertex set of c, in c's own labels; nested
    witnesses are checked against the link or deletion they are about."""
    kind, data = w.kind, w.data
    if kind == "not_pure":
        return all(f in c.faces() for f in data)
    if kind in ("link_homology", "link_sphere", "surjectivity"):
        return data[0] in c.faces()
    if kind == "vertex_link":
        v, inner = data
        return v in c.vertices and (
            inner is None or _witness_faces_are_faces(c.link((v,)), inner))
    a = data[0]  # a vertex set deleted from c
    if not set(a) <= set(c.vertices):
        return False
    if len(data) == 2:
        return _witness_faces_are_faces(c.delete(a), data[1])
    return True


def _mixed_relabellings(c, data):
    """An order-preserving and an arbitrary relabelling of c onto int and
    str labels."""
    n = c.n_vertices
    k = data.draw(st.integers(0, n))
    ints = sorted(data.draw(st.sets(st.integers(-9, 99), min_size=k,
                                    max_size=k)))
    strs = sorted(data.draw(st.sets(st.text("pqrs", min_size=1, max_size=3),
                                    min_size=n - k, max_size=n - k)))
    images = ints + strs  # in label order: ints before strs
    shuffled = data.draw(st.permutations(images))
    return (c.relabel(dict(zip(c.vertices, images))),
            c.relabel(dict(zip(c.vertices, shuffled))))


_labels = st.sampled_from([0, 1, 2, 3, 4, "a", "b"])
small_mixed_complexes = st.one_of(
    st.integers(1, 3).flatmap(lambda size: st.lists(
        st.sets(_labels, min_size=size, max_size=size), min_size=1,
        max_size=7)),
    st.lists(st.sets(_labels, min_size=1, max_size=3), min_size=1,
             max_size=6),
).map(build)


@settings(max_examples=40)
@given(small_mixed_complexes, st.data())
def test_relabelled_reports_match_cold_reports(c, data):
    # relabelled complexes share homology cache entries keyed by vertex
    # positions: a report read off another labelling's entries must equal
    # the cold report, with its witness in the queried complex's labels
    from bstar import clear_caches
    keeping, shuffling = _mixed_relabellings(c, data)
    for field in (QQ, GF2):
        for pred in _DIFF_PREDICATES:
            clear_caches()
            warm = [pred(x, field) for x in (c, keeping, shuffling)]
            cold = []
            for x in (c, keeping, shuffling):
                clear_caches()
                cold.append(pred(x, field))
            assert warm == cold
            assert len({r.verdict for r in warm}) == 1
            for x, rep in zip((c, keeping, shuffling), warm):
                if not rep.verdict:
                    assert _witness_faces_are_faces(x, rep.witness), (x, rep)
                    assert revalidate_witness(x, rep, field), (x, rep)


_tetrahedra = st.lists(st.sets(st.integers(0, 5), min_size=4, max_size=4),
                       min_size=1, max_size=5).map(build)


@settings(max_examples=80)
@given(st.one_of(small_mixed_complexes, _tetrahedra))
@example(build([()]))
@example(build([(1, 2, 3), (3, 4, 5)]))             # a bowtie: not CM
@example(build([(1, 2, 3), (3, 4), (4, 5, 6)]))     # impure, so not CM
@example(build([(1, 2, 3, 4), (1, 2, 5, 6)]))       # fails at edge (1, 2)
@example(named("rp2_min"))                          # CM over Q and F3 only
@example(build([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (1, 2, 3, 4),
                (0, 2, 3, 5)]))
# the first failing vertex, 3, fails at (3, 4); the first face is (4,)
@example(build([(1, 2, 3, 4), (1, 2, 4, 6), (3, 4, 5, 6)]))
def test_cm_verdict_and_witness_match_the_plain_scan(c):
    # is_cohen_macaulay reads every non-empty face through the memoised
    # vertex links; its verdict and first-violation witness must be the
    # plain scan's.  is_buchsbaum of a pure complex must name the first
    # vertex whose link fails the scan, with the scan's witness.
    from bstar import GF3, Witness
    for field in (QQ, GF2, GF3):
        violation = oracle_cm_violation(c.facets, field.p)
        rep = is_cohen_macaulay(c, field)
        assert rep.verdict == (violation is None), (c, field)
        assert rep.witness == (violation and Witness("link_homology",
                                                     violation)), (c, field)
        if not c.is_pure:
            continue
        links = {v: [[x for x in f if x != v] for f in c.facets if v in f]
                 for v in c.vertices}
        first = next(((v, Witness("link_homology", inner)) for v in c.vertices
                      if (inner := oracle_cm_violation(links[v], field.p))),
                     None)
        assert is_buchsbaum(c, field).witness == (
            first and Witness("vertex_link", first)), (c, field)


@settings(max_examples=80)
@given(st.one_of(small_mixed_complexes, _tetrahedra))
@example(build([()]))
@example(build([(1,), (2,), (3,)]))
@example(named("rp2_min"))                  # a manifold over every field
@example(named("bowtie2d"))                 # fails first at vertex 1, in degree 1
@example(named("cone_over_square"))         # a ball: fails at the boundary
@example(named("two_octahedra_disjoint"))
@example(build([(1, 2), (2, 3), (1, 3), (3, 4)]))
def test_manifold_verdict_and_witness_match_the_plain_scan(c):
    # is_homology_manifold reads the face (v,) on the Betti numbers of lk v
    # and larger faces through the memoised report of lk v; its verdict
    # and first-violation witness must be the plain scan's
    from bstar import GF3, Witness
    for field in (QQ, GF2, GF3):
        violation = oracle_manifold_violation(c.facets, field.p)
        rep = is_homology_manifold(c, field)
        assert rep.verdict == (violation is None), (c, field)
        assert rep.witness == (violation and Witness(*violation)), (c, field)


def test_relabelled_cross_polytope_stores_no_new_cm_entry():
    from bstar import clear_caches, cross_polytope
    from bstar.homology import _cache
    c = cross_polytope(4)[0]
    clear_caches()
    assert is_cohen_macaulay(c, QQ).verdict
    stored = set(_cache)
    moved = c.relabel({v: 100 + i for i, v in enumerate(c.vertices)})
    assert moved.facets != c.facets
    assert is_cohen_macaulay(moved, QQ) == is_cohen_macaulay(c, QQ)
    assert set(_cache) == stored


def test_shared_cm_witness_is_in_the_queried_labels():
    from bstar import Witness, clear_caches
    from bstar.homology import _cache
    bowtie = build([(1, 2, 3), (3, 4, 5)])
    moved = bowtie.relabel(dict(zip(bowtie.vertices, "abcde")))
    clear_caches()
    assert is_cohen_macaulay(bowtie, QQ).witness == \
        Witness("link_homology", ((3,), 0))
    stored = set(_cache)
    assert is_cohen_macaulay(moved, QQ).witness == \
        Witness("link_homology", (("c",), 0))
    assert set(_cache) == stored


@pytest.mark.parametrize("pred", [
    is_buchsbaum, is_buchsbaum_star, lambda c, f: is_m_cm(c, 2, f)])
def test_relabelled_cross_polytope_stores_no_new_report_entry(pred):
    from bstar import clear_caches, cross_polytope
    from bstar.homology import _cache
    c = cross_polytope(4)[0]
    clear_caches()
    assert pred(c, QQ).verdict
    stored = set(_cache)
    # a report is keyed (predicate, index form[, m], field)
    assert any(key[0] in ("buchsbaum", "buchsbaum_star", "m_cm")
               and key[1] == c.index_form and key[-1] is QQ
               for key in stored)
    moved = c.relabel({v: 100 + i for i, v in enumerate(c.vertices)})
    assert pred(moved, QQ) == pred(c, QQ)
    assert set(_cache) == stored


@pytest.mark.parametrize("pred", [
    is_cohen_macaulay, is_m_cm, is_buchsbaum, is_doubly_buchsbaum,
    is_buchsbaum_star, is_m_buchsbaum_star, is_homology_manifold],
    ids=lambda pred: pred.__name__)
def test_keyword_and_positional_calls_share_one_entry(pred, octahedron):
    # keywords, in any order, are keyed in parameter order
    from bstar.homology import _cache
    m = {"m": 2} if pred in (is_m_cm, is_m_buchsbaum_star) else {}
    clear_caches()
    by_keyword = pred(octahedron, field=GF2, **m)
    stored = len(_cache)
    assert pred(octahedron, *m.values(), GF2) == by_keyword
    assert pred(octahedron, *m.values(), field=GF2) == by_keyword
    assert len(_cache) == stored
    with pytest.raises(TypeError, match="takes the arguments c, "):
        pred(octahedron, *m.values(), GF2, field=GF2)
    with pytest.raises(TypeError, match="takes the arguments c, "):
        pred(octahedron, *m.values(), fields=GF2)


def test_shared_nested_witnesses_are_in_the_queried_labels():
    # each report is computed on int labels, then read from the cache for
    # an order-preserving relabelling onto strs, and must equal the cold
    # report of the relabelled complex
    from bstar import Witness, clear_caches, cross_polytope
    from bstar.homology import _cache
    octahedron = cross_polytope(3)[0]
    octahedron = octahedron.relabel(
        {v: i for i, v in enumerate(octahedron.vertices)})
    cases = [
        (build([(0, 1, 2, 3), (0, 3, 4, 5)]), is_buchsbaum,
         Witness("vertex_link", ("a", Witness("link_homology", (("d",), 0))))),
        (octahedron, lambda c, f: is_m_buchsbaum_star(c, 2, f),
         Witness("deletion_buchsbaum_star",
                 (("a",), Witness("surjectivity", (("d",),))))),
        (build([(0, 1, 2), (2, 3)]), is_doubly_buchsbaum,
         Witness("not_pure", (("c", "d"), ("a", "b", "c")))),
    ]
    for c, pred, expected in cases:
        moved = c.relabel(dict(zip(c.vertices, "abcdef")))
        clear_caches()
        pred(c, QQ)
        stored = set(_cache)
        rep = pred(moved, QQ)
        assert set(_cache) == stored
        assert rep.witness == expected
        clear_caches()
        assert pred(moved, QQ) == rep
        assert revalidate_witness(moved, rep, QQ)


def test_report_memo_refuses_unknown_witness_kinds():
    from bstar import Witness
    from bstar.linalg import InvariantError
    from bstar.properties import _map_witness
    with pytest.raises(InvariantError):
        _map_witness(Witness("no_such_kind", ((1,),)), str)
    with pytest.raises(InvariantError):
        _map_witness(Witness("surjectivity", ((1,), 2)), str)


def test_witness_and_report_are_frozen_records():
    from bstar import PropertyReport, Witness
    w = Witness("surjectivity", ((1,),))
    check_frozen_record(w, Witness("surjectivity", ((1,),)))
    assert repr(w) == "Witness(surjectivity, ((1,),))"
    rep = is_buchsbaum_star(named("rp2_min"), QQ)
    check_frozen_record(rep, PropertyReport("buchsbaum_star", "Q", False, w))
    assert repr(rep) == ("PropertyReport(prop='buchsbaum_star', field='Q', "
                         "verdict=False, witness=Witness(surjectivity, ((1,),)))")
    assert rep != PropertyReport("buchsbaum_star", "F2", False, w)
    assert PropertyReport("cm", "Q", True).witness is None


def test_coloring_is_frozen_but_unhashable():
    col = Coloring({1: 1, 2: 2}, 2)
    check_frozen_record(col, Coloring(assignment={1: 1, 2: 2}, d=2),
                        hashable=False)
    assert col != Coloring({1: 1, 2: 2}, 3)
    assert repr(col) == "Coloring(assignment={1: 1, 2: 2}, d=2)"
    with pytest.raises(TypeError):
        Coloring({1: 1})
    with pytest.raises(TypeError):
        Coloring({1: 1}, 1, d=1)


def test_reports_that_depended_on_the_field_are_recorded(octahedron, rp2):
    # a memoised report moves the field-dependence record when it is
    # computed and again when it is read, if its computation moved it
    clear_caches()
    for c, dependent in ((octahedron, False), (rp2, True)):
        for _ in range(2):  # computed, then read from the memo
            before = linalg._field_dependence()
            report = is_buchsbaum_star(c, QQ)
            assert (linalg._field_dependence() > before) is dependent
        assert report.verdict is not dependent
    clear_caches()


def test_isolated_points_are_buchsbaum_star_over_every_field_alike():
    # the top cycles of three points, x_0 - x_1 and x_0 - x_2, are kept
    # with the entry -1 over F3 too, not 2, so the rank of each projection
    # onto one point finds a unit entry and holds over every field
    from bstar import GF3
    points = build([(0,), (1,), (2,)])
    clear_caches()
    for field in (QQ, GF2, GF3):
        before = linalg._field_dependence()
        assert is_buchsbaum_star(points, field).verdict, field
        assert linalg._field_dependence() == before, field
    clear_caches()


def test_subdivided_projective_plane_is_buchsbaum_star_over_f2_only(rp2):
    # sd(rp2_min) is balanced, coloured by face size, and as field-dependent
    # as rp2_min: the rank-selection theorem and the balanced bound meet a
    # hypothesis that holds over F2 alone.  Every verdict is computed, cold
    # and then from the memo, where the marked entries move the record
    import itertools
    from math import comb
    from bstar import GF3, f_vector, h_vector
    from oracles import barycentric_subdivision
    facets, colors = barycentric_subdivision(rp2.facets)
    sd, coloring = build(facets), Coloring(colors, 3)
    coloring.validate(sd)
    h = h_vector(sd)
    assert f_vector(sd) == (1, 31, 90, 60) and h == (1, 28, 31, 0)
    assert 3 * h[2] >= comb(3, 2) * h[1]
    selections = [s for k in (1, 2)
                  for s in itertools.combinations((1, 2, 3), k)]
    clear_caches()
    reports = []
    for _ in ("cold", "warm"):
        for field, hypothesis in ((QQ, False), (GF2, True), (GF3, False)):
            before = linalg._field_dependence()
            rep = is_buchsbaum_star(sd, field)
            assert linalg._field_dependence() > before, field
            assert rep.verdict is hypothesis, field
            assert hypothesis or revalidate_witness(sd, rep, field)
            reports.append(rep)
            for s in selections:
                # their cycles keep entries -1 and 1 over every field, so
                # no rank on the way depends on it
                before = linalg._field_dependence()
                sub = is_buchsbaum_star(rank_selected(sd, coloring, s), field)
                assert linalg._field_dependence() == before, (field, s)
                assert sub.verdict, (field, s, sub)
                reports.append(sub)
    assert reports[:len(reports) // 2] == reports[len(reports) // 2:]
    clear_caches()
