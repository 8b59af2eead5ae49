import os
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bstar import (GF2, GF3, QQ, BettiVector, FaceNotPresentError,
                   InvariantError, MalformedFaceError, build, clear_caches,
                   fixture, fixture_names, pair_restriction_surjective, rank,
                   reduced_betti, relative_betti_vector, simplex,
                   top_restriction_surjective)
from bstar import homology, linalg
from bstar.homology import load_betti_cache, save_betti_cache
from bstar.linalg import product_is_zero

from oracles import (TORSION_BETTI, TORSION_FACETS, check_frozen_record,
                     dense_rows, oracle_betti, oracle_restriction_surjective,
                     scanned_top_star, smith_betti)

facet_lists = st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4),
                       min_size=1, max_size=8)
pure_facet_lists = st.integers(0, 2).flatmap(lambda d: st.lists(
    st.sets(st.integers(0, 6), min_size=d + 1, max_size=d + 1),
    min_size=1, max_size=8))
RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6), (2, 3, 5),
       (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]   # six-vertex projective plane


def test_chain_complex_single_edge():
    edge = build([(1, 2)])
    boundaries, _ = homology._chain_data(edge)
    assert edge.faces_of_dim(-1) == [()]
    assert edge.faces_of_dim(0) == [(1,), (2,)]
    d1 = boundaries[1]
    assert d1.column(0) == [-1, 1]
    d0 = boundaries[0]
    assert dense_rows(d0) == [[1, 1]]


def test_boundary_squared_zero(octahedron):
    boundaries, _ = homology._chain_data(octahedron)
    for j in range(1, octahedron.dim + 1):
        assert boundaries[j - 1].matmul(boundaries[j]).is_zero


def test_boundary_check_raises_on_corrupted_sign(monkeypatch, octahedron):
    # one flipped sign in the augmentation row, on the way from the rows
    # built to the boundary matrix: the vertex boundary of the first edge
    # no longer sums to zero
    real = homology.Matrix

    class Corrupted(real):
        @classmethod
        def _of_rows(cls, nrows, ncols, rows):
            if nrows == 1:
                rows = {0: {**rows[0], 0: -rows[0][0]}}
            return real._of_rows(nrows, ncols, rows)

    monkeypatch.setattr(homology, "Matrix", Corrupted)
    clear_caches()
    with pytest.raises(InvariantError, match="boundary of boundary"):
        homology._chain_data(octahedron)
    clear_caches()


def test_triangle_boundary_d1_rank(triangle_boundary):
    d1 = homology._chain_data(triangle_boundary)[0][1]
    assert (d1.nrows, d1.ncols) == (3, 3)
    from bstar import rank
    assert rank(d1, QQ) == 2


def test_betti_octahedron(octahedron):
    assert tuple(reduced_betti(octahedron, QQ)) == (0, 0, 0, 1)
    assert tuple(reduced_betti(octahedron, GF2)) == (0, 0, 0, 1)


def test_betti_projective_plane(rp2):
    assert tuple(reduced_betti(rp2, GF2)) == (0, 0, 1, 1)
    assert tuple(reduced_betti(rp2, QQ)) == (0, 0, 0, 0)
    assert tuple(reduced_betti(rp2, GF3)) == (0, 0, 0, 0)


def test_betti_empty_complex():
    empty = build([[]])
    assert tuple(reduced_betti(empty, QQ)) == (1,)
    assert reduced_betti(empty, QQ)[-1] == 1


def test_betti_void_rejected():
    with pytest.raises(ValueError):
        reduced_betti(build([]), QQ)


def test_all_fixture_betti_match_frozen_and_oracle():
    for name in fixture_names():
        fx = fixture(name)
        for label, p in (("Q", None), ("F2", 2)):
            field = QQ if p is None else GF2
            got = tuple(reduced_betti(fx.complex, field))
            assert got == fx.expected_betti[label], name
            assert got == oracle_betti(fx.complex.facets, p), name


@settings(max_examples=40)
@given(facet_lists, st.sampled_from([QQ, GF2, GF3]))
@example([()], QQ)
@example([()], GF2)
@example([()], GF3)
def test_betti_matches_oracle_on_random_complexes(fl, field):
    assert tuple(reduced_betti(build(fl), field)) == oracle_betti(fl, field.p)


def test_betti_vector_indexing():
    bv = BettiVector((0, 1, 2), QQ)
    assert bv[-1] == 0 and bv[0] == 1 and bv[1] == 2
    assert bv[99] == 0 and bv[-5] == 0
    assert bv.top_degree == 1
    assert bv.chi_reduced() == 0 + 1 - 2


def test_betti_vector_is_a_frozen_record():
    bv = BettiVector((0, 1, 2), QQ)
    check_frozen_record(bv, BettiVector((0, 1, 2), QQ))
    assert bv != BettiVector((0, 1, 2), GF2) and bv != (0, 1, 2)
    assert repr(bv) == "BettiVector((0, 1, 2), Q)"
    rp2 = fixture("rp2_min").complex
    assert repr(reduced_betti(rp2, GF2)) == "BettiVector((0, 0, 1, 1), F2)"


def test_relative_betti_examples(octahedron, triangle_boundary):
    assert relative_betti_vector(octahedron, ("x1",), QQ)[2] == 1
    assert relative_betti_vector(triangle_boundary, (1, 2), QQ)[1] == 1
    cone = simplex(2)
    assert relative_betti_vector(cone, (0,), QQ)[2] == 0


def test_relative_betti_errors(octahedron):
    with pytest.raises(ValueError):
        relative_betti_vector(octahedron, (), QQ)
    with pytest.raises(FaceNotPresentError):
        relative_betti_vector(octahedron, ("x1", "y1"), QQ)


@settings(max_examples=40)
@given(facet_lists, st.sampled_from([QQ, GF2]))
def test_lemma_relative_equals_shifted_link(fl, field):
    c = build(fl)
    for tau in c.faces_sorted():
        if not tau:
            continue
        rel = relative_betti_vector(c, tau, field)
        link_betti = reduced_betti(c.link(tau), field)
        for i in range(-1, c.dim + 2):
            assert rel[i] == link_betti[i - len(tau)]


def test_top_restriction_octahedron_all_faces(octahedron):
    for field in (QQ, GF2, GF3):
        for tau in octahedron.faces_sorted():
            if tau:
                assert top_restriction_surjective(octahedron, tau, field)


def test_top_restriction_rp2_field_dependence(rp2):
    v = (1,)
    assert not top_restriction_surjective(rp2, v, QQ)
    assert top_restriction_surjective(rp2, v, GF2)


def test_pair_restriction(octahedron, rp2):
    assert pair_restriction_surjective(octahedron, ("x1",), ("x1",), QQ)
    assert pair_restriction_surjective(octahedron, ("x1",), ("x1", "x2"), QQ)
    assert not pair_restriction_surjective(rp2, (), (1,), QQ)
    with pytest.raises(ValueError):
        pair_restriction_surjective(octahedron, ("x1",), ("x2", "x3"), QQ)


def test_restriction_maps_accept_any_vertex_order():
    hexagon = fixture("suspended_hexagon").complex
    for field in (QQ, GF2):
        assert (relative_betti_vector(hexagon, ["n", 1], field)
                == relative_betti_vector(hexagon, (1, "n"), field))
        assert (top_restriction_surjective(hexagon, ["n", 2, 1], field)
                == top_restriction_surjective(hexagon, (1, 2, "n"), field))
        assert (pair_restriction_surjective(hexagon, ["n"], ("n", 1), field)
                == pair_restriction_surjective(hexagon, ("n",), (1, "n"),
                                               field))
    for bad in (["n", 1, "n"], (1, 1)):
        with pytest.raises(MalformedFaceError):
            relative_betti_vector(hexagon, bad, QQ)
        with pytest.raises(MalformedFaceError):
            top_restriction_surjective(hexagon, bad, QQ)
        with pytest.raises(MalformedFaceError):
            pair_restriction_surjective(hexagon, (1,), bad, QQ)
        with pytest.raises(MalformedFaceError):
            pair_restriction_surjective(hexagon, bad, (1, 2, "n"), QQ)
    for absent in (("n", "s"), ["s", "n"], (1, 3), [3, 1, "n"]):
        with pytest.raises(FaceNotPresentError):
            relative_betti_vector(hexagon, absent, QQ)
        with pytest.raises(FaceNotPresentError):
            top_restriction_surjective(hexagon, absent, QQ)
        with pytest.raises(FaceNotPresentError):
            pair_restriction_surjective(hexagon, (), absent, QQ)
    # sigma must lie in tau, whatever its vertex order
    with pytest.raises(ValueError, match="not a subset"):
        pair_restriction_surjective(hexagon, ["s", 1], (1, "n"), QQ)


def test_labels_outside_the_vertex_set_are_not_faces():
    hexagon = fixture("suspended_hexagon").complex
    for absent in ((99,), ("z", 1), [1, "n", 99]):
        for query in (hexagon.link, hexagon.contrastar,
                      lambda t: relative_betti_vector(hexagon, t, QQ),
                      lambda t: top_restriction_surjective(hexagon, t, QQ),
                      lambda t: pair_restriction_surjective(hexagon, (), t, QQ),
                      lambda t: pair_restriction_surjective(hexagon, t, t, QQ)):
            with pytest.raises(FaceNotPresentError,
                               match=r"is not a face"):
                query(absent)
    # a repeated vertex is reported first, whether or not it is a vertex
    with pytest.raises(MalformedFaceError):
        hexagon.link((99, 99))
    # the empty face is no face of the void complex, and the relative
    # Betti numbers reject it before asking
    void = build([])
    with pytest.raises(FaceNotPresentError):
        void.link(())
    with pytest.raises(ValueError, match="empty face is not allowed"):
        relative_betti_vector(void, (), QQ)
    with pytest.raises(FaceNotPresentError):
        relative_betti_vector(void, (1,), QQ)


@settings(max_examples=25)
@given(pure_facet_lists, st.sampled_from([QQ, GF2, GF3]))
def test_restriction_maps_match_rank_nullity_oracle(fl, field):
    c = build(fl)
    for tau in c.faces_sorted():
        want = oracle_restriction_surjective(fl, (), tau, field.p)
        if tau:
            assert top_restriction_surjective(c, tau, field) == want, tau
        for k in range(len(tau) + 1):
            for sigma in combinations(tau, k):
                assert pair_restriction_surjective(c, sigma, tau, field) == \
                    oracle_restriction_surjective(fl, sigma, tau, field.p), \
                    (sigma, tau)


@settings(max_examples=25)
@given(pure_facet_lists, st.sampled_from([QQ, GF2, GF3]))
def test_source_cycle_bases_span_the_target_nullity(fl, field):
    """At every face, the stored cycle basis of a source lies on the
    facets containing the face, has int entries over Q, is annihilated by
    the quotient complex's top boundary, and has as many independent
    columns as the sweep's dim Z at that face."""
    c = build(fl)
    top = homology._chain_data(c)[0][-1]
    sweep = homology._sweep(c, field)
    for face in c.faces_sorted():
        s = c.vertex_mask(face)
        basis = homology._source_cycles(c, s, field)
        if s:
            rows, cols, z_dim, _ = sweep[s]
        else:
            rows, cols = range(top.nrows), range(top.ncols)
            z_dim = top.ncols - rank(top, field)
        boundary = top.submatrix(rows, cols)
        assert set(basis.rows) <= set(cols)
        if field is QQ:
            assert all(type(v) is int for v in basis.entries.values())
        on_cols = basis.take_rows(cols)
        assert product_is_zero(boundary, on_cols, field)
        assert rank(on_cols, field) == basis.ncols == z_dim


@settings(max_examples=40)
@given(pure_facet_lists, st.sampled_from([QQ, GF2, GF3]))
@example(RP2, QQ)                                   # onto over F2 only
@example(RP2, GF2)
@example([(0, 1, 2), (0, 3, 4)], GF3)               # not Buchsbaum
@example([(0, 1), (1, 2), (2, 0), (3, 4)], GF2)     # a component without top cycles
def test_sweep_matches_the_scan_at_every_face(fl, field):
    """The sweep takes each face's ridges and facets from its parent's;
    the scan of every mask, with rank-nullity, gives the same ridges,
    facets, dim Z and verdict at every non-empty face."""
    c = build(fl)
    sweep = homology._sweep(c, field)
    faces = [f for f in c.faces_sorted() if f]
    assert list(sweep) == [c.vertex_mask(f) for f in faces]
    for face in faces:
        assert sweep[c.vertex_mask(face)] == scanned_top_star(c, face, field), face


@settings(max_examples=25)
@given(facet_lists, facet_lists, st.sampled_from([QQ, GF3]))
def test_excision_disjoint_union(fl_a, fl_b, field):
    a = build(fl_a)
    b = build([tuple(f"b{v}" for v in f) for f in fl_b])
    union = build(list(a.facets) + list(b.facets))
    ba, bb = reduced_betti(a, field), reduced_betti(b, field)
    bu = reduced_betti(union, field)
    assert bu[-1] == 0  # two non-void parts: the union has a vertex
    assert bu[0] == ba[0] + bb[0] + 1
    for i in range(1, union.dim + 1):
        assert bu[i] == ba[i] + bb[i]


@settings(max_examples=30)
@given(facet_lists, st.sampled_from([QQ, GF2]))
def test_euler_from_betti_matches_f_alternation(fl, field):
    c = build(fl)
    from bstar import reduced_euler_characteristic
    assert reduced_betti(c, field).chi_reduced() == \
        reduced_euler_characteristic(c)


def test_euler_check_raises_on_corrupted_ranks(monkeypatch, octahedron):
    # one boundary rank too many: it lowers the top Betti number and has
    # no degree above to cancel it in the alternating sum
    real = homology._relative_data

    def one_rank_too_many(c, t, field):
        counts, ranks = real(c, t, field)
        return counts, {**ranks, c.dim + 1: 1}

    monkeypatch.setattr(homology, "_relative_data", one_rank_too_many)
    clear_caches()
    with pytest.raises(InvariantError, match="Euler characteristic"):
        reduced_betti(octahedron, QQ)
    clear_caches()


def test_memoization_returns_identical_object(octahedron):
    a = reduced_betti(octahedron, QQ)
    b = reduced_betti(octahedron, QQ)
    assert a is b
    # the field as a keyword shares the positional call's entry
    assert reduced_betti(octahedron, field=GF2) is reduced_betti(octahedron, GF2)


def test_cache_save_load_roundtrip(tmp_path, octahedron):
    reduced_betti(octahedron, QQ)
    path = tmp_path / "betti.json"
    save_betti_cache(path)
    clear_caches()
    loaded = load_betti_cache(path)
    assert loaded >= 1
    assert tuple(reduced_betti(octahedron, QQ)) == (0, 0, 0, 1)


def test_failed_cache_write_keeps_old_file(tmp_path, monkeypatch, octahedron):
    reduced_betti(octahedron, QQ)
    path = tmp_path / "betti.json"
    path.write_text("{}")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_betti_cache(path)
    assert path.read_text() == "{}"
    assert os.listdir(tmp_path) == ["betti.json"]


def test_concurrent_betti_queries_agree(octahedron):
    # the memo cache keeps the first value stored for a key: concurrent
    # identical queries must all resolve to the same canonical vector
    from concurrent.futures import ThreadPoolExecutor
    clear_caches()
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(
            lambda _: reduced_betti(octahedron, QQ), range(32)))
    assert all(tuple(r) == (0, 0, 0, 1) for r in results)
    assert len({id(r) for r in results}) == 1


def test_chain_complex_bases_carry_the_queried_labels(triangle_boundary):
    # chain data is shared by relabelled complexes; the bases are not
    moved = triangle_boundary.relabel({1: "a", 2: "b", 3: "c"})
    clear_caches()
    first, _ = homology._chain_data(moved)
    cached = len(homology._cache)
    boundaries, _ = homology._chain_data(triangle_boundary)
    assert len(homology._cache) == cached
    assert [triangle_boundary.faces_of_dim(k) for k in (-1, 0, 1)] == [
        [()], [(1,), (2,), (3,)], [(1, 2), (1, 3), (2, 3)]]
    assert moved.faces_of_dim(1) == [("a", "b"), ("a", "c"), ("b", "c")]
    assert boundaries == first


@settings(max_examples=30)
@given(facet_lists, st.permutations(["a", "b", 3, 4, 5, 6, 7]),
       st.sampled_from([QQ, GF2]))
def test_relabelled_homology_matches_cold(fl, images, field):
    # a warm query on a relabelled complex (sharing entries when the
    # relabelling keeps the vertex order) gives the cold answers
    c = build(fl)
    moved = c.relabel(dict(zip(c.vertices, images)))
    faces = [f for f in moved.faces_sorted() if f]

    def answers():
        return (tuple(reduced_betti(moved, field)),
                [tuple(relative_betti_vector(moved, t, field)) for t in faces],
                [top_restriction_surjective(moved, t, field) for t in faces]
                if moved.is_pure else None,
                moved.faces_sorted(), homology._chain_data(moved)[0])

    clear_caches()
    reduced_betti(c, field)
    if c.is_pure:
        for t in c.faces_sorted():
            if t:
                top_restriction_surjective(c, t, field)
    warm = answers()
    clear_caches()
    assert warm == answers()


def test_torsion_betti_matches_smith_normal_form():
    # two mod-3 Moore spaces and a projective plane: Q, F2 and F3 all
    # differ, and no field's ranks come from unit pivots alone
    c = build(TORSION_FACETS)
    clear_caches()
    for field in (QQ, GF2, GF3):
        before = linalg._field_dependence()
        got = tuple(reduced_betti(c, field))
        assert linalg._field_dependence() > before
        assert got == smith_betti(TORSION_FACETS, field.p) == \
            TORSION_BETTI[field.p]


def test_entries_that_depended_on_the_field_are_recorded(octahedron, rp2):
    clear_caches()
    for field in (QQ, GF2):
        before = linalg._field_dependence()
        reduced_betti(octahedron, field)
        assert top_restriction_surjective(octahedron, ("x1",), field)
        assert linalg._field_dependence() == before
        for query in (lambda: reduced_betti(rp2, field),
                      lambda: top_restriction_surjective(rp2, (1,), field)):
            before = linalg._field_dependence()
            query()
            assert linalg._field_dependence() > before
            before = linalg._field_dependence()
            query()  # answered from the cache: the record moves again
            assert linalg._field_dependence() > before
    assert any(type(v) is homology._FieldDependent
               for v in homology._cache.values())
    clear_caches()
    assert not homology._cache


def test_the_record_leaves_with_evicted_entries(monkeypatch, rp2):
    monkeypatch.setattr(homology, "CACHE_LIMIT", 8)
    clear_caches()
    reduced_betti(rp2, QQ)
    key = ("betti", rp2.index_form, QQ)  # the interned field, not its label
    assert type(homology._cache[key]) is homology._FieldDependent
    for n in range(3, 12):
        reduced_betti(simplex(n), QQ)
    assert key not in homology._cache
    assert len(homology._cache) <= 8
    # recomputed, the vector is recorded again
    before = linalg._field_dependence()
    assert tuple(reduced_betti(rp2, QQ)) == (0, 0, 0, 0)
    assert linalg._field_dependence() > before
    assert type(homology._cache[key]) is homology._FieldDependent
    clear_caches()


def test_loaded_betti_vectors_are_recorded(tmp_path, octahedron):
    clear_caches()
    reduced_betti(octahedron, QQ)
    path = tmp_path / "betti.json"
    save_betti_cache(path)
    clear_caches()
    load_betti_cache(path)
    before = linalg._field_dependence()
    assert tuple(reduced_betti(octahedron, QQ)) == (0, 0, 0, 1)
    assert linalg._field_dependence() == before + 1
    clear_caches()


def test_threads_never_hide_a_field_dependent_entry(octahedron, rp2):
    # eight threads share the cache, one of them clearing it: every rp2
    # query must move its own thread's record, from a fallback or from a
    # marked entry another thread stored, and no octahedron query may
    import sys
    from concurrent.futures import ThreadPoolExecutor

    def work(k):
        wrong = 0
        for _ in range(20):
            if k == 0:
                clear_caches()
            for c, dependent in ((rp2, True), (octahedron, False)):
                for query in (lambda: reduced_betti(c, QQ),
                              lambda: top_restriction_surjective(
                                  c, c.vertices[:1], GF2)):
                    before = linalg._field_dependence()
                    query()
                    moved = linalg._field_dependence() != before
                    wrong += moved != dependent
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(work, range(8))) == [0] * 8
    finally:
        sys.setswitchinterval(interval)
    clear_caches()
