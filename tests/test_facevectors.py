from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bstar import (GF2, QQ, FaceVectors, InvariantError, NotPureError, build,
                   f_from_h, f_vector, h_from_f, h_prime_vector, h_vector,
                   poly_geq, reduced_euler_characteristic, short_simplicial_h,
                   simplex, simplex_boundary, stacked_cross_polytopal_sphere)
from bstar import facevectors

from oracles import check_frozen_record, oracle_h_vector


def test_f_vector_examples(octahedron):
    assert f_vector(octahedron) == (1, 6, 12, 8)
    assert f_vector(simplex_boundary(3)) == (1, 4, 6, 4)
    from bstar import multi_point_join_colored
    assert f_vector(multi_point_join_colored(3, 2)[0]) == (1, 6, 9)


def test_h_vector_examples(octahedron):
    assert h_vector(octahedron) == (1, 3, 3, 1)
    assert h_vector(octahedron) == oracle_h_vector((1, 6, 12, 8))
    st93, _ = stacked_cross_polytopal_sphere(9, 3)
    assert f_vector(st93) == (1, 9, 21, 14)
    assert h_vector(st93) == (1, 6, 6, 1)
    for d in range(1, 6):
        h = h_vector(simplex_boundary(d))
        assert h == (1,) * (d + 1)
        assert h == oracle_h_vector(f_vector(simplex_boundary(d)))


@settings(max_examples=50)
@given(st.lists(st.sets(st.integers(0, 7), min_size=2, max_size=4),
                min_size=1, max_size=8))
def test_f_h_roundtrip(fl):
    c = build(fl)
    f = f_vector(c)
    assert f_from_h(h_from_f(f)) == f
    assert h_from_f(f) == oracle_h_vector(f)


def test_h_prime_examples(octahedron):
    assert h_prime_vector(octahedron, QQ) == h_vector(octahedron)
    two_triangles = build([(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    assert h_vector(two_triangles) == (1, 4, 1)
    assert h_prime_vector(two_triangles, QQ) == (1, 4, 2)
    from bstar import multi_point_join_colored
    k33 = multi_point_join_colored(3, 2)[0]
    assert h_prime_vector(k33, QQ) == (1, 4, 4)
    assert h_prime_vector(k33, GF2) == (1, 4, 4)


def test_h_prime_equals_h_when_low_betti_vanish(octahedron):
    assert h_prime_vector(simplex_boundary(4), QQ) == \
        h_vector(simplex_boundary(4))
    assert h_prime_vector(octahedron, GF2) == h_vector(octahedron)


def test_h_prime_requires_pure():
    nonpure = build([(1, 2, 3), (4, 5)])
    with pytest.raises(NotPureError):
        h_prime_vector(nonpure, QQ)
    with pytest.raises(NotPureError):
        short_simplicial_h(nonpure)


def test_short_simplicial_h(octahedron):
    assert short_simplicial_h(octahedron) == (6, 12, 6)
    h = h_vector(octahedron)
    # the j = 2 instance of the link-sum identity, both sides explicit
    assert short_simplicial_h(octahedron)[1] == 2 * h[2] + 2 * h[1] == 12
    for d in range(1, 5):
        expected = (d + 1,) + (0,) * d
        assert short_simplicial_h(simplex(d)) == expected


def test_short_h_check_raises_on_corrupted_link(monkeypatch, octahedron):
    # the first vertex link's h_0 off by one breaks the j = 1 identity
    real = facevectors.h_vector
    calls = []

    def corrupted(c):
        calls.append(c)
        h = real(c)
        return (h[0] + 1,) + h[1:] if len(calls) == 1 else h

    monkeypatch.setattr(facevectors, "h_vector", corrupted)
    with pytest.raises(InvariantError, match="short-h identity fails at j=1"):
        short_simplicial_h(octahedron)


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_swartz_identity_on_random_pure(seed):
    from bstar import random_pure_complex
    n, dim = 4 + seed % 5, 1 + seed % 3
    fc = min(1 + seed % 4, comb(n, dim + 1))
    c = random_pure_complex(seed, n, dim, fc)
    short = short_simplicial_h(c)  # identity asserted internally too
    h = h_vector(c)
    d = len(h) - 1
    for j in range(1, d + 1):
        assert short[j - 1] == j * h[j] + (d - j + 1) * h[j - 1]


def test_poly_geq():
    assert poly_geq((1, 6, 12, 8), (1, 6, 12, 8))
    assert not poly_geq((1, 3, 3, 1), (1, 3, 4, 1))
    assert poly_geq((1, 2, 1), (1, 2))
    assert not poly_geq((1, 2), (1, 2, 1))


def test_chi_reduced(octahedron, rp2):
    assert reduced_euler_characteristic(octahedron) == 1
    assert reduced_euler_characteristic(rp2) == 0
    assert reduced_euler_characteristic(build([[]])) == -1


def test_face_vectors_record(octahedron):
    fv = FaceVectors.compute(octahedron, QQ)
    assert fv.f == (1, 6, 12, 8)
    assert fv.h == fv.h_prime == (1, 3, 3, 1)
    assert fv.short_h == (6, 12, 6)
    assert fv.chi_reduced == 1
    assert fv.is_pure and fv.field is QQ


def test_face_vectors_nonpure_flagged():
    fv = FaceVectors.compute(build([(1, 2, 3), (4, 5)]), QQ)
    assert not fv.is_pure
    assert fv.h_prime is None and fv.short_h is None
    assert fv.h == h_from_f(fv.f)


def test_face_vectors_are_a_frozen_record(octahedron):
    fv = FaceVectors.compute(octahedron, QQ)
    check_frozen_record(fv, FaceVectors.compute(build(octahedron.facets), QQ))
    assert fv != FaceVectors.compute(octahedron, GF2)
    assert repr(fv) == (
        "FaceVectors(f=(1, 6, 12, 8), h=(1, 3, 3, 1), h_prime=(1, 3, 3, 1), "
        "short_h=(6, 12, 6), chi_reduced=1, is_pure=True, "
        "field=CoefficientField(Q))")
