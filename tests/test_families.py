import pytest

from bstar import (GF2, QQ, Coloring, ConstructionError, LabelCollisionError,
                   UnknownFixtureError, build, connected_sum, cross_polytope,
                   f_vector, fixture, fixture_names, h_vector, is_buchsbaum,
                   is_buchsbaum_star, multi_point_join,
                   multi_point_join_colored, named, prefix_relabel,
                   reduced_betti, simplex, simplex_boundary,
                   skeleton_join_sphere, stacked_cross_polytopal_sphere)

from oracles import check_frozen_record, oracle_betti, oracle_components


def test_simplex_and_boundary():
    assert simplex(0).facets == ((0,),)
    assert simplex_boundary(2).facets == ((0, 1), (0, 2), (1, 2))
    assert f_vector(simplex_boundary(3)) == (1, 4, 6, 4)
    with pytest.raises(ConstructionError):
        simplex(-1)
    with pytest.raises(ConstructionError):
        simplex_boundary(0)


def test_cross_polytope():
    square, col2 = cross_polytope(2)
    assert h_vector(square) == (1, 2, 1)
    octa, col3 = cross_polytope(3)
    assert f_vector(octa) == (1, 6, 12, 8)
    assert h_vector(octa) == (1, 3, 3, 1)
    col3.validate(octa)
    assert len(octa.facets) == 8 and octa.n_vertices == 6


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_cross_polytope_is_two_point_join(d):
    cx, _ = cross_polytope(d)
    mp = multi_point_join(2, d)
    mapping = {}
    for c in range(1, d + 1):
        mapping[f"x{c}"] = f"c{c}p0"
        mapping[f"y{c}"] = f"c{c}p1"
    assert cx.relabel(mapping) == mp


def test_connected_sum_two_triangles_is_square():
    a = simplex_boundary(2)
    b = a.relabel({0: "p", 1: "q", 2: "r"})
    phi = {0: "p", 1: "q"}
    out = connected_sum(a, (0, 1), b, ("p", "q"), phi)
    assert f_vector(out) == (1, 4, 4)
    assert out.dim == 1


def test_connected_sum_octahedra():
    a, col_a = cross_polytope(3)
    b = prefix_relabel(a, "b")
    col_b_assignment = {f"b{v}": c for v, c in col_a.assignment.items()}
    from bstar import Coloring
    col_b = Coloring(col_b_assignment, 3)
    fa = a.facets[-1]
    phi = {v: f"b{v}" for v in fa}
    fb = tuple(sorted((f"b{v}" for v in fa)))
    out = connected_sum(a, fa, b, fb, phi, col_a, col_b)
    assert f_vector(out) == (1, 9, 21, 14)


def test_connected_sum_errors():
    a = simplex_boundary(2)
    b = a.relabel({0: "p", 1: "q", 2: "r"})
    with pytest.raises(ConstructionError):
        connected_sum(a, (0,), b, ("p",), {0: "p"})  # not facets
    c = simplex_boundary(3).relabel({0: "p", 1: "q", 2: "r", 3: "s"})
    with pytest.raises(ConstructionError):
        connected_sum(a, (0, 1), c, ("p", "q", "r"), {0: "p", 1: "q"})
    with pytest.raises(ConstructionError):
        connected_sum(a, (0, 1), b, ("p", "q"), {0: "p"})  # not a bijection
    clash = a.relabel({0: "p", 1: "q", 2: 2})  # surviving vertex 2 collides
    with pytest.raises(LabelCollisionError):
        connected_sum(a, (0, 1), clash, ("p", "q"), {0: "p", 1: "q"})
    from bstar import Coloring
    col1 = Coloring({0: 1, 1: 2, 2: 3}, 3)
    col2 = Coloring({"p": 2, "q": 1, "r": 3}, 3)
    with pytest.raises(ConstructionError):
        connected_sum(a, (0, 1), b, ("p", "q"), {0: "p", 1: "q"}, col1, col2)


def test_scps_single_copy_is_cross_polytope():
    single, coloring = stacked_cross_polytopal_sphere(6, 3)
    octa, _ = cross_polytope(3)
    assert single == prefix_relabel(octa, "s1")
    coloring.validate(single)


def test_scps_counts_and_balance():
    for n, d, expected_h in (((9), 3, (1, 6, 6, 1)),
                             (12, 3, (1, 9, 9, 1)),
                             (12, 4, (1, 8, 12, 8, 1)),
                             (8, 4, (1, 4, 6, 4, 1))):
        cx, coloring = stacked_cross_polytopal_sphere(n, d)
        assert cx.n_vertices == n
        assert cx.is_pure and cx.dim == d - 1
        assert len(oracle_components(cx.facets)) == 1
        assert h_vector(cx) == expected_h
        coloring.validate(cx)


def test_scps_is_buchsbaum_star_sphere():
    cx, _ = stacked_cross_polytopal_sphere(9, 3)
    for f in (QQ, GF2):
        assert is_buchsbaum_star(cx, f).verdict
    assert tuple(reduced_betti(cx, QQ)) == (0, 0, 0, 1)


def _scps_by_connected_sums(n, d):
    """The stacked sphere as n/d - 1 iterated connected sums, each built
    whole: each copy glued along the last facet of the running sum."""
    base, base_coloring = cross_polytope(d)
    running = prefix_relabel(base, "s1")
    colors = {f"s1{v}": c for v, c in base_coloring.assignment.items()}
    for t in range(2, n // d):
        glue = running.facets[-1]
        new = prefix_relabel(base, f"s{t}")
        new_colors = {f"s{t}{v}": c
                      for v, c in base_coloring.assignment.items()}
        by_color = {colors[v]: v for v in glue}
        phi = {by_color[c]: f"s{t}x{c}" for c in range(1, d + 1)}
        running = connected_sum(running, glue, new, sorted(phi.values()), phi,
                                Coloring(colors, d), Coloring(new_colors, d))
        colors.update({f"s{t}y{c}": c for c in range(1, d + 1)})
    return running, {v: colors[v] for v in running.vertices}


@pytest.mark.parametrize("n, d", [(9, 3), (12, 3), (12, 4), (8, 4), (16, 4),
                                  (40, 4), (30, 5), (60, 3), (10, 2)])
def test_scps_equals_iterated_connected_sums(n, d):
    cx, coloring = stacked_cross_polytopal_sphere(n, d)
    reference, colors = _scps_by_connected_sums(n, d)
    assert cx.facets == reference.facets
    assert cx.vertices == reference.vertices
    assert coloring.assignment == colors and coloring.d == d


def test_scps_parameter_validation():
    with pytest.raises(ConstructionError):
        stacked_cross_polytopal_sphere(10, 3)
    with pytest.raises(ConstructionError):
        stacked_cross_polytopal_sphere(3, 3)
    with pytest.raises(ConstructionError):
        stacked_cross_polytopal_sphere(4, 1)


def test_scps_byte_stable():
    a, _ = stacked_cross_polytopal_sphere(9, 3)
    b, _ = stacked_cross_polytopal_sphere(9, 3)
    assert a.facets == b.facets
    assert a.facets[0] == ("s1x1", "s1x2", "s1x3")
    assert a.n_vertices == 9


def test_multi_point_join():
    p23 = multi_point_join(2, 3)
    octa, _ = cross_polytope(3)
    assert f_vector(p23) == f_vector(octa)
    p33, coloring = multi_point_join_colored(3, 3)
    assert f_vector(p33) == (1, 9, 27, 27)
    assert h_vector(p33) == (1, 6, 12, 8)
    coloring.validate(p33)
    assert p33.is_flag
    assert all(len(m) == 2 for m in p33.missing_faces())


def test_skeleton_join_sphere_special_cases():
    # S(2, i, d-1) is the join of simplex boundaries
    s = skeleton_join_sphere(2, 2, 4)
    assert s.n_vertices == 6
    direct = prefix_relabel(simplex_boundary(2), "f1v").join(
        prefix_relabel(simplex_boundary(2), "f2v"))
    assert s == direct
    # S(m, 1, d-1) is the multi-point join P(m, d)
    s312 = skeleton_join_sphere(3, 1, 2)
    p32 = multi_point_join(3, 2)
    mapping = {f"f{t}v{k}": f"c{t}p{k}" for t in (1, 2) for k in range(3)}
    assert s312.relabel(mapping) == p32
    with pytest.raises(ConstructionError):
        skeleton_join_sphere(1, 1, 2)


def test_named_registry(rp2):
    assert f_vector(rp2) == (1, 6, 15, 10)
    assert not is_buchsbaum(named("bowtie2d"), QQ).verdict
    with pytest.raises(UnknownFixtureError):
        named("no_such_complex")
    assert "octahedron" in fixture_names()


def test_fixture_betti_frozen_values_via_oracle():
    for name in fixture_names():
        fx = fixture(name)
        assert tuple(reduced_betti(fx.complex, QQ)) == fx.expected_betti["Q"]
        assert oracle_betti(fx.complex.facets, 2) == fx.expected_betti["F2"]
        if fx.coloring is not None:
            fx.coloring.validate(fx.complex)


def test_fixture_is_a_frozen_record():
    # expected_betti is a dict, so a fixture is unhashable
    fx = fixture("path2")
    check_frozen_record(fx, type(fx)(fx.name, build([(1, 2), (2, 3)]), None,
                                     {"Q": (0, 0, 0), "F2": (0, 0, 0)}),
                        hashable=False)
    assert repr(fx) == ("Fixture(name='path2', complex=Complex([[1, 2], "
                        "[2, 3]]), coloring=None, expected_betti={'Q': (0, 0, 0), "
                        "'F2': (0, 0, 0)})")
