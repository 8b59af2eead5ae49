"""Named complexes and combinators: simplices, cross-polytope boundaries,
stacked cross-polytopal spheres, multi-point joins, skeleton-join spheres,
and a registry of curated fixtures with known Betti numbers.

Join-based constructors relabel their factors with factor-index prefixes
so vertex sets are automatically disjoint and output files are
byte-stable.  Connected sums follow a fixed convention (each new copy is
glued along the lexicographically last facet of the running sum with the
color-matching identification); f-vectors are independent of that choice.
"""

from __future__ import annotations

import heapq
import itertools

from .complexes import Complex, LabelCollisionError, Record, as_face, build
from .properties import Coloring


class ConstructionError(Exception):
    """Invalid parameters for a named construction."""


class UnknownFixtureError(LookupError):
    """No fixture registered under the requested name."""


def simplex(j: int) -> Complex:
    """The j-dimensional simplex on vertices 0..j."""
    if j < 0:
        raise ConstructionError("simplex dimension must be >= 0")
    return build([range(j + 1)])


def simplex_boundary(j: int) -> Complex:
    """Boundary complex of the j-simplex (j >= 1)."""
    if j < 1:
        raise ConstructionError("simplex boundary needs dimension >= 1")
    return build(itertools.combinations(range(j + 1), j))


def prefix_relabel(c: Complex, prefix: str) -> Complex:
    """Disjoint-relabel helper: every vertex v becomes f"{prefix}{v}"."""
    return c.relabel({v: f"{prefix}{v}" for v in c.vertices})


def cross_polytope(d: int):
    """Boundary of the d-dimensional cross polytope with its canonical
    coloring: the d-fold join of the pairs {x_c, y_c}, colored by c."""
    if d < 1:
        raise ConstructionError("cross polytope needs d >= 1")
    pairs = [(f"x{c}", f"y{c}") for c in range(1, d + 1)]
    coloring = Coloring({v: c for c, pair in enumerate(pairs, start=1)
                         for v in pair}, d)
    return build(itertools.product(*pairs)), coloring


def multi_point_join_colored(q: int, d: int):
    """d-fold join of q disjoint vertices (q*d vertices, q^d facets)
    together with its coloring by join factor."""
    if q < 1 or d < 1:
        raise ConstructionError("multi-point join needs q >= 1 and d >= 1")
    factors = [[f"c{c}p{i}" for i in range(q)] for c in range(1, d + 1)]
    coloring = Coloring({v: c for c, factor in enumerate(factors, start=1)
                         for v in factor}, d)
    return build(itertools.product(*factors)), coloring


def connected_sum(c1: Complex, f1, c2: Complex, f2, phi: dict,
                  coloring1: Coloring | None = None,
                  coloring2: Coloring | None = None) -> Complex:
    """Identify facet f1 of c1 with facet f2 of c2 through the bijection
    phi (f1 vertex -> f2 vertex), then drop the identified facet.

    When both colorings are supplied, phi must identify vertices of equal
    colors.  The surviving c2 vertices keep their labels and must not
    collide with c1's.
    """
    t1 = as_face(f1)
    t2 = as_face(f2)
    if t1 not in c1.facets:
        raise ConstructionError(f"{t1!r} is not a facet of the first summand")
    if t2 not in c2.facets:
        raise ConstructionError(f"{t2!r} is not a facet of the second summand")
    if len(t1) != len(t2):
        raise ConstructionError("identified facets have different dimensions")
    if set(phi) != set(t1) or set(phi.values()) != set(t2):
        raise ConstructionError("phi is not a bijection between the facets")
    if coloring1 is not None and coloring2 is not None:
        for v in t1:
            if coloring1.assignment[v] != coloring2.assignment[phi[v]]:
                raise ConstructionError(
                    f"colors clash at {v!r} -> {phi[v]!r}")
    survivors = set(c2.vertices) - set(t2)
    collision = survivors & set(c1.vertices)
    if collision:
        raise LabelCollisionError(
            f"summands share non-identified labels: {sorted(collision, key=str)!r}")
    inverse = {w: v for v, w in phi.items()}
    renamed = [tuple(inverse.get(v, v) for v in f) for f in c2.facets]
    gens = [f for f in c1.facets if f != t1]
    gens.extend(g for g in renamed if as_face(g) != t1)
    return build(gens)


class _Last(tuple):
    """A facet ordered backwards, so that heapq pops the last facet."""

    __slots__ = ()

    def __lt__(self, other):
        return tuple.__gt__(self, other)


def stacked_cross_polytopal_sphere(n: int, d: int):
    """Balanced (d-1)-sphere on n vertices: the connected sum of n/d - 1
    copies of the cross-polytope boundary, identifying vertices of equal
    colors.  Each new copy is glued along the lexicographically last facet
    of the running sum, and the sum is built once, at the end.

    Copy t has the vertices s{t}x{c} and s{t}y{c} of color c.  Gluing it
    along a facet F identifies s{t}x{c} with the vertex of F of color c,
    and drops F and the copy's facet of x vertices: its other facets pick,
    for each color, the vertex of F or s{t}y{c}, not F itself."""
    if d < 2:
        raise ConstructionError("stacked cross-polytopal spheres need d >= 2")
    if n % d != 0:
        raise ConstructionError(f"d = {d} does not divide n = {n}")
    if n < 2 * d:
        raise ConstructionError(f"need n >= 2d, got n = {n}, d = {d}")
    copies = n // d - 1
    colors = {f"s1{v}{c}": c for c in range(1, d + 1) for v in "xy"}
    facets = [_Last(as_face(f)) for f in itertools.product(
        *([f"s1x{c}", f"s1y{c}"] for c in range(1, d + 1)))]
    heapq.heapify(facets)
    for t in range(2, copies + 1):
        glue = heapq.heappop(facets)
        by_color = sorted(glue, key=colors.__getitem__)
        ys = [f"s{t}y{c}" for c in range(1, d + 1)]
        colors.update(zip(ys, range(1, d + 1)))
        choices = itertools.product(*zip(by_color, ys))
        next(choices)  # the glue facet itself
        for f in choices:
            heapq.heappush(facets, _Last(as_face(f)))
    running = build(facets)
    coloring = Coloring({v: colors[v] for v in running.vertices}, d)
    coloring.validate(running)
    return running, coloring


def skeleton_join_sphere(m: int, i: int, d: int) -> Complex:
    """Join of simplex skeleta: with d = q*i + r (1 <= r <= i), q factors
    Skel_(i-1) of the (m+i-2)-simplex joined with one factor Skel_(r-1) of
    the (m+r-2)-simplex.  m = 2 gives the boundary-of-simplex joins."""
    if m < 2 or i < 1 or d < 1:
        raise ConstructionError("need m >= 2, i >= 1, d >= 1")
    r = ((d - 1) % i) + 1
    q = (d - r) // i
    factors = [simplex(m + i - 2).skeleton(i - 1) for _ in range(q)]
    factors.append(simplex(m + r - 2).skeleton(r - 1))
    out = prefix_relabel(factors[0], "f1v")
    for t, factor in enumerate(factors[1:], start=2):
        out = out.join(prefix_relabel(factor, f"f{t}v"))
    return out


class Fixture(Record):
    """Curated test complex with frozen expected Betti numbers."""

    # expected_betti: field label -> tuple of values for degrees -1..d-1
    __slots__ = ("name", "complex", "coloring", "expected_betti")


def _hexagon_suspension():
    ring = build([(k, k % 6 + 1) for k in range(1, 7)])
    poles = build([["n"], ["s"]])
    coloring = Coloring({1: 1, 2: 2, 3: 1, 4: 2, 5: 1, 6: 2, "n": 3, "s": 3}, 3)
    return poles.join(ring), coloring


RP2_MIN_FACETS = (
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
)


def _fixture_table() -> dict:
    octa, octa_col = cross_polytope(3)
    k33, k33_col = multi_point_join_colored(3, 2)
    hexsus, hexsus_col = _hexagon_suspension()
    two_octa = build(
        list(prefix_relabel(octa, "a").facets)
        + list(prefix_relabel(octa, "b").facets))
    return {
        "octahedron": Fixture(
            "octahedron", octa, octa_col,
            {"Q": (0, 0, 0, 1), "F2": (0, 0, 0, 1)}),
        "rp2_min": Fixture(
            "rp2_min", build(RP2_MIN_FACETS), None,
            {"Q": (0, 0, 0, 0), "F2": (0, 0, 1, 1)}),
        "bowtie2d": Fixture(
            "bowtie2d", build([(1, 2, 3), (3, 4, 5)]), None,
            {"Q": (0, 0, 0, 0), "F2": (0, 0, 0, 0)}),
        "path2": Fixture(
            "path2", build([(1, 2), (2, 3)]), None,
            {"Q": (0, 0, 0), "F2": (0, 0, 0)}),
        "two_octahedra_disjoint": Fixture(
            "two_octahedra_disjoint", two_octa, None,
            {"Q": (0, 1, 0, 2), "F2": (0, 1, 0, 2)}),
        "two_triangles_disjoint": Fixture(
            "two_triangles_disjoint",
            build([(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]), None,
            {"Q": (0, 1, 2), "F2": (0, 1, 2)}),
        "suspended_hexagon": Fixture(
            "suspended_hexagon", hexsus, hexsus_col,
            {"Q": (0, 0, 0, 1), "F2": (0, 0, 0, 1)}),
        "cone_over_square": Fixture(
            "cone_over_square",
            build([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4)]), None,
            {"Q": (0, 0, 0, 0), "F2": (0, 0, 0, 0)}),
        "single_triangle": Fixture(
            "single_triangle", simplex(2), None,
            {"Q": (0, 0, 0, 0), "F2": (0, 0, 0, 0)}),
        "k33": Fixture(
            "k33", k33, k33_col,
            {"Q": (0, 0, 4), "F2": (0, 0, 4)}),
        "two_disjoint_edges": Fixture(
            "two_disjoint_edges", build([(1, 2), (3, 4)]), None,
            {"Q": (0, 1, 0), "F2": (0, 1, 0)}),
    }


_fixtures: dict = {}


def fixture(name: str) -> Fixture:
    """Full fixture record (complex, optional coloring, expected Betti)."""
    if not _fixtures:
        _fixtures.update(_fixture_table())
    if name not in _fixtures:
        raise UnknownFixtureError(
            f"no fixture is named {name!r}; the fixtures are "
            f"{', '.join(sorted(_fixtures))}")
    return _fixtures[name]


def named(name: str) -> Complex:
    """The fixture complex registered under this name."""
    return fixture(name).complex


def fixture_names() -> list:
    if not _fixtures:
        _fixtures.update(_fixture_table())
    return sorted(_fixtures)
