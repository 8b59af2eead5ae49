"""Independent oracles used to freeze expected values.

Nothing here imports from bstar's computation paths: face enumeration is
redone with itertools, h-numbers come from symbolic polynomial expansion,
ranks/Betti numbers are recomputed with sympy's exact matrices, and the
reduced row echelon form comes from the dense Fraction elimination bstar
used before its integer routine, so agreement with the library is a
genuine dual-route check.

The matrix helpers at the end (identity, transpose, augment, span_dim,
span_contains) are conveniences for the linalg tests, not oracles: they
build on bstar's Matrix and rank.  So is ``check_frozen_record``, which the
record tests share, and so are ``scanned_star``, the scan of every mask
for the faces containing a face, which bstar.homology's stars replaced,
and ``scanned_top_star``, the per-face restriction test that its sweep
replaced, each kept as the reference.
"""

import itertools
import pickle
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from bstar import Matrix, ShapeError, kernel_basis, rank
from bstar.homology import _chain_data


def _key(v):
    return (1, v) if isinstance(v, str) else (0, v)


def downward_closure(facets):
    out = set()
    for f in facets:
        t = tuple(sorted(set(f), key=_key))
        for k in range(len(t) + 1):
            out.update(itertools.combinations(t, k))
    return out


def oracle_maximal_faces(faces):
    """The distinct faces that no other face strictly contains, as sorted
    label tuples in lexicographic order, by comparing every pair of faces
    as frozensets (the rule ``build`` used before it worked on bitmasks)."""
    candidates = {tuple(sorted(f, key=_key)) for f in faces}
    sets = {f: frozenset(f) for f in candidates}
    return sorted((f for f in candidates
                   if not any(sets[f] < sets[g] for g in candidates)),
                  key=lambda f: tuple(_key(v) for v in f))


def oracle_components(facets):
    """The classes of the facets under "shares a vertex with", closed
    transitively; each class keeps the given facet order, and the classes
    are ordered by their first facet."""
    classes = []    # (vertex set, indices of its facets)
    for i, f in enumerate(facets):
        vertices, members = set(f), [i]
        for joined in [c for c in classes if c[0] & vertices]:
            classes.remove(joined)
            vertices |= joined[0]
            members += joined[1]
        classes.append((vertices, members))
    return [[facets[i] for i in sorted(members)]
            for _, members in sorted(classes, key=lambda c: min(c[1]))]


def oracle_f_vector(facets):
    faces = downward_closure(facets)
    top = max(len(f) for f in faces) - 1
    return tuple(sum(1 for f in faces if len(f) == k + 1)
                 for k in range(-1, top + 1))


def oracle_h_vector(f):
    """h-numbers by expanding sum_i f_(i-1) (x-1)^(d-i) symbolically."""
    d = len(f) - 1
    x = sympy.Symbol("x")
    poly = sympy.expand(sum(f[i] * (x - 1) ** (d - i) for i in range(d + 1)))
    return tuple(int(poly.coeff(x, d - j)) for j in range(d + 1))


def oracle_rank(rows, p=None):
    m = sympy.Matrix(rows)
    if p is None:
        return m.rank()
    return DomainMatrix.from_Matrix(m).convert_to(GF(p)).rank()


def oracle_bases(facets):
    """The faces of each degree -1..top in the order of oracle_boundaries."""
    faces = downward_closure(facets)
    top = max(len(f) for f in faces) - 1
    return {k: sorted((f for f in faces if len(f) == k + 1),
                      key=lambda f: tuple(_key(v) for v in f))
            for k in range(-1, top + 1)}


def oracle_boundaries(facets):
    """Signed boundary matrices of the reduced chain complex, as row lists,
    indexed by degree 0..top."""
    by_dim = oracle_bases(facets)
    top = max(by_dim)
    out = []
    for degree in range(0, top + 1):
        rows_idx = {f: i for i, f in enumerate(by_dim[degree - 1])}
        mat = [[0] * len(by_dim[degree]) for _ in by_dim[degree - 1]]
        for j, face in enumerate(by_dim[degree]):
            for drop in range(len(face)):
                sub = face[:drop] + face[drop + 1:]
                mat[rows_idx[sub]][j] = (-1) ** drop
        out.append(mat)
    return out


def oracle_betti(facets, p=None):
    """Reduced Betti numbers for degrees -1..top via sympy ranks."""
    faces = downward_closure(facets)
    top = max(len(f) for f in faces) - 1
    if top == -1:
        return (1,)
    counts = [sum(1 for f in faces if len(f) == k + 1)
              for k in range(-1, top + 1)]
    boundaries = oracle_boundaries(facets)
    ranks = []
    for b in boundaries:
        if not b or not b[0]:
            ranks.append(0)
        else:
            ranks.append(oracle_rank(b, p))
    values = []
    for degree in range(-1, top + 1):
        r_out = ranks[degree] if 0 <= degree < len(ranks) else 0
        r_in = ranks[degree + 1] if degree + 1 < len(ranks) else 0
        values.append(counts[degree + 1] - r_out - r_in)
    return tuple(values)


def smith_betti(facets, p=None):
    """Reduced Betti numbers for degrees -1..top over Q (p None) or F_p,
    from sympy's integral Smith normal forms of the boundary matrices: a
    rank over Q counts the non-zero invariant factors, over F_p those
    that p does not divide."""
    bases = oracle_bases(facets)
    ranks = {}
    for degree, b in enumerate(oracle_boundaries(facets)):
        if not b or not b[0]:
            ranks[degree] = 0
            continue
        snf = smith_normal_form(sympy.Matrix(b), domain=sympy.ZZ)
        factors = [snf[i, i] for i in range(min(snf.shape))]
        ranks[degree] = sum(1 for d in factors
                            if d != 0 and (p is None or d % p != 0))
    return tuple(len(bases[degree]) - ranks.get(degree, 0)
                 - ranks.get(degree + 1, 0) for degree in sorted(bases))


def wrapped_disk(k, prefix):
    """Facets of a disk whose boundary wraps k >= 2 times around the
    triangle on {prefix}a, {prefix}b, {prefix}c: a mod-k Moore space, with
    integral H_1 = Z/k and H_2 = 0 (k = 2 is a projective plane).  The
    boundary 3k-gon, its vertices labelled a, b, c in turn, is joined to
    an inner 3k-cycle of new vertices, which is coned off."""
    n = 3 * k
    outer = [f"{prefix}{'abc'[i % 3]}" for i in range(n)]
    inner = [f"{prefix}w{i}" for i in range(n)]
    facets = []
    for i in range(n):
        j = (i + 1) % n
        facets += [(outer[i], outer[j], inner[i]),
                   (outer[j], inner[i], inner[j]),
                   (inner[i], inner[j], f"{prefix}z")]
    return facets


# Two mod-3 Moore spaces and a projective plane, disjoint: integral H_0 is
# Z^2 (reduced), H_1 = Z/3 + Z/3 + Z/2, so Q, F2 and F3 all differ.
TORSION_FACETS = (wrapped_disk(3, "a") + wrapped_disk(3, "b")
                  + wrapped_disk(2, "c"))
TORSION_BETTI = {None: (0, 2, 0, 0), 2: (0, 2, 1, 1), 3: (0, 2, 2, 2)}


def barycentric_subdivision(facets):
    """The facets of the barycentric subdivision sd(Delta) of the complex
    with these facets, and its colouring as {vertex: colour}.  sd(Delta)
    has a vertex per non-empty face of Delta, here the face's index in
    (size, sorted) order, and a facet per maximal chain of faces under
    inclusion.  Colouring each vertex by the size of its face makes
    sd(Delta) balanced; it is homeomorphic to Delta."""
    faces = sorted((f for f in downward_closure(facets) if f),
                   key=lambda f: (len(f), [_key(v) for v in f]))
    index = {frozenset(f): i for i, f in enumerate(faces)}
    chains = {tuple(sorted(index[frozenset(order[:k])]
                           for k in range(1, len(order) + 1)))
              for facet in facets for order in itertools.permutations(facet)}
    return sorted(chains), {i: len(f) for i, f in enumerate(faces)}


def oracle_cm_violation(facets, p=None):
    """The first face sigma, in (dimension, lexicographic) order, whose
    link has non-zero reduced homology below the link's dimension, with
    the lowest such degree, as (sigma, degree); None for a Cohen-Macaulay
    complex.  This is the plain scan: every link is rebuilt from the
    facets and its homology recomputed with sympy, nothing shared."""
    faces = downward_closure(facets)
    for sigma in sorted(faces, key=lambda f: (len(f), [_key(v) for v in f])):
        link = [[v for v in f if v not in sigma]
                for f in facets if set(sigma) <= set(f)]
        betti = oracle_betti(link, p)
        bad = next((i for i in range(-1, len(betti) - 2) if betti[i + 1]),
                   None)
        if bad is not None:
            return sigma, bad
    return None


def oracle_manifold_violation(facets, p=None):
    """The homology-manifold scan that bstar's vertex-link loop replaced:
    ("not_pure", (a shortest facet, a longest facet)) for facets of mixed
    sizes, taken in the given order; otherwise ("link_sphere", (sigma, i))
    for the first non-empty face sigma, in (dimension, lexicographic)
    order, whose link's reduced Betti numbers differ from a sphere's of
    the link's dimension, with the lowest such degree i; None for a
    homology manifold.  Every link is rebuilt from the facets and its
    homology recomputed with sympy."""
    by_len = sorted(facets, key=len)
    if len(by_len[0]) != len(by_len[-1]):
        return "not_pure", (tuple(by_len[0]), tuple(by_len[-1]))
    faces = downward_closure(facets)
    for sigma in sorted(faces, key=lambda f: (len(f), [_key(v) for v in f])):
        if not sigma:
            continue
        link = [[v for v in f if v not in sigma]
                for f in facets if set(sigma) <= set(f)]
        betti = oracle_betti(link, p)
        top = len(betti) - 2
        bad = next((i for i in range(-1, top + 1)
                    if betti[i + 1] != (1 if i == top else 0)), None)
        if bad is not None:
            return "link_sphere", (sigma, bad)
    return None


def oracle_restriction_surjective(facets, sigma, tau, p=None):
    """Whether H_top(Delta, cost sigma) -> H_top(Delta, cost tau) is onto,
    for a pure complex and faces sigma within tau (sigma empty: absolute
    top homology), by rank-nullity.  With F_x the facets and R_x the
    ridges containing x and B the top boundary, relative top homology at
    x is ker B[R_x, F_x] and the map projects onto F_tau; the map is onto
    iff nullity B[R_s, F_s] - nullity B[R_s, F_s - F_t] = nullity B[R_t, F_t].
    """
    bases = oracle_bases(facets)
    top = max(bases)
    boundary = oracle_boundaries(facets)[top]

    def containing(x, faces):
        return [i for i, f in enumerate(faces) if set(x) <= set(f)]

    def nullity(rows, cols):
        if not cols or not rows:
            return len(cols)
        return len(cols) - oracle_rank(
            [[boundary[r][c] for c in cols] for r in rows], p)

    f_s, f_t = containing(sigma, bases[top]), containing(tau, bases[top])
    r_s, r_t = containing(sigma, bases[top - 1]), containing(tau, bases[top - 1])
    image = nullity(r_s, f_s) - nullity(r_s, [i for i in f_s if i not in f_t])
    return image == nullity(r_t, f_t)


class _Field:
    """Element arithmetic of Q (p None: Fractions) or F_p (ints in [0, p))."""

    def __init__(self, p=None):
        self.p = p

    def convert(self, x):
        if self.p is None:
            return x if isinstance(x, Fraction) else Fraction(x)
        p = self.p
        if isinstance(x, Fraction):
            den = x.denominator % p
            if den == 0:
                raise ZeroDivisionError(
                    f"denominator of {x} vanishes in F_{p}")
            return x.numerator * pow(den, -1, p) % p
        return x % p

    def is_zero(self, a):
        return a == 0

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            return Fraction(1) / a
        return pow(a, -1, self.p)


def oracle_rref(rows, ncols, p=None):
    """(pivots, reduced rows) by dense Gauss-Jordan elimination with field
    elements: Fractions over Q (p None), ints mod p over F_p."""
    field = _Field(p)
    rows = [[field.convert(v) for v in row] for row in rows]
    nrows = len(rows)
    pivots = []
    pr = 0
    for col in range(ncols):
        if pr == nrows:
            break
        piv = None
        for r in range(pr, nrows):
            if not field.is_zero(rows[r][col]):
                piv = r
                break
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = field.inv(rows[pr][col])
        rows[pr] = [field.mul(inv, x) for x in rows[pr]]
        prow = rows[pr]
        for r in range(nrows):
            if r != pr:
                f = rows[r][col]
                if not field.is_zero(f):
                    rows[r] = [field.sub(a, field.mul(f, b))
                               for a, b in zip(rows[r], prow)]
        pivots.append(col)
        pr += 1
    return pivots, rows


def oracle_kernel_basis(rows, ncols, p=None):
    """Non-zero entries {(row, col): value} of the canonical null-space
    basis read off the oracle RREF: column k is 1 at the k-th free column."""
    field = _Field(p)
    pivots, reduced = oracle_rref(rows, ncols, p)
    free = [c for c in range(ncols) if c not in pivots]
    entries = {}
    for k, fc in enumerate(free):
        entries[(fc, k)] = field.convert(1)
        for r, pc in enumerate(pivots):
            v = reduced[r][fc]
            if not field.is_zero(v):
                entries[(pc, k)] = field.neg(v)
    return entries


def sympy_kernel_basis(rows, ncols, p=None):
    """Non-zero entries {(row, col): value} of the canonical null-space
    basis read off sympy's RREF over Q (Fraction values) or F_p (ints in
    [0, p)): column k is 1 at the k-th free column, 0 at the other free
    columns and minus the RREF entry at each pivot column."""
    domain = sympy.QQ if p is None else GF(p)
    m = DomainMatrix.from_Matrix(sympy.Matrix(rows)).convert_to(domain)
    reduced, pivots = m.rref()
    reduced = reduced.to_Matrix()
    free = [c for c in range(ncols) if c not in pivots]
    entries = {}
    for k, fc in enumerate(free):
        entries[(fc, k)] = 1
        for r, pc in enumerate(pivots):
            entries[(pc, k)] = -reduced[r, fc]
    out = {}
    for key, v in entries.items():
        v = sympy.Rational(v)
        value = Fraction(int(v.p), int(v.q)) if p is None else int(v) % p
        if value:
            out[key] = value
    return out


# -- matrix helpers used only by the tests -----------------------------------

def dense_rows(m):
    """The rows of m as lists, zeros included."""
    return [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)]


def identity(n):
    return Matrix(n, n, {(i, i): 1 for i in range(n)})


def transpose(m):
    return Matrix(m.ncols, m.nrows,
                  {(j, i): v for (i, j), v in m.entries.items()})


def augment(m, column):
    """m with the given column appended on the right."""
    if len(column) != m.nrows:
        raise ShapeError(f"column of length {len(column)} vs {m.nrows} rows")
    entries = dict(m.entries)
    entries.update({(i, m.ncols): v for i, v in enumerate(column) if v != 0})
    return Matrix(m.nrows, m.ncols + 1, entries)


def span_dim(vectors, field):
    """Dimension of the column span."""
    return rank(vectors, field)


def span_contains(vectors, v, field):
    """Exact membership of a vector in the column span."""
    col = list(v)
    if len(col) != vectors.nrows:
        raise ShapeError(
            f"vector of length {len(col)} vs {vectors.nrows} rows")
    return rank(vectors, field) == rank(augment(vectors, col), field)


def check_frozen_record(record, twin, hashable=True):
    """record equals its separately built twin (with an equal hash when
    hashable, else hash raises TypeError), survives a pickle round trip,
    and refuses assignment and deletion of a field."""
    assert record == twin and not record != twin and record is not twin
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)
    name = record.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == getattr(twin, name)


def scanned_star(c, face):
    """Per degree |face|-1 .. dim, the basis indices of the faces of c
    containing the face, each degree scanned from every mask."""
    _, masks = _chain_data(c)
    t = c.vertex_mask(face)
    return {k - 1: [i for i, m in enumerate(masks[k]) if m & t == t]
            for k in range(t.bit_count(), len(masks))}


def scanned_top_star(c, face, field):
    """The restriction test at a non-empty face of a pure complex as it
    was computed one face at a time: with the ridges and the facets
    containing the face scanned from every mask, dim Z by rank-nullity
    from the rank of those whole ridge rows of the top boundary, and
    whether the projected top cycle basis has that rank."""
    top = _chain_data(c)[0][-1]
    star = scanned_star(c, face)
    facets = star[c.dim]
    z_dim = len(facets) - rank(top.take_rows(star.get(c.dim - 1, [])), field)
    cycles = kernel_basis(top, field)   # rows keyed by facet basis index
    onto = z_dim == 0 or rank(cycles.take_rows(facets), field) == z_dim
    return z_dim, onto
