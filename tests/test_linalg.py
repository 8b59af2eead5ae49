import threading
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bstar import (GF, GF2, GF3, QQ, CoefficientField, InvariantError,
                   Matrix, ShapeError, corpus, kernel_basis, rank)
from bstar import homology, linalg
from bstar.linalg import product_is_zero

from oracles import (dense_rows, identity, oracle_kernel_basis, oracle_rank,
                     oracle_rref, span_contains, span_dim, sympy_kernel_basis,
                     transpose)

FIELDS = ((QQ, None), (GF2, 2), (GF3, 3), (GF(5), 5))

# Signed vertex-edge incidence of the triangle boundary (edges 12, 13, 23).
TRIANGLE_D1 = Matrix.from_rows([
    [-1, -1, 0],
    [1, 0, -1],
    [0, 1, 1],
])

def _divided(rows, p):
    """Echelon rows divided by their pivot entries: Fractions over Q (p
    None), residues in [1, p) over F_p."""
    if p is None:
        return {lead: {j: Fraction(v, row[lead]) for j, v in row.items()}
                for lead, row in rows.items()}
    out = {}
    for lead, row in rows.items():
        inv = pow(row[lead], -1, p)
        out[lead] = {j: r for j, v in row.items() if (r := v * inv % p)}
    return out


def _rref(m, field):
    """{pivot: RREF row} of m over the field, from the echelon rows that
    kernel_basis reduces."""
    return _divided(linalg._echelon(m, field, True), field.p)


def assert_kernel_is_canonical(k, canonical, p):
    """k has int entries, and its columns are those of the canonical
    null-space basis ({(row, col): value}, Fractions over Q, residues over
    F_p): over Q each times the lcm of its denominators, over F_p mod p."""
    assert all(type(v) is int for v in k.entries.values())
    if p is not None:
        assert {key: r for key, v in k.entries.items() if (r := v % p)} \
            == canonical
        return
    den = {}
    for (_, col), v in canonical.items():
        den[col] = lcm(den.get(col, 1), Fraction(v).denominator)
    assert k.entries == {(i, col): int(v * den[col])
                         for (i, col), v in canonical.items()}


int_matrices = st.lists(
    st.lists(st.integers(-4, 4), min_size=1, max_size=6),
    min_size=1, max_size=6,
).filter(lambda rows: len({len(r) for r in rows}) == 1).map(Matrix.from_rows)


def test_field_construction_and_interning():
    assert CoefficientField.prime(2) is GF2
    assert CoefficientField.rationals() is QQ
    assert GF(5).label == "F5"
    assert QQ.label == "Q"
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)


def test_entries_must_be_ints():
    # zero values too: the type is checked before zeros are dropped
    for value in (Fraction(1, 2), Fraction(3), Fraction(0), 1.0, 0.0, True,
                  False):
        with pytest.raises(TypeError, match="not an int"):
            Matrix(2, 2, {(0, 0): 1, (1, 1): value})
        with pytest.raises(TypeError, match="not an int"):
            Matrix.from_rows([[1, 0], [0, value]])


def test_rank_identity_and_scalars():
    for n in (1, 3, 5):
        assert rank(identity(n), QQ) == n
        assert rank(identity(n), GF2) == n
    two = Matrix.from_rows([[2]])
    assert rank(two, QQ) == 1
    assert rank(two, GF2) == 0
    assert rank(two, GF3) == 1


def test_rank_of_triangle_boundary_matrix():
    # hand elimination gives 2; the F_2 reduction also has rank 2
    assert rank(TRIANGLE_D1, QQ) == 2
    assert rank(TRIANGLE_D1, GF2) == 2
    assert oracle_rank(dense_rows(TRIANGLE_D1)) == 2
    assert oracle_rank(dense_rows(TRIANGLE_D1), 2) == 2


def test_kernel_of_zero_and_injective():
    assert kernel_basis(Matrix(4, 4), QQ).ncols == 4
    inj = Matrix.from_rows([[1, 0], [0, 1], [3, 5]])
    assert kernel_basis(inj, QQ).ncols == 0


def test_kernel_of_triangle_boundary():
    k = kernel_basis(TRIANGLE_D1, QQ)
    assert k.ncols == 1
    assert product_is_zero(TRIANGLE_D1, k, QQ)
    fundamental = [abs(v) for v in k.column(0)]
    assert fundamental == [1, 1, 1]


def test_span_dim_and_contains():
    vs = Matrix.from_rows([[1, 1], [0, 1], [0, 0]])  # e1, e1+e2
    assert span_dim(vs, QQ) == 2
    e1_only = Matrix.from_rows([[1], [0], [0]])
    assert not span_contains(e1_only, [0, 1, 0], QQ)
    assert span_contains(e1_only, [5, 0, 0], QQ)
    # three dependent vectors in a rank-2 configuration: the triangle boundary
    assert span_dim(TRIANGLE_D1, QQ) == 2
    with pytest.raises(ShapeError):
        span_contains(e1_only, [1, 0], QQ)


@given(int_matrices)
def test_rank_equals_transpose_rank(m):
    for f in (QQ, GF2, GF3):
        assert rank(m, f) == rank(transpose(m), f)


@given(int_matrices)
def test_rank_matches_sympy(m):
    assert rank(m, QQ) == oracle_rank(dense_rows(m))
    assert rank(m, GF2) == oracle_rank(dense_rows(m), 2)
    assert rank(m, GF3) == oracle_rank(dense_rows(m), 3)


# 1xn, nx1 (1x1 included) and 0-size matrices, which rank answers
# without elimination, with zeros, units and entries that vanish mod p.
thin_matrices = st.integers(0, 6).flatmap(
    lambda n: st.sampled_from([(1, n), (n, 1), (0, n), (n, 0)])).flatmap(
    lambda shape: st.lists(
        st.one_of(st.just(0), st.integers(-6, 6),
                  st.sampled_from([2, -3, 10, 15, 30, -30])),
        min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
        lambda values: Matrix(*shape, {divmod(k, shape[1]): v
                                       for k, v in enumerate(values)})))


@given(thin_matrices)
def test_thin_rank_matches_sympy(m):
    assert m.nrows <= 1 or m.ncols <= 1
    for field, p in FIELDS:
        assert rank(m, field) == oracle_rank(dense_rows(m), p)


@given(int_matrices)
def test_prime_rank_bounded_by_rational_rank(m):
    rq = rank(m, QQ)
    assert rank(m, GF2) <= rq
    assert rank(m, GF3) <= rq


@given(int_matrices)
def test_rank_nullity_and_kernel_annihilation(m):
    for f in (QQ, GF3):
        k = kernel_basis(m, f)
        assert rank(m, f) + k.ncols == m.ncols
        assert product_is_zero(m, k, f)


def scaled_to_ints(rows):
    """Each row times the lcm of its entries' denominators, as ints."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(v).denominator for v in row))
        out.append([int(v * den) for v in row])
    return out


# Rational rows of any shape, 0xn and nx0 included, mostly zeros so that
# all-zero rows, columns and matrices come up often.  The tests scale
# them to ints, which brings non-unit pivots and entries that vanish mod
# p.
fraction_rows = st.integers(0, 6).flatmap(
    lambda nrows: st.integers(0, 6).flatmap(
        lambda ncols: st.tuples(st.just(ncols), st.lists(
            st.lists(st.one_of(st.just(0), st.integers(-3, 3),
                               st.fractions(max_denominator=6)),
                     min_size=ncols, max_size=ncols),
            min_size=nrows, max_size=nrows))))


# (nrows, ncols, entries) with zeros included, so that empty rows come up.
entry_dicts = st.integers(0, 6).flatmap(
    lambda nrows: st.integers(0, 6).flatmap(
        lambda ncols: st.tuples(
            st.just(nrows), st.just(ncols),
            st.dictionaries(
                st.tuples(st.integers(0, max(nrows - 1, 0)),
                          st.integers(0, max(ncols - 1, 0))),
                st.one_of(st.just(0), st.integers(-3, 3),
                          st.integers(-60, 60)),
                max_size=nrows * ncols))))


@given(entry_dicts, st.data())
def test_row_storage_matches_entry_reference(shape_entries, data):
    nrows, ncols, entries = shape_entries
    ref = {key: v for key, v in entries.items() if v != 0}
    m = Matrix(nrows, ncols, entries)
    assert m.entries == ref
    assert all(row for row in m.rows.values())
    with pytest.raises(TypeError):
        m.entries[(0, 0)] = 1
    row_idx = data.draw(st.permutations(range(nrows)))[
        :data.draw(st.integers(0, nrows))]
    col_idx = data.draw(st.permutations(range(ncols)))[
        :data.draw(st.integers(0, ncols))]
    sub = m.submatrix(row_idx, col_idx)
    assert (sub.nrows, sub.ncols) == (len(row_idx), len(col_idx))
    assert sub.entries == {
        (a, b): ref[(r, c)] for a, r in enumerate(row_idx)
        for b, c in enumerate(col_idx) if (r, c) in ref}
    taken = m.take_rows(row_idx)
    assert (taken.nrows, taken.ncols) == (len(row_idx), ncols)
    assert taken.entries == {(a, c): v for a, r in enumerate(row_idx)
                             for (i, c), v in ref.items() if i == r}
    assert all(taken.rows[a] is m.rows[r]
               for a, r in enumerate(row_idx) if r in m.rows)


@given(entry_dicts)
def test_elimination_leaves_input_rows_unchanged(shape_entries):
    nrows, ncols, entries = shape_entries
    m = Matrix(nrows, ncols, entries)
    for matrix in (m, m.take_rows(range(nrows - 1, -1, -1))):
        before = {i: (row, dict(row)) for i, row in matrix.rows.items()}
        for field in (QQ, GF2, GF3):
            for routine in (rank, _rref, kernel_basis):
                routine(matrix, field)
                assert matrix.rows.keys() == before.keys()
                assert all(matrix.rows[i] is row and row == copy
                           for i, (row, copy) in before.items())


def assert_matches_oracle(m, field, p):
    """rank, the RREF rows and kernel_basis agree exactly with the
    Fraction RREF oracle, and the rank with sympy."""
    pivots, reduced = oracle_rref(dense_rows(m), m.ncols, p)
    expected = {pivot: {j: v for j, v in enumerate(row) if v != 0}
                for pivot, row in zip(pivots, reduced)}
    got = _rref(m, field)
    assert sorted(got) == pivots
    assert got == expected
    k = kernel_basis(m, field)
    assert (k.nrows, k.ncols) == (m.ncols, m.ncols - len(pivots))
    assert_kernel_is_canonical(
        k, oracle_kernel_basis(dense_rows(m), m.ncols, p), p)
    assert rank(m, field) == len(pivots)
    if m.nrows and m.ncols:
        assert oracle_rank(dense_rows(m), p) == len(pivots)


@given(fraction_rows)
def test_rref_and_kernel_match_fraction_oracle(ncols_rows):
    ncols, rows = ncols_rows
    m = Matrix(len(rows), ncols, {
        (i, j): v for i, row in enumerate(scaled_to_ints(rows))
        for j, v in enumerate(row)})
    for field, p in FIELDS:
        assert_matches_oracle(m, field, p)
    # a rational matrix has the RREF of its rows scaled to integers
    pivots, reduced = oracle_rref(rows, ncols)
    assert _rref(m, QQ) == {pivot: {j: v for j, v in enumerate(row) if v}
                            for pivot, row in zip(pivots, reduced)}


def test_corpus_boundaries_match_fraction_oracle():
    for entry in corpus():
        if entry.complex.is_void:
            continue
        for b in homology._chain_data(entry.complex)[0]:
            for field, p in FIELDS:
                assert_matches_oracle(b, field, p)


def test_rank_deterministic():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    results = {rank(m, QQ) for _ in range(5)}
    assert results == {2}


def test_sparse_and_degenerate_shapes():
    for field, _ in FIELDS:
        assert rank(Matrix(10, 10, {(0, 0): 1}), field) == 1
        assert rank(Matrix.from_rows([[1, 2], [3, 4]]), field) == (
            1 if field is GF2 else 2)
        for nrows, ncols in ((0, 3), (3, 0), (0, 0), (2, 3)):
            zero = Matrix(nrows, ncols)
            assert rank(zero, field) == 0
            assert _rref(zero, field) == {}
            assert kernel_basis(zero, field) == Matrix(
                ncols, ncols, {(j, j): 1 for j in range(ncols)})


def _corrupt_each_path(monkeypatch, rows):
    """Patch the elimination to return rows on unit pivots over the
    integers, then on the fallback over the field (with unit pivots always
    failing); yield between."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_eliminated",
                      lambda _, p, reduced: rows if p == 0 else None)
        yield "unit pivots"
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_eliminated",
                      lambda _, p, reduced: None if p == 0 else rows)
        yield "fallback"


def test_kernel_basis_checks_rank_plus_nullity(monkeypatch):
    # an echelon form claiming a pivot beyond the last column
    for _ in _corrupt_each_path(monkeypatch, {0: {0: 1}, 5: {5: 1}}):
        with pytest.raises(InvariantError, match="nullity"):
            kernel_basis(Matrix.from_rows([[1, 0]]), QQ)


def test_kernel_basis_checks_annihilation(monkeypatch):
    # the RREF of TRIANGLE_D1 is [[1, 0, -1], [0, 1, 1]]; corrupt one entry
    for _ in _corrupt_each_path(monkeypatch, {0: {0: 1, 2: -1},
                                                 1: {1: 1, 2: 2}}):
        for field in (QQ, GF3):
            with pytest.raises(InvariantError, match="annihilated"):
                kernel_basis(TRIANGLE_D1, field)


# Entries -2..2: unit pivots finish on some of these matrices and fall
# back to elimination over the field on others.
small_int_matrices = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(st.lists(st.integers(-2, 2), min_size=ncols,
                                    max_size=ncols),
                           min_size=1, max_size=6)).map(Matrix.from_rows)


@given(small_int_matrices)
def test_rank_and_kernel_match_sympy_on_both_paths(m):
    rows = dense_rows(m)
    kernels = []
    for field, p in FIELDS:
        assert rank(m, field) == oracle_rank(rows, p)
        k = kernel_basis(m, field)
        assert_kernel_is_canonical(k, sympy_kernel_basis(rows, m.ncols, p), p)
        kernels.append(k)
        # the shared elimination gives the RREF of the fallback alone
        fallback = linalg._eliminated(
            linalg._residues(m.rows, p) if p else m.rows, p, True)
        assert _divided(linalg._echelon(m, field, True), p) == \
            _divided(fallback, p)
    # when unit pivots finish, one int kernel serves every field
    if linalg._eliminated(m.rows, 0, True) is not None:
        assert all(k == kernels[0] for k in kernels)


def test_fallbacks_move_the_field_dependence_counter():
    unimodular = Matrix.from_rows([[2, 1], [1, 0]])
    field_free = (TRIANGLE_D1, unimodular.take_rows([1, 0]),
                  Matrix.from_rows([[0, -1, 2]]), Matrix(3, 1), Matrix(1, 1))
    dependent = (Matrix.from_rows([[1, 1], [1, -1]]),  # rank 1 over F2
                 unimodular,  # its first pivot would be 2
                 Matrix.from_rows([[0, 2, -2]]),
                 Matrix.from_rows([[7, 1], [0, 1]]))  # its first pivot is 7
    for field, _ in FIELDS:
        for m in field_free:
            before = linalg._field_dependence()
            rank(m, field)
            kernel_basis(m, field)
            assert linalg._field_dependence() == before, m
        for m in dependent:
            for routine in (rank, kernel_basis):
                before = linalg._field_dependence()
                routine(m, field)
                assert linalg._field_dependence() == before + 1, m


def test_field_dependence_is_counted_per_thread():
    torsion = Matrix.from_rows([[1, 1], [1, -1]])
    moved = []

    def work():
        start = linalg._field_dependence()
        rank(torsion, QQ)
        moved.append(linalg._field_dependence() - start)

    before = linalg._field_dependence()
    worker = threading.Thread(target=work)
    worker.start()
    worker.join()
    assert moved == [1]
    assert linalg._field_dependence() == before


def test_product_is_zero_over_fields():
    a = Matrix.from_rows([[3, 1]])
    assert product_is_zero(a, Matrix.from_rows([[1], [-3]]), QQ)
    assert not product_is_zero(a, Matrix.from_rows([[1], [3]]), QQ)
    assert product_is_zero(Matrix.from_rows([[1, 1]]),
                           Matrix.from_rows([[1], [1]]), GF2)
    assert not product_is_zero(Matrix.from_rows([[1, 1]]),
                               Matrix.from_rows([[1], [1]]), GF3)
    with pytest.raises(ShapeError):
        product_is_zero(a, a, QQ)


def test_rref_is_canonical():
    m = Matrix.from_rows([[2, 4], [1, 2]])
    assert oracle_rref(dense_rows(m), m.ncols) == ([0], [[1, 2], [0, 0]])
    assert _rref(m, QQ) == {0: {0: 1, 1: 2}}


def test_matmul_and_shape_errors():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[1], [1]])
    assert dense_rows(a.matmul(b)) == [[3], [7]]
    with pytest.raises(ShapeError):
        b.matmul(a)


def test_exact_rank_of_hilbert_like_matrix():
    # badly conditioned for floats; exact arithmetic sees full rank.  Each
    # row is scaled by the lcm of its denominators, which keeps the rank.
    n = 6
    hilbert = Matrix.from_rows(scaled_to_ints(
        [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]))
    assert rank(hilbert, QQ) == n
    k = kernel_basis(hilbert, QQ)
    assert k.ncols == 0
