import threading
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bstar import (GF, GF2, GF3, QQ, CoefficientField, InvariantError,
                   Matrix, ShapeError, corpus, kernel_basis, rank, rref)
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


def test_field_conversion():
    assert QQ.convert(3) == Fraction(3)
    assert GF3.convert(-1) == 2
    assert GF3.convert(Fraction(1, 2)) == 2  # 1/2 = 2 in F_3
    with pytest.raises(ZeroDivisionError):
        GF2.convert(Fraction(1, 2))


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
# without elimination, with int and Fraction entries and zeros.
thin_matrices = st.integers(0, 6).flatmap(
    lambda n: st.sampled_from([(1, n), (n, 1), (0, n), (n, 0)])).flatmap(
    lambda shape: st.lists(
        st.one_of(st.just(0), st.integers(-6, 6),
                  st.fractions(max_denominator=10)),
        min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
        lambda values: Matrix(*shape, {divmod(k, shape[1]): v
                                       for k, v in enumerate(values)})))


@given(thin_matrices)
def test_thin_rank_matches_sympy(m):
    assert m.nrows <= 1 or m.ncols <= 1
    values = list(m.entries.values())
    for field, p in FIELDS:
        if p is not None and any(Fraction(v).denominator % p == 0
                                 for v in values):
            with pytest.raises(ZeroDivisionError):
                rank(m, field)
            continue
        # Scaling by the common denominator keeps the rank here, since
        # every denominator is invertible in the field.
        den = lcm(*(Fraction(v).denominator for v in values))
        scaled = [[int(v * den) for v in row] for row in dense_rows(m)]
        assert rank(m, field) == oracle_rank(scaled, p)


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


# Fraction matrices of any shape, 0xn and nx0 included, mostly zeros so
# that all-zero rows, columns and matrices come up often.
fraction_matrices = st.integers(0, 6).flatmap(
    lambda nrows: st.integers(0, 6).flatmap(
        lambda ncols: st.lists(
            st.lists(st.one_of(st.just(0), st.integers(-3, 3),
                               st.fractions(max_denominator=6)),
                     min_size=ncols, max_size=ncols),
            min_size=nrows, max_size=nrows).map(
                lambda rows: Matrix(nrows, ncols, {
                    (i, j): Fraction(v) for i, row in enumerate(rows)
                    for j, v in enumerate(row) if v != 0}))))


# (nrows, ncols, entries) with int and Fraction values, zeros included,
# so that all-int rows, Fraction rows and empty rows all come up.
entry_dicts = st.integers(0, 6).flatmap(
    lambda nrows: st.integers(0, 6).flatmap(
        lambda ncols: st.tuples(
            st.just(nrows), st.just(ncols),
            st.dictionaries(
                st.tuples(st.integers(0, max(nrows - 1, 0)),
                          st.integers(0, max(ncols - 1, 0))),
                st.one_of(st.just(0), st.integers(-3, 3),
                          st.fractions(max_denominator=6)),
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
            for routine in (rank, rref, kernel_basis):
                try:
                    routine(matrix, field)
                except ZeroDivisionError:  # a denominator vanishes mod p
                    pass
                assert matrix.rows.keys() == before.keys()
                assert all(matrix.rows[i] is row and row == copy
                           for i, (row, copy) in before.items())


def assert_matches_oracle(m, field, p):
    """rank, rref and kernel_basis agree exactly with the Fraction RREF
    oracle, and the rank with sympy."""
    try:
        pivots, reduced = oracle_rref(dense_rows(m), m.ncols, p)
    except ZeroDivisionError:
        for routine in (rank, rref, kernel_basis):
            with pytest.raises(ZeroDivisionError):
                routine(m, field)
        return
    expected = {(i, j): v for i, row in enumerate(reduced)
                for j, v in enumerate(row) if v != 0}
    got_pivots, got = rref(m, field)
    assert got_pivots == pivots
    assert got.entries == expected
    element = Fraction if p is None else int
    assert all(type(v) is element for v in got.entries.values())
    k = kernel_basis(m, field)
    assert (k.nrows, k.ncols) == (m.ncols, m.ncols - len(pivots))
    assert k.entries == oracle_kernel_basis(dense_rows(m), m.ncols, p)
    assert all(type(v) is element for v in k.entries.values())
    assert rank(m, field) == len(pivots)
    # Scaling rows by their denominators keeps the rank here, since the
    # oracle found every denominator invertible in the field.
    int_rows = []
    for row in dense_rows(m):
        den = lcm(*(Fraction(v).denominator for v in row))
        int_rows.append([int(v * den) for v in row])
    if m.nrows and m.ncols:
        assert oracle_rank(int_rows, p) == len(pivots)


@given(fraction_matrices)
def test_rref_and_kernel_match_fraction_oracle(m):
    for field, p in FIELDS:
        assert_matches_oracle(m, field, p)


def test_corpus_boundaries_match_fraction_oracle():
    for entry in corpus():
        if entry.complex.is_void:
            continue
        for b in homology._chain_data(entry.complex)[0]:
            for field, p in FIELDS:
                assert_matches_oracle(b, field, p)


def test_vanishing_denominator_raises_in_prime_field():
    half = Matrix.from_rows([[Fraction(1, 2), 1], [0, 1]])
    for routine in (rank, rref, kernel_basis):
        with pytest.raises(ZeroDivisionError):
            routine(half, GF2)
    # a non-zero entry ahead of the bad one does not end the check
    for thin in ([[1, Fraction(1, 2)]], [[1], [Fraction(1, 2)]]):
        with pytest.raises(ZeroDivisionError):
            rank(Matrix.from_rows(thin), GF2)
    assert rank(half, GF3) == 2
    assert rank(half, QQ) == 2


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
            assert rref(zero, field) == ([], zero)
            assert kernel_basis(zero, field) == Matrix(
                ncols, ncols, {(j, j): 1 for j in range(ncols)})


def _corrupt_each_path(monkeypatch, rows):
    """Patch the unit-pivot elimination, then the fallback over the field
    (with unit pivots always failing), to return rows; yield between."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_unit_echelon", lambda *args: rows)
        yield "unit pivots"
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_unit_echelon", lambda *args: None)
        patch.setattr(linalg, "_field_echelon", lambda *args: rows)
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


def _rref_of(rows, p):
    """Echelon rows with each row divided by its pivot entry."""
    if p is not None:
        return rows
    return {lead: {j: Fraction(v, row[lead]) for j, v in row.items()}
            for lead, row in rows.items()}


@given(small_int_matrices)
def test_rank_and_kernel_match_sympy_on_both_paths(m):
    rows = dense_rows(m)
    for field, p in FIELDS:
        assert rank(m, field) == oracle_rank(rows, p)
        k = kernel_basis(m, field)
        assert k.entries == sympy_kernel_basis(rows, m.ncols, p)
        element = Fraction if p is None else int
        assert all(type(v) is element for v in k.entries.values())
        # the shared elimination gives the RREF of the fallback alone
        assert _rref_of(linalg._echelon(m, field, True), p) == \
            _rref_of(linalg._field_echelon(m, field, True), p)


def test_fallbacks_move_the_field_dependence_counter():
    unimodular = Matrix.from_rows([[2, 1], [1, 0]])
    field_free = (TRIANGLE_D1, unimodular.take_rows([1, 0]),
                  Matrix.from_rows([[0, -1, 2]]), Matrix(3, 1), Matrix(1, 1))
    dependent = (Matrix.from_rows([[1, 1], [1, -1]]),  # rank 1 over F2
                 unimodular,  # its first pivot would be 2
                 Matrix.from_rows([[0, 2, -2]]),
                 Matrix.from_rows([[1, Fraction(1, 7)], [0, 1]]))
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
    a = Matrix.from_rows([[1, Fraction(1, 3)]])
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
    pivots, r = rref(m, QQ)
    assert pivots == [0]
    assert dense_rows(r) == [[1, 2], [0, 0]]


def test_matmul_and_shape_errors():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[1], [1]])
    assert dense_rows(a.matmul(b)) == [[3], [7]]
    with pytest.raises(ShapeError):
        b.matmul(a)


def test_exact_rank_of_hilbert_like_matrix():
    # badly conditioned for floats; exact arithmetic sees full rank
    n = 6
    hilbert = Matrix.from_rows(
        [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)])
    assert rank(hilbert, QQ) == n
    k = kernel_basis(hilbert, QQ)
    assert k.ncols == 0
