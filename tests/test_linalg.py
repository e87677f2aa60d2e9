import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nichols.linalg import (
    Echelon,
    decode_word,
    encode_word,
    invert_square,
    smith_normal_form,
)
from nichols.scalars import integer, one, rational, root_of_unity, zero


def test_word_encoding_roundtrip():
    for d in (2, 3, 4):
        for n in (1, 2, 3):
            for key in range(d ** n):
                assert encode_word(decode_word(key, d, n), d) == key
    # leftmost letter is most significant
    assert encode_word((1, 0, 0), 2) == 4
    # integer order on keys is lexicographic order on words
    assert encode_word((0, 1), 3) < encode_word((0, 2), 3) < encode_word((1, 0), 3)


def test_echelon_rank_and_membership():
    ech = Echelon()
    v1 = {0: integer(1), 1: integer(2)}
    v2 = {1: integer(1)}
    assert ech.insert(v1) == 0
    assert ech.insert({0: integer(2), 1: integer(4)}) is None  # dependent
    assert ech.insert(v2) == 1
    assert ech.rank == 2
    assert not ech.reduce({0: integer(5), 1: integer(-3)})
    assert ech.reduce({2: one()})


def test_echelon_reduce_is_canonical_projection():
    ech = Echelon()
    ech.insert({0: one(), 2: integer(3)})
    ech.insert({1: one(), 2: integer(-1)})
    res = ech.reduce({0: one(), 1: one(), 2: one()})
    # pivots 0 and 1 must be eliminated entirely
    assert set(res) == {2}
    assert res[2] == integer(-1)


def test_echelon_rref_and_nullspace():
    ech = Echelon()
    ech.insert({0: one(), 1: one(), 2: one()})
    ech.insert({1: one(), 2: integer(2)})
    null = ech.nullspace(range(3), one())
    assert len(null) == 1
    vec = null[0]
    # check orthogonality against the original rows
    for row in ech.rows.values():
        s = zero()
        for k, c in row.items():
            if k in vec:
                s = s + c * vec[k]
        assert s.is_zero()


WORDS = 8


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(st.lists(st.dictionaries(
    st.integers(0, WORDS - 1),
    st.builds(rational, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
    max_size=4), max_size=6))
def test_kernel_leads_where_the_row_space_does_not(rows):
    # the least keys of the null space are the keys that are no greatest
    # key of the row space; negated keys make the echelon pivot on the
    # greatest
    row_space, mirrored = Echelon(), Echelon()
    for row in rows:
        row_space.insert(row)
        mirrored.insert({-k: c for k, c in row.items()})
    kernel = Echelon()
    for vec in row_space.nullspace(range(WORDS), one()):
        kernel.insert(vec)
    assert set(kernel.pivots()) == set(range(WORDS)) - {
        -p for p in mirrored.rows}


def test_invert_square():
    i = root_of_unity(4, 1)
    cols = {0: {0: one(), 1: i}, 1: {1: integer(2)}}
    inv = invert_square(cols, 2)
    # multiply back: columns of M * inv must give the identity
    for j in range(2):
        acc = {}
        for k, c in inv[j].items():
            for r, v in cols[k].items():
                acc[r] = acc.get(r, zero()) + v * c
        for r in range(2):
            want = one() if r == j else zero()
            assert acc.get(r, zero()) == want
    try:
        invert_square({0: {0: one(), 1: one()}, 1: {0: one(), 1: one()}}, 2)
        assert False, "singular matrix must raise"
    except ValueError:
        pass


def test_smith_normal_form_examples():
    assert smith_normal_form([[2, 4], [6, 8]], 2, 2) == [2, 4]
    assert smith_normal_form([[1, 0], [0, 1]], 2, 2) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]], 2, 2) == []
    # divisibility chain is enforced
    assert smith_normal_form([[2, 0], [0, 3]], 2, 2) == [1, 6]
    # pivoting on the first nonzero entry grew these entries without bound
    # (no answer within minutes); factors checked against sympy
    mat = [[30, 0, 0, -13, 0, 0, 0], [0, 14, 8, 0, 0, 0, 0],
           [20, 0, -30, 0, -19, 0, 28], [0, 0, -24, 26, 14, 0, 0],
           [0, 0, 21, 0, -26, 0, -16], [-26, 6, 23, 26, 0, 0, 0],
           [3, 0, 0, 0, 0, 0, 0]]
    assert smith_normal_form(mat, 7, 7) == [1, 1, 1, 1, 2, 104]


def test_smith_normal_form_randomized():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        diag = smith_normal_form(mat, rows, cols)
        for i in range(len(diag) - 1):
            assert diag[i + 1] % diag[i] == 0
        assert all(d > 0 for d in diag)
        # determinant magnitude is preserved for square full-rank inputs
        if rows == cols and len(diag) == rows:
            det = _det(mat)
            prod = 1
            for d in diag:
                prod *= d
            assert abs(det) == prod


def test_smith_normal_form_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(23)
    for _ in range(200):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        # zero rows and columns exercise the rank-deficient cases
        if rng.random() < 0.3:
            mat[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in mat:
                row[j] = 0
        want = [abs(int(f)) for f in invariant_factors(
            sympy.Matrix(mat), domain=sympy.ZZ) if f]
        assert smith_normal_form(mat, rows, cols) == want, mat


def _det(mat):
    n = len(mat)
    m = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return det
