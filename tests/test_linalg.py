import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nichols.groups import conjugacy_classes, symmetric
from nichols.linalg import (
    Echelon,
    decode_word,
    divisibility_chain,
    encode_word,
    invert_square,
    smith_normal_form,
    vec_add_into,
)
from nichols.quandles import (
    conjugation_crossed_set,
    delta_matrix,
    dihedral_crossed_set,
    trivial_crossed_set,
    zmod3_crossed_set,
)
from nichols.scalars import (
    CYCLOTOMIC, field, integer, one, rational, root_of_unity, zero)


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
    null = ech.nullspace(range(3))
    assert len(null) == 1
    vec = null[0]
    # check orthogonality against the original rows
    for row in ech.rows.values():
        s = zero()
        for k, c in row.items():
            if k in vec:
                s = s + c * vec[k]
        assert s.is_zero()


@pytest.mark.parametrize("m", [1, 12])
@pytest.mark.parametrize("typed", [False, True])
def test_vec_add_into_zero_scale_and_cancellation(m, typed):
    # in Cyc, or in the field (ints and pairs at m = 1, flat tuples at
    # m = 12); a new key stores its product untested, so a zero Cyc scale
    # must not get that far, and the field has no zero value to pass
    F = field(m) if typed else CYCLOTOMIC
    to = F.from_cyc
    q = root_of_unity(m, 1)
    dst = {0: to(integer(2) * q), 1: to(rational(1, 3)), 3: to(integer(5))}
    src = {0: to(q), 1: to(rational(1, 2)), 2: to(integer(7))}
    before = dict(dst)
    if typed:
        assert to(zero()) is None
    else:
        vec_add_into(dst, src, zero())
        assert dst == before
    # 2q - 2q cancels exactly and its key goes; a new key is stored
    vec_add_into(dst, src, to(integer(-2)), F)
    assert dst == {1: to(rational(-2, 3)), 2: to(integer(-14)),
                   3: to(integer(5))}
    vec_add_into(dst, {1: to(rational(2, 3)), 3: to(integer(1))}, None, F)
    assert dst == {2: to(integer(-14)), 3: to(integer(6))}
    # a unit scale adds as it is
    vec_add_into(dst, {3: to(integer(-6))}, F.one, F)
    assert dst == {2: to(integer(-14))}


@pytest.mark.parametrize("m,typed", [(12, False), (1, True), (12, True)],
                         ids=["Cyc", "field1", "field12"])
def test_combination_rebuilds_dependent_vectors(m, typed):
    # a dependent vector, written back in the inserted vectors through the
    # recorded multipliers, is rebuilt exactly; insert still returns the
    # pivot or None
    F = field(m) if typed else CYCLOTOMIC
    to = F.from_cyc
    rng = random.Random(m)

    def scalar():
        return to(rational(rng.choice((-3, -2, -1, 1, 2, 3)),
                           rng.randint(1, 3))
                  * root_of_unity(m, rng.randrange(m)))

    base = [{k: scalar() for k in rng.sample(range(8), 4)}
            for _ in range(6)]
    mixed = []
    for _ in range(6):
        vec = {}
        for src in rng.sample(base, 3):
            vec_add_into(vec, src, scalar(), F)
        mixed.append(vec)
    ech, inserted, pivots = Echelon(F), {}, []
    for vec in base + mixed:
        steps = {}
        p = ech.insert(vec, steps)
        pivots.append(p)
        if p is None:
            total = {}
            for q, a in ech.combination(steps).items():
                vec_add_into(total, inserted[q], a, F)
            assert total == vec
        else:
            # stored as inserted: a nonzero coefficient at the least key
            assert p == min(ech.rows[p]) and ech.rows[p][p]
            inserted[p] = vec
    assert pivots.count(None) >= 6 and set(ech.record) == set(inserted)
    ech.rref()
    assert all(F.is_one(row[p]) for p, row in ech.rows.items())
    # without steps the answers are the same, and nothing is recorded
    plain = Echelon(F)
    assert [plain.insert(vec) for vec in base + mixed] == pivots
    assert plain.record == {}


WORDS = 8


@pytest.mark.parametrize("m,typed", [(1, True), (3, True), (3, False)],
                         ids=["field1", "field3", "Cyc"])
@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(data=st.data())
def test_insert_stops_at_the_first_free_key(m, typed, data):
    # insertion leaves rows unreduced past their pivot, yet rank, pivots,
    # residues and the multipliers agree with a back-substituted copy
    F = field(m) if typed else CYCLOTOMIC
    # nonzero values: small fractions times m-th roots of one
    scalars = st.builds(
        lambda a, b, k: F.from_cyc(rational(a, b) * root_of_unity(m, k)),
        st.integers(-3, 3).filter(bool), st.integers(1, 3),
        st.integers(0, m - 1))
    vectors = st.dictionaries(st.integers(0, 2 * WORDS - 1), scalars,
                              min_size=1, max_size=5)
    vecs = data.draw(st.lists(vectors, min_size=1, max_size=8))
    # dependent vectors: combinations of earlier ones, maybe zero
    for _ in range(data.draw(st.integers(0, 5))):
        vec = {}
        for i, c in data.draw(st.lists(st.tuples(
                st.integers(0, len(vecs) - 1), scalars),
                min_size=1, max_size=3)):
            vec_add_into(vec, vecs[i], c, F)
        vecs.append(vec)
    vecs = data.draw(st.permutations(vecs))
    ech, inserted, dependent = Echelon(F), {}, 0
    for vec in vecs:
        steps = {}
        p = ech.insert(vec, steps)
        if p is None:
            dependent += 1
            total = {}
            for q, a in ech.combination(steps).items():
                vec_add_into(total, inserted[q], a, F)
            assert total == vec
        else:
            inserted[p] = vec
    for p, row in ech.rows.items():
        assert p == min(row) and row[p]
    assert ech.rank + dependent == len(vecs)
    # a back-substituted copy sharing ech's row dicts: rref makes new
    # rows and leaves the shared ones as they are
    stored = {p: dict(row) for p, row in ech.rows.items()}
    full = Echelon(F)
    full.rows = dict(ech.rows)
    full.rref()
    assert ech.rows == stored
    for p, row in full.rows.items():
        assert F.is_one(row[p]) and not (row.keys() - {p}) & full.rows.keys()
    for vec in vecs:
        assert not full.reduce(vec)
    # the rank and pivots of the span, with each residue reduced on every
    # pivot key before it is stored
    oracle = Echelon(F)
    for vec in vecs:
        red = oracle.reduce(vec)
        if red:
            inv = F.inverse(red[min(red)])
            oracle.rows[min(red)] = {u: F.mul(c, inv) for u, c in red.items()}
    assert oracle.pivots() == full.pivots() == ech.pivots()
    probes = data.draw(st.lists(vectors, max_size=4))
    for vec in probes + vecs:
        assert ech.reduce(vec) == full.reduce(vec)


@pytest.mark.parametrize("m", [1, 3])
def test_rows_are_stored_once_with_cached_pivot_inverses(m):
    # a row is the vector given to insert, before and after it eliminates:
    # the first elimination caches the inverse of its pivot coefficient,
    # and only rref replaces the row by a new dict with pivot one
    F = field(m)

    def c(k):
        return F.from_cyc(integer(k))

    v0, v1, v2 = {0: c(2), 3: c(1)}, {1: c(3), 2: c(1)}, {0: c(4), 2: c(5)}
    ech = Echelon(F)
    steps = {}
    assert ech.insert(v0, steps) == 0 and steps == {}
    assert ech.insert(v1) == 1
    assert ech.rows[0] is v0 and ech.rows[1] is v1 and ech._inverses == {}
    # v2 - 2 v0 leads with the free key 2: one elimination, whose
    # multiplier is that of the row as stored, 4 / 2
    steps = {}
    assert ech.insert(v2, steps) == 2 and steps == {0: c(2)}
    assert ech.rows[0] is v0 and v0 == {0: c(2), 3: c(1)}
    assert ech._inverses == {0: F.inverse(c(2))}
    assert ech.rows[1] is v1
    # the residue is stored as it stands, pivot 5, and record[p] is the
    # steps dict itself
    assert ech.rows[2] == {2: c(5), 3: c(-2)}
    assert ech.record == {0: {}, 2: {0: c(2)}} and ech.record[2] is steps
    assert ech.combination({0: c(3), 2: c(1)}) == {0: c(1), 2: c(1)}
    assert ech.rows[0] is v0 and ech._inverses == {0: F.inverse(c(2))}
    ech.rref()
    assert all(F.is_one(row[p]) for p, row in ech.rows.items())
    assert all(ech._inverses[p] == F.one for p in ech.rows)
    assert ech.rows[0] is not v0 and ech.rows[1] is not v1
    assert v0 == {0: c(2), 3: c(1)} and v1 == {1: c(3), 2: c(1)}
    assert v2 == {0: c(4), 2: c(5)}


@pytest.mark.parametrize("m,typed", [(1, True), (3, True), (3, False)],
                         ids=["field1", "field3", "Cyc"])
@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(data=st.data())
def test_echelon_never_changes_the_vectors_given_to_it(m, typed, data):
    # insert keeps the caller's vector as a row when it leads with a free
    # key, so no later reduce, combination or rref may scale or reduce
    # that dict in place, nor the vectors and steps given to them; each
    # row stays the very dict stored until rref, the only method that
    # replaces rows
    F = field(m) if typed else CYCLOTOMIC
    scalars = st.builds(
        lambda a, b, k: F.from_cyc(rational(a, b) * root_of_unity(m, k)),
        st.integers(-3, 3).filter(bool), st.integers(1, 3),
        st.integers(0, m - 1))
    vectors = st.dictionaries(st.integers(0, 2 * WORDS - 1), scalars,
                              min_size=1, max_size=5)
    vecs = data.draw(st.lists(vectors, min_size=1, max_size=8))
    for _ in range(data.draw(st.integers(0, 4))):
        vec = {}
        for i, c in data.draw(st.lists(st.tuples(
                st.integers(0, len(vecs) - 1), scalars),
                min_size=1, max_size=3)):
            vec_add_into(vec, vecs[i], c, F)
        vecs.append(vec)
    copies = [dict(vec) for vec in vecs]
    ech, given, stored = Echelon(F), [], {}

    def rows_kept():
        return (ech.rows.keys() == stored.keys()
                and all(ech.rows[p] is row and row == copy
                        for p, (row, copy) in stored.items()))

    for vec in vecs:
        steps = {}
        free = min(vec, default=None) not in ech.rows
        p = ech.insert(vec, steps)
        if p is None:
            if steps:
                given.append((steps, dict(steps)))
                ech.combination(steps)
        else:
            assert (ech.rows[p] is vec) == free
            stored[p] = ech.rows[p], dict(ech.rows[p])
        assert rows_kept()
    probes = data.draw(st.lists(vectors, max_size=4))
    probe_copies = [dict(vec) for vec in probes]
    for vec in probes:
        ech.reduce(vec, {})
        ech.reduce(vec, stop_at_free=True)
        assert rows_kept()
    ech.rref()
    assert all(ech.rows[p] is not row for p, (row, _) in stored.items())
    assert all(row == copy for row, copy in stored.values())
    assert vecs == copies and probes == probe_copies
    assert all(steps == before for steps, before in given)


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
    for vec in row_space.nullspace(range(WORDS)):
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


def _snf(mat, rows, cols):
    """``smith_normal_form`` of the dense matrix ``mat``, ``rows`` lists of
    length ``cols``, passed as the sparse rows it takes; it must leave
    them as they were."""
    assert len(mat) == rows
    sparse = [{j: x for j, x in enumerate(row) if x} for row in mat]
    kept = [dict(row) for row in sparse]
    got = smith_normal_form(sparse, cols)
    assert sparse == kept
    return got


def test_smith_normal_form_examples():
    assert _snf([[2, 4], [6, 8]], 2, 2) == [2, 4]
    assert _snf([[1, 0], [0, 1]], 2, 2) == [1, 1]
    assert _snf([[0, 0], [0, 0]], 2, 2) == []
    # divisibility chain is enforced
    assert _snf([[2, 0], [0, 3]], 2, 2) == [1, 6]
    # pivoting on the first nonzero entry grew these entries without bound
    # (no answer within minutes); factors checked against sympy
    mat = [[30, 0, 0, -13, 0, 0, 0], [0, 14, 8, 0, 0, 0, 0],
           [20, 0, -30, 0, -19, 0, 28], [0, 0, -24, 26, 14, 0, 0],
           [0, 0, 21, 0, -26, 0, -16], [-26, 6, 23, 26, 0, 0, 0],
           [3, 0, 0, 0, 0, 0, 0]]
    assert _snf(mat, 7, 7) == [1, 1, 1, 1, 2, 104]


def test_smith_normal_form_randomized():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        diag = _snf(mat, rows, cols)
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
        assert _snf(mat, rows, cols) == want, mat


def _agrees_with_sympy(got, mat):
    """Whether sympy finds the factors ``got``; true without sympy, a test
    extra, where the dense oracle is the only check."""
    try:
        import sympy
        from sympy.matrices.normalforms import invariant_factors
    except ImportError:
        return True
    return got == [abs(int(f)) for f in invariant_factors(
        sympy.Matrix(mat), domain=sympy.ZZ) if f]


def _crossed_sets():
    s4 = symmetric(4)
    classes = [c for c in conjugacy_classes(s4) if len(c) > 1]
    return ([trivial_crossed_set(n) for n in (2, 3, 4)] + [zmod3_crossed_set()]
            + [dihedral_crossed_set(k) for k in range(3, 13)]
            + [conjugation_crossed_set(s4, [c[0]]) for c in classes])


@pytest.mark.parametrize("n", [1, 2])
def test_smith_normal_form_of_coboundaries(n):
    for xs in _crossed_sets():
        mat = delta_matrix(xs, n)
        rows, cols = len(mat), len(mat[0])
        got = _snf(mat, rows, cols)
        assert got == _dense_smith_normal_form(mat, rows, cols), (xs, n)
        # sympy takes 2 s on the 1728 rows of delta^2 of dihedral12; the
        # dense oracle covers the larger matrices
        if rows <= 729:
            assert _agrees_with_sympy(got, mat), (xs, n)


def test_smith_normal_form_of_sparse_unit_matrices():
    # two or four entries +-1 per row, as in a coboundary, then duplicate
    # rows, rows equal up to sign, and zero rows and columns
    rng = random.Random(5)
    for _ in range(150):
        rows, cols = rng.randint(1, 14), rng.randint(1, 9)
        mat = []
        for _ in range(rows):
            row = [0] * cols
            for j in rng.sample(range(cols), min(cols, rng.choice((2, 4)))):
                row[j] = rng.choice((1, -1))
            mat.append(row)
        for _ in range(rng.randint(0, 3)):
            src = rng.choice(mat)
            mat.insert(rng.randint(0, len(mat)),
                       [rng.choice((1, -1)) * x for x in src])
        if rng.random() < 0.3:
            mat.insert(rng.randint(0, len(mat)), [0] * cols)
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in mat:
                row[j] = 0
        rows = len(mat)
        got = _snf(mat, rows, cols)
        assert got == _dense_smith_normal_form(mat, rows, cols), mat
        assert _agrees_with_sympy(got, mat), mat


def test_smith_normal_form_without_unit_elimination():
    # no entry +-1, so the whole matrix is the remainder
    rng = random.Random(17)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.choice((0, 2, -2, 3, -4, 6, 9, -10)) for _ in range(cols)]
               for _ in range(rows)]
        got = _snf(mat, rows, cols)
        assert got == _dense_smith_normal_form(mat, rows, cols), mat
        assert _agrees_with_sympy(got, mat), mat
    assert _snf([[2, 4, 6], [4, 6, 8], [6, 0, 10]], 3, 3) == \
        [2, 2, 16]
    # unit elimination pivots on a 1 and leaves the non-unit -3
    assert _snf([[1, 2], [2, 1]], 2, 2) == [1, 3]
    # the input is not modified
    mat = [[1, 2], [2, 1]]
    _snf(mat, 2, 2)
    assert mat == [[1, 2], [2, 1]]


def test_smith_normal_form_of_empty_and_zero_matrices():
    assert _snf([], 0, 0) == []
    assert _snf([], 0, 3) == []
    assert _snf([[], []], 2, 0) == []
    assert _snf([[0, 0, 0]], 1, 3) == []
    assert _snf([[0], [0], [0]], 3, 1) == []


def test_divisibility_chain():
    assert divisibility_chain([]) == []
    assert divisibility_chain([4, 6]) == [2, 12]
    assert divisibility_chain([12, 2, 3]) == [1, 6, 12]
    rng = random.Random(29)
    for _ in range(100):
        values = [rng.randint(1, 60) for _ in range(rng.randint(1, 6))]
        size = len(values)
        diag = [[v if i == j else 0 for j in range(size)]
                for i, v in enumerate(values)]
        assert divisibility_chain(values) == \
            _dense_smith_normal_form(diag, size, size), values


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


def _dense_smith_normal_form(mat, rows, cols):
    """The dense least-entry Smith normal form the sparse one replaced,
    kept as the oracle: ``mat`` is a list of ``rows`` lists of length
    ``cols``; it is copied.  Returns the nonzero invariant factors
    d1 | d2 | ..., all positive."""
    a = [list(r) for r in mat]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    def col_add(dst, src, k):
        for r in a:
            r[dst] += k * r[src]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]

    def row_add(dst, src, k):
        ra, rs = a[dst], a[src]
        for idx in range(cols):
            ra[idx] += k * rs[idx]

    def row_neg(i):
        a[i] = [-x for x in a[i]]

    limit = min(rows, cols)

    def diagonalize():
        t = 0
        while t < limit:
            # pivot on an entry of least absolute value in the remaining
            # block, so the multiples added to other rows and columns stay
            # small; a unit cannot be beaten
            pi = pj = -1
            best = 0
            for i in range(t, rows):
                for j in range(t, cols):
                    x = abs(a[i][j])
                    if x and (not best or x < best):
                        pi, pj, best = i, j, x
                        if x == 1:
                            break
                if best == 1:
                    break
            if pi < 0:
                break
            row_swap(t, pi)
            col_swap(t, pj)
            p = a[t][t]
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_add(i, t, -(a[i][t] // p))
            for j in range(t + 1, cols):
                if a[t][j]:
                    col_add(j, t, -(a[t][j] // p))
            # a nonzero remainder is a smaller pivot for the next round
            if (all(a[i][t] == 0 for i in range(t + 1, rows))
                    and all(a[t][j] == 0 for j in range(t + 1, cols))):
                if p < 0:
                    row_neg(t)
                t += 1
        return t

    t = diagonalize()
    # enforce d1 | d2 | ... by folding offending pairs and re-diagonalizing
    while True:
        bad = -1
        for i in range(t - 1):
            if a[i + 1][i + 1] % a[i][i]:
                bad = i
                break
        if bad < 0:
            break
        col_add(bad, bad + 1, 1)
        t = diagonalize()
    return [a[i][i] for i in range(t)]
