import time

import pytest

from nichols.algebra import (
    GradedComputation,
    adjoint,
    degree_basis,
    derivation,
    hilbert,
    kernel_basis,
    multiply,
    new_leading_words,
    nilpotency_order,
    relations,
)
from nichols.braids import (apply_elt, sigma_pass, symmetrizer, t1_apply,
                            t_shuffle)
from nichols.linalg import Echelon, InvalidInput, encode_word, vec_add_into
from nichols.scalars import (
    ONE,
    Cyc,
    integer,
    one,
    order,
    q_factorial,
    rational,
    root_of_unity,
)
from nichols import algebra, pairs
from test_engine_oracle import left
from test_pairs import memo_short_of_a_kernel


def brute_symmetrizer_rank(bp, n):
    """Oracle: materialize the full degree-n symmetrizer column by column
    from the word sum and row-reduce."""
    sym = symmetrizer(n)
    ech = Echelon()
    for w in range(bp.dim ** n):
        ech.insert(apply_elt(bp, sym, {w: ONE}, n))
    return ech.rank


def small_suite():
    w = root_of_unity(3, 1)
    i4 = root_of_unity(4, 1)
    return [
        pairs.diagonal([[integer(-1)]]),
        pairs.diagonal([[integer(-1), i4], [integer(-1), i4]]),
        pairs.diagonal([[integer(-1), w], [integer(-1), w]]),
        pairs.v3(integer(-1)),
        pairs.v3(w),
    ]


def test_image_iteration_matches_brute_force_small():
    for bp in small_suite():
        cache = GradedComputation(bp)
        for n in range(5):
            assert cache.dim(n) == brute_symmetrizer_rank(bp, n)


def test_rank_nullity_cross_check():
    for bp in small_suite():
        cache = GradedComputation(bp)
        d = bp.dim
        for n in (2, 3):
            assert len(kernel_basis(bp, n, cache)) == d ** n - cache.dim(n)


def test_kernel_vectors_annihilate():
    from nichols.braids import symmetrizer_apply
    bp = pairs.v3(root_of_unity(6, 1))
    cache = GradedComputation(bp)
    for n in (2, 3):
        for vec in kernel_basis(bp, n, cache):
            assert symmetrizer_apply(bp, n, vec) == {}


def test_one_dimensional_line():
    for m, e in ((2, 1), (3, 1), (5, 2)):
        q = root_of_unity(m, e)
        bp = pairs.diagonal([[q]])
        n_q = int(order(q))
        res = hilbert(bp, n_q + 2)
        assert res.dims == [1] * n_q + [0]
        assert res.total == n_q
        assert res.finite


def test_hilbert_unknown_verdict():
    bp = pairs.diagonal([[one()]])  # polynomial algebra: never terminates
    res = hilbert(bp, 4)
    assert res.dims == [1] * 5
    assert res.total is None
    assert not res.finite


def test_v3_minus_one():
    res = hilbert(pairs.v3(integer(-1)), 8)
    assert res.dims == [1, 3, 4, 3, 1, 0]
    assert res.total == 12
    # once a component vanishes every later one does
    cache = GradedComputation(pairs.v3(integer(-1)))
    assert cache.dim(7) == 0 and cache.dim(9) == 0


def test_v3_order_three_degree_two():
    bp = pairs.v3(root_of_unity(3, 1))
    cache = GradedComputation(bp)
    assert cache.dim(2) == 9
    assert kernel_basis(bp, 2, cache) == []


def test_v3_generic_orders_have_injective_degree_two():
    # away from orders 1, 2 and 6 the degree-two symmetrizer is injective
    for m, e in ((3, 1), (4, 1), (5, 1), (12, 1)):
        bp = pairs.v3(root_of_unity(m, e))
        assert kernel_basis(bp, 2) == []


def test_v3_order_six_kernel_is_the_stated_span():
    q = root_of_unity(6, 1)
    bp = pairs.v3(q)
    vecs = kernel_basis(bp, 2)
    assert len(vecs) == 2
    ech = Echelon()
    for v in sorted(vecs, key=min):
        ech.insert(v)
    ech.rref()
    d = 3

    def word(*letters):
        return encode_word(letters, d)

    # the two displayed spanning vectors, canonicalized the same way
    span = Echelon()
    span.insert({word(0, 1): one(), word(2, 0): -q, word(1, 2): q * q})
    span.insert({word(1, 0): one(), word(2, 1): -q, word(0, 2): q * q})
    span.rref()
    assert ech.rows == span.rows


def test_v4_kernel_alpha_minus_one():
    bp = pairs.v4(integer(-1), integer(-1))
    cache = GradedComputation(bp)
    assert cache.dim(2) == 12
    vecs = kernel_basis(bp, 2, cache)
    assert sorted(min(v) for v in vecs) == [encode_word((i, i), 4)
                                            for i in range(4)]
    for v in vecs:
        assert len(v) == 1


def test_kernel_basis_in_degrees_zero_and_one():
    # T_0 and T_1 = V embed in the Nichols algebra: every word is normal
    for bp in (pairs.v3(integer(-1)), pairs.v4(integer(-1), integer(-1))):
        cache = GradedComputation(bp)
        assert kernel_basis(bp, 0, cache) == []
        assert kernel_basis(bp, 1, cache) == []


def test_kernel_basis_at_and_past_a_zero_component():
    # B_5 of v3(-1) is zero, so K_n = T_n from degree 5 on: the basis is
    # the 3^n unit vectors, and degree 6 is not computed for it
    bp = pairs.v3(integer(-1))
    cache = GradedComputation(bp)
    for n in (5, 6):
        assert kernel_basis(bp, n, cache) == [{w: ONE}
                                              for w in range(3 ** n)]
    assert len(cache._degrees) == 6


def test_v4_kernel_in_degree_six_from_the_normal_forms():
    # 4^6 - 802 = 3,294 kernel vectors k_f = e_f - NF(f), one for each word
    # f that is not normal: f at coefficient one is the least key, and
    # every other key is a normal word.  Once the engine has reached degree
    # 6 they take hundredths of a second (0.4 s as the null space of the
    # transposed pair's component)
    bp = pairs.v4(integer(-1), integer(-1))
    cache = GradedComputation(bp)
    assert cache.dim(6) == 802
    t0 = time.perf_counter()
    vecs = kernel_basis(bp, 6, cache)
    assert time.perf_counter() - t0 < 2.0
    normal = cache._degree(6).phis
    assert [min(v) for v in vecs] == [f for f in range(4 ** 6)
                                      if f not in normal]
    assert len(vecs) == 3294
    for v in vecs:
        f = min(v)
        assert v[f] == ONE and all(p in normal for p in v if p != f)
    # a kernel reduces every word that is neither normal nor a rule's
    assert not memo_short_of_a_kernel(cache)


def test_relations_v3():
    bp = pairs.v3(integer(-1))
    cache = GradedComputation(bp)
    rels = relations(bp, 2, cache)
    assert len(rels) == 5
    d = 3

    def vec(*pairs_):
        return {encode_word(w, d): c for w, c in pairs_}

    assert rels[0] == vec(((0, 0), one()))
    assert rels[1] == vec(((0, 1), one()), ((1, 2), one()), ((2, 0), one()))
    assert rels[2] == vec(((0, 2), one()), ((1, 0), one()), ((2, 1), one()))
    assert rels[3] == vec(((1, 1), one()))
    assert rels[4] == vec(((2, 2), one()))
    for n in (3, 4, 5):
        assert relations(bp, n, cache) == []


def test_relations_raise_when_the_tensor_path_misses_the_count(monkeypatch):
    # an overlap span holding a vector outside the span of the k_f, a unit
    # vector on a normal word, stands in for an engine bug: its rank lowers
    # the count k - rank Z to 4, while the five k_f of degree 2 stay
    # independent modulo it
    bp = pairs.v3(integer(-1))
    cache = GradedComputation(bp)
    normal = min(cache._degree(2).phis)

    def planted(cache, n):
        span = Echelon(cache.field)
        span.insert({normal: cache.field.one})
        return span

    monkeypatch.setattr(algebra, "_overlap_span", planted)
    with pytest.raises(RuntimeError,
                       match="leave 5 relations in degree 2, the count gives 4"):
        relations(bp, 2, cache)


def test_relations_and_leading_words_v4():
    bp = pairs.v4(integer(-1), integer(1))
    cache = GradedComputation(bp)
    rels = relations(bp, 2, cache)
    assert len(rels) == 8
    # the canonical rows are exactly the four squares and four triple sums
    d = 4

    def vec(*pairs_):
        return {encode_word(w, d): ONE for w in pairs_}

    expected = [
        vec((0, 0)),
        vec((0, 1), (2, 0), (1, 2)),
        vec((0, 2), (3, 0), (2, 3)),
        vec((0, 3), (1, 0), (3, 1)),
        vec((1, 1)),
        vec((1, 3), (2, 1), (3, 2)),
        vec((2, 2)),
        vec((3, 3)),
    ]
    assert rels == expected
    assert len(relations(bp, 3, cache)) == 0
    assert len(new_leading_words(bp, 2, cache)) == 8
    # the two degree-three rewriting elements are consequences, with the
    # stated leading words
    assert new_leading_words(bp, 3, cache) == [(1, 2, 1), (2, 3, 2)]


def test_derivation_examples():
    bp = pairs.v3(integer(-1))
    # on a degree-one basis vector the derivation is the dual pairing
    assert derivation(bp, 1, {1: ONE}, 1) == {0: ONE}
    assert derivation(bp, 0, {1: ONE}, 1) == {}
    import pytest
    with pytest.raises(ValueError):
        derivation(bp, 0, {0: ONE}, 0)
    # one-dimensional case: S^n(x...x) = (n)_q! x...x projects to
    # (n)_q! x...x one degree down
    q = root_of_unity(5, 1)
    line = pairs.diagonal([[q]])
    from nichols.braids import symmetrizer_apply
    for n in (2, 3, 4):
        sym = symmetrizer_apply(line, n, {0: ONE})
        expect = q_factorial(n, q)
        assert sym == {0: expect}
        assert derivation(line, 0, sym, n) == {0: expect}


def test_derivation_image_rank_v3():
    q = root_of_unity(3, 1)
    bp = pairs.v3(q)
    cache = GradedComputation(bp)
    rows = degree_basis(bp, 2, cache)
    ech = Echelon()
    for row in rows:
        img = derivation(bp, 0, row, 2)
        if img:
            ech.insert(img)
    assert ech.rank == 3  # so the kernel inside degree two has dimension 6


def test_derivations_jointly_separate():
    # intersection of the derivation kernels meets each positive-degree
    # component trivially
    for bp in (pairs.v3(integer(-1)), pairs.v4(integer(-1), integer(1))):
        cache = GradedComputation(bp)
        n = 1
        while cache.dim(n):
            rows = degree_basis(bp, n, cache)
            ech = Echelon()
            alive = list(range(len(rows)))
            # a vector in the joint kernel would be a combination of rows
            # killed by every partial map; test via stacked coefficients
            stacked = []
            for row in rows:
                parts = {}
                for y in range(bp.dim):
                    img = derivation(bp, y, row, n)
                    for w, c in img.items():
                        parts[y * (bp.dim ** (n - 1)) + w] = c
                stacked.append(parts)
            for vec in stacked:
                assert ech.insert(vec) is not None  # full rank: no joint kernel
            n += 1
            if n > 6:
                break


def test_multiply_examples():
    q = root_of_unity(7, 1)
    line = pairs.diagonal([[q]])
    x = {0: ONE}
    prod = multiply(line, x, x, 1, 1)
    assert prod == {0: one() + q}
    assert multiply(line, {0: ONE}, prod, 0, 2) == prod  # unit on the left
    # degree-zero factors scale by their coefficient
    two = integer(2)
    assert multiply(line, {0: two}, prod, 0, 2) == {0: two * (one() + q)}
    assert multiply(line, prod, {0: two}, 2, 0) == {0: two * (one() + q)}
    assert multiply(line, {}, prod, 0, 2) == {}
    # associativity spot check in degree (1, 1, 1)
    bp = pairs.v3(integer(-1))
    for a, b, c in ((0, 1, 2), (1, 1, 0)):
        va, vb, vc = {a: ONE}, {b: ONE}, {c: ONE}
        left = multiply(bp, multiply(bp, va, vb, 1, 1), vc, 2, 1)
        right = multiply(bp, va, multiply(bp, vb, vc, 1, 1), 1, 2)
        assert left == right


def test_adjoint_examples():
    i4 = root_of_unity(4, 1)
    bp = pairs.diagonal([[integer(-1), i4], [integer(-1), i4]])
    d = 2
    # Ad_{x_0}(x_1) = x_0 x_1 - q_01 x_1 x_0 in tensor coordinates
    out = adjoint(bp, 0, {1: ONE}, 1)
    assert out == {encode_word((0, 1), d): one() - i4 * integer(-1)}
    # the adjoint of x on itself dies instantly at q = -1
    line = pairs.diagonal([[integer(-1)]])
    assert adjoint(line, 0, {0: ONE}, 1) == {}


def _adjoint_oracle(bp, i, vec, n):
    """x_i v - m(c(x_i (x) v)) through the formal sum of T_(n,1)."""
    d = bp.dim
    pre = {i * d ** n + w: c for w, c in vec.items()}
    left = t1_apply(bp, pre, n + 1)
    crossed = pre
    for k in range(1, n + 1):
        crossed = sigma_pass(bp.cmap, d, n + 1, crossed, k)
    right = apply_elt(bp, t_shuffle(n, 1), crossed, n + 1)
    vec_add_into(left, right, integer(-1))
    return left


def test_adjoint_matches_the_formal_sum_oracle():
    w = root_of_unity(3, 1)
    panel = [
        pairs.v3(integer(-1)),
        pairs.v3(w),
        pairs.v4(integer(-1), one()),
        pairs.two_by_two(integer(-1), integer(-1), one(), one(), one(), one()),
        pairs.diagonal([[integer(-1), root_of_unity(4, 1)], [w, w]]),
    ]
    for bp in panel:
        for i in range(bp.dim):
            for j in range(bp.dim):
                z = {j: ONE}
                for deg in (1, 2, 3):
                    want = _adjoint_oracle(bp, i, z, deg)
                    z = adjoint(bp, i, z, deg)
                    assert z == want


def test_adjoint_derivation_ladder():
    # the first derivation of the k-th adjoint iterate picks up the product
    # of the ladder scalars (1 - q12 q21 q22^(j-1)) at each rung
    w = root_of_unity(3, 1)
    bp = pairs.diagonal([[integer(-1), w], [integer(-1), w]])
    q12q21 = w * integer(-1)
    q22 = w
    z = {0: ONE}  # x_1 in the roles of the rank-2 analysis
    deg = 1
    scal = one()
    for k in (1, 2):
        z = adjoint(bp, 1, z, deg)
        deg += 1
        scal = scal * (one() - q12q21 * q22 ** (k - 1))
        partial = derivation(bp, 0, z, deg)
        # partial must be scal * x_2^k, the symmetrized power
        from nichols.braids import symmetrizer_apply
        power = symmetrizer_apply(bp, k, {encode_word((1,) * k, 2): ONE})
        assert partial == {word: scal * c for word, c in power.items()}
        assert derivation(bp, 1, z, deg) == {}


def test_nilpotency_orders():
    i4 = root_of_unity(4, 1)
    c4 = pairs.diagonal([[integer(-1), i4], [integer(-1), i4]])
    assert nilpotency_order(c4, 0, 1) == 2
    w = root_of_unity(3, 1)
    c6 = pairs.diagonal([[integer(-1), w], [integer(-1), w]])
    assert nilpotency_order(c6, 1, 0) == 3
    assert nilpotency_order(c6, 0, 1) == 2
    # opposite products cancel: the adjoint dies immediately
    qls = pairs.diagonal([[integer(-1), w], [w ** -1, integer(-1)]])
    assert nilpotency_order(qls, 0, 1) == 1
    # q_11 = 1 with nontrivial product never terminates
    free = pairs.diagonal([[one(), w], [one(), integer(-1)]])
    assert nilpotency_order(free, 0, 1) is None
    with pytest.raises(ValueError):
        nilpotency_order(pairs.v3(integer(-1)), 0, 1)
    # q_11 = 2 is not a root of unity: the adjoint of x_0 kills x_1 at step
    # 2, which no bounded search for t can see, so the input is refused
    with pytest.raises(InvalidInput):
        nilpotency_order(pairs.diagonal(
            [[integer(2), one()], [rational(1, 2), integer(-1)]]), 0, 1)


def test_graded_dims_satisfy_power_lower_bound():
    # N(q)^dim V <= dim of the Nichols algebra for the finite cases
    checks = [
        (pairs.v3(integer(-1)), 2, 3, 12),
        (pairs.v4(integer(-1), integer(1)), 2, 4, 72),
    ]
    for bp, n_q, dim_v, total in checks:
        res = hilbert(bp, 12)
        assert res.total == total
        assert n_q ** dim_v <= res.total


def test_transpose_has_the_same_graded_dimensions():
    # rank of the symmetrizer equals rank of its transpose; the kernel
    # machinery rests on this.  Both sides run the derivation-coordinate
    # engine, which reads the braiding only as the matrix C of two
    # letters: the pair with its group-like data and the transposed pair
    # without any go through the same right Leibniz rule
    w = root_of_unity(3, 1)
    for bp in (pairs.v3(integer(-1)), pairs.v3(w),
               pairs.v4(integer(-1), integer(1)),
               pairs.diagonal([[integer(-1), w], [integer(-1), w]])):
        a = GradedComputation(bp)
        b = GradedComputation(pairs.transpose(bp))
        for n in range(5):
            assert a.dim(n) == b.dim(n)


def test_stats_record_each_computed_degree():
    bp = pairs.v3(integer(-1))
    cache = GradedComputation(bp)
    cache.dim(3)
    # the newest degree is not reduced further, so its count is current
    assert cache.stats[3].nonzeros == sum(
        len(r) for r in cache.basis(3).rows.values()) > 0
    hilbert(bp, 8, cache)
    stats = cache.stats
    assert [s.degree for s in stats] == list(range(6))
    assert [s.rank for s in stats] == [1, 3, 4, 3, 1, 0]
    # the candidate words per degree: the b_n normal words and the k_n new
    # leading words, five in degree 2 and one in degree 3
    assert [s.candidates for s in stats] == [0, 3, 9, 4, 1, 0]
    assert [s.candidates - s.rank for s in stats[2:]] == [
        len(new_leading_words(bp, n, cache)) for n in range(2, 6)]
    # a row has its pivot and at most d * dim(n - 1) derivation coordinates
    assert all(s.rank <= s.nonzeros <= s.rank * 3 * low.rank
               for low, s in zip(stats, stats[1:]))
    assert all(s.seconds >= 0 for s in stats)
    cache.dim(4)
    assert len(cache.stats) == 6


def test_left_reads_the_newest_degree_without_computing_the_next():
    # the maps into the top degree come from its rules, with no higher
    # degree computed, and equal the maps of a computation taken two
    # degrees further
    bp = pairs.v4(integer(-1), integer(1))
    for n in (1, 3):
        cache = GradedComputation(bp)
        cache.basis(n)
        got = left(cache, n)
        assert len(cache._degrees) == n + 1
        ahead = GradedComputation(bp)
        ahead.basis(n + 2)
        assert left(ahead, n) == got


def test_negative_degrees_raise():
    # no list of degrees may be read from its end: components start in
    # degree zero
    bp = pairs.v4(integer(-1), integer(1))
    cache = GradedComputation(bp)
    cache.basis(3)
    calls = [lambda: cache.basis(-2), lambda: cache.dim(-1),
             lambda: cache._degree(-1),
             lambda: degree_basis(bp, -1, cache),
             lambda: kernel_basis(bp, -1, cache),
             lambda: hilbert(bp, -1, cache)]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    assert len(cache._degrees) == 4


def test_derivation_lands_in_lower_component():
    for bp in (pairs.v3(integer(-1)), pairs.v4(integer(-1), integer(1))):
        cache = GradedComputation(bp)
        for n in (2, 3, 4):
            lower = Echelon()
            for row in degree_basis(bp, n - 1, cache):
                lower.insert(row)
            for row in degree_basis(bp, n, cache):
                for y in range(bp.dim):
                    img = derivation(bp, y, row, n)
                    assert not lower.reduce(img)


def test_identities_hold_for_nondiagonal_pairs():
    # the operator identities live in the braid group algebra, so they act
    # equally on any braided pair, not only diagonal ones
    from nichols.identities import identity_family
    from nichols.braids import verify_identity
    suite = [pairs.v3(integer(-1)), pairs.v3(root_of_unity(3, 1))]
    for name, lhs, rhs in identity_family(2) + identity_family(3):
        assert verify_identity(lhs, rhs, suite).ok, name


def test_change_basis_identity_is_identity():
    bp = pairs.v4(integer(-1), integer(-1))
    eye = [[one() if i == j else integer(0) for j in range(4)]
           for i in range(4)]
    assert pairs.change_basis(bp, eye).cmap == bp.cmap


def test_palindrome_for_finite_cases():
    i4 = root_of_unity(4, 1)
    w = root_of_unity(3, 1)
    cases = [
        pairs.v3(integer(-1)),
        pairs.diagonal([[integer(-1), i4], [integer(-1), i4]]),
        pairs.diagonal([[integer(-1), w], [integer(-1), w]]),
    ]
    for bp in cases:
        res = hilbert(bp, 12)
        assert res.finite
        dims = res.dims[:-1]
        assert dims == dims[::-1]


def _qls_345():
    return pairs.diagonal([[root_of_unity(n, 1) if i == j else integer(1)
                            for j, _ in enumerate((3, 4, 5))]
                           for i, n in enumerate((3, 4, 5))])


@pytest.mark.parametrize("build", [
    lambda: pairs.v3(root_of_unity(3, 1)),
    _qls_345,
    lambda: pairs.transpose(pairs.v4(integer(-1), integer(1)))],
    ids=["v3-z3", "qls-345", "T-v4_m1_p1"])
def test_engine_returns_cyc_at_its_boundary(build):
    # the engine computes in its own field type; everything it hands out
    # is converted back to Cyc
    bp = build()
    cache = GradedComputation(bp)
    vectors = {
        "degree_basis": [v for n in range(4)
                         for v in degree_basis(bp, n, cache)],
        "kernel_basis": [v for n in (2, 3)
                         for v in kernel_basis(bp, n, cache)],
        "relations": [v for n in (2, 3) for v in relations(bp, n, cache)],
        "left": [v for n in (1, 2) for maps in left(cache, n) for v in maps],
    }
    for name, vecs in vectors.items():
        values = [c for vec in vecs for c in vec.values()]
        assert values, name
        assert all(type(c) is Cyc for c in values), name
