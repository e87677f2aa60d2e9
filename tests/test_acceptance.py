"""Acceptance suite: every headline quantity the engine must reproduce,
one test per criterion, exact arithmetic throughout.  Each test prints a
single pass line with its runtime (visible under pytest -s) and enforces
its runtime budget.
"""

import random
import time
from math import prod

from nichols.algebra import (
    GradedComputation,
    degree_basis,
    derivation,
    hilbert,
    kernel_basis,
    new_leading_words,
    nilpotency_order,
    relations,
)
from nichols.braids import apply_elt, sigma_pass, verify_identity
from nichols.identities import all_identities, standard_suite
from nichols.linalg import Echelon, encode_word
from nichols.scalars import ONE, integer, one, order, root_of_unity
from nichols.rank2 import analyze, cartan, is_qls
from nichols import pairs, quandles
from braid_oracles import symmetrizer


def report(number, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {number} overran: {elapsed:.1f}s"
    print(f"criterion {number:02d} PASS ({elapsed:.2f}s) {detail}")


def c4_pair():
    i4 = root_of_unity(4, 1)
    return pairs.diagonal([[integer(-1), i4], [integer(-1), i4]])


def c6_pair():
    w = root_of_unity(3, 1)
    return pairs.diagonal([[integer(-1), w], [integer(-1), w]])


def ms_d4_pair():
    m = integer(-1)
    return pairs.two_by_two(m, m, one(), one(), one(), one())


def test_criterion_01_v3_dimension_and_relations():
    t0 = time.time()
    bp = pairs.v3(integer(-1))
    cache = GradedComputation(bp)
    res = hilbert(bp, 8, cache)
    assert res.total == 12 and res.finite
    assert len(relations(bp, 2, cache)) == 5
    for n in (3, 4, 5):
        assert relations(bp, n, cache) == []
    report(1, time.time() - t0, 1.0, "dim 12, 5 quadratic relations, none later")


def test_criterion_02_v4_hilbert_and_relations():
    t0 = time.time()
    bp = pairs.v4(integer(-1), integer(1))
    cache = GradedComputation(bp)
    res = hilbert(bp, 12, cache)
    assert res.dims == [1, 4, 8, 11, 12, 12, 11, 8, 4, 1, 0]
    assert res.total == 72
    # minimal generators of the relation ideal: 8 quadratic, 1 sextic
    assert len(relations(bp, 2, cache)) == 8
    assert len(relations(bp, 6, cache)) == 1
    for n in (3, 4, 5):
        assert relations(bp, n, cache) == []
    # per-degree counts of the degreewise rewriting basis: the two stated
    # degree-3 elements are ideal consequences with new leading words
    counts = [len(new_leading_words(bp, n, cache)) for n in range(2, 7)]
    assert counts == [8, 2, 0, 0, 1]
    assert new_leading_words(bp, 3, cache) == [(1, 2, 1), (2, 3, 2)]
    report(2, time.time() - t0, 300.0,
           "hilbert 1 4 8 11 12 12 11 8 4 1, total 72, counts 8/2/1")


def test_criterion_03_c4_example():
    t0 = time.time()
    bp = c4_pair()
    res = analyze(pairs.is_diagonal(bp))
    assert res.bound == 16
    assert res.verdict == "A2_equality"
    assert hilbert(bp, 10).total == 16
    report(3, time.time() - t0, 10.0, "bound 16 attained, type A2")


def test_criterion_04_c6_example():
    t0 = time.time()
    bp = c6_pair()
    res = analyze(pairs.is_diagonal(bp))
    assert (res.N1, res.N2) == (2, 3)
    assert res.M == [3, 2]
    assert res.bound == 36
    assert res.condition == "-q22"
    assert res.verdict == "r2_conditional_holds"
    assert hilbert(bp, 12).total == 36
    report(4, time.time() - t0, 60.0, "bound 36 attained, condition -q22")


def test_criterion_05_two_by_two_module():
    t0 = time.time()
    bp = ms_d4_pair()
    res = hilbert(bp, 10)
    assert res.total == 64
    # after the eigenvector change of basis the pair is diagonal, the two
    # blocks each generate an eight-dimensional algebra, and the cross
    # braiding squares to the identity
    zb = pairs.change_basis(bp, pairs.two_by_two_z_basis(one(), one()))
    assert pairs.is_diagonal(zb) is not None
    blocks = ([0, 1], [2, 3])
    for block in blocks:
        sub = pairs.restrict(zb, block)
        assert hilbert(sub, 6).total == 8
    assert pairs.cross_square_is_identity(zb, *blocks)
    report(5, time.time() - t0, 300.0,
           "total 64 = 8 x 8, cross braiding squares to the identity")


def test_criterion_06_v3_order_three():
    t0 = time.time()
    q = root_of_unity(3, 1)
    bp = pairs.v3(q)
    cache = GradedComputation(bp)
    assert cache.dim(2) == 9
    # kernel dimensions of the first derivation inside each component; in
    # degree zero the derivation vanishes identically so the unit survives
    lower = [1, 2, 6, 2, 1]
    kdims = [1]
    for n in range(1, 5):
        rows = degree_basis(bp, n, cache)
        ech = Echelon()
        rank = 0
        for row in rows:
            img = derivation(bp, 0, row, n)
            if img and ech.insert(img) is not None:
                rank += 1
        kdims.append(len(rows) - rank)
    assert kdims[2] == 6
    assert all(k >= p for k, p in zip(kdims, lower))
    bound = int(order(q)) * sum(lower)
    assert bound == 36
    assert int(order(q)) * sum(kdims) >= 36
    report(6, time.time() - t0, 10.0,
           f"dim 9 in degree 2, kernel profile {kdims}, bound 36")


def test_criterion_07_v3_order_six_kernel():
    t0 = time.time()
    q = root_of_unity(6, 1)
    bp = pairs.v3(q)
    vecs = kernel_basis(bp, 2)
    assert len(vecs) == 2
    got = Echelon()
    for v in sorted(vecs, key=min):
        got.insert(v)
    got.rref()

    def word(*letters):
        return encode_word(letters, 3)

    span = Echelon()
    span.insert({word(0, 1): one(), word(2, 0): -q, word(1, 2): q * q})
    span.insert({word(1, 0): one(), word(2, 1): -q, word(0, 2): q * q})
    span.rref()
    assert got.rows == span.rows
    report(7, time.time() - t0, 1.0, "degree-2 kernel matches the stated span")


def test_criterion_08_v4_alpha_minus_one():
    t0 = time.time()
    bp = pairs.v4(integer(-1), integer(-1))
    cache = GradedComputation(bp)
    assert cache.dim(2) == 12
    vecs = kernel_basis(bp, 2, cache)
    assert sorted(min(v) for v in vecs) == [encode_word((i, i), 4)
                                            for i in range(4)]
    assert all(len(v) == 1 for v in vecs)
    # the braiding cubes to the identity away from the diagonal
    for i in range(4):
        for j in range(4):
            if i != j:
                vec = {encode_word((i, j), 4): ONE}
                out = vec
                for _ in range(3):
                    out = sigma_pass(bp.cmap, 4, 2, out, 1)
                assert out == vec
    # degreewise lower bound (1+t)(1+3t+9t^2+3t^3+t^4)
    lower = [1, 4, 12, 12, 4, 1]
    dims = [cache.dim(n) for n in range(6)]
    assert all(d >= l for d, l in zip(dims, lower))
    assert sum(dims) >= 34
    report(8, time.time() - t0, 60.0,
           f"dims {dims} dominate the degreewise bound, kernel = squares")


def test_criterion_09_operator_identities():
    t0 = time.time()
    suite = standard_suite(count=10, max_order=12)
    assert len(suite) >= 10
    failures = []
    for name, lhs, rhs in all_identities(4):
        rep = verify_identity(lhs, rhs, suite)
        if not rep.ok:
            failures.append(name)
    assert not failures, failures
    report(9, time.time() - t0, 120.0,
           "all operator identity families hold for n <= 4")


def test_criterion_10_nilpotency_sweep():
    t0 = time.time()
    rng = random.Random(777)
    checked = 0
    while checked < 200:
        m = rng.randint(1, 12)
        q = [[root_of_unity(m, rng.randrange(m)) for _ in range(2)]
             for _ in range(2)]
        bp = pairs.diagonal(q)
        # nilpotency_order computes the closed form and the direct adjoint
        # iteration and raises on any disagreement
        nilpotency_order(bp, 0, 1)
        nilpotency_order(bp, 1, 0)
        checked += 1
    report(10, time.time() - t0, 300.0,
           "closed form matches direct iteration on 200 random matrices")


def test_criterion_11_qls_sweep():
    t0 = time.time()
    rng = random.Random(424242)
    checked = 0
    while checked < 50:
        d = rng.randint(1, 3)
        orders = [rng.choice((2, 3, 4, 5)) for _ in range(d)]
        q = [[one() for _ in range(d)] for _ in range(d)]
        for i in range(d):
            q[i][i] = root_of_unity(orders[i], 1)
        for i in range(d):
            for j in range(i + 1, d):
                m = rng.choice((1, 2, orders[i], orders[j]))
                e = rng.randrange(m)
                q[i][j] = root_of_unity(m, e)
                q[j][i] = root_of_unity(m, -e)
        expected = 1
        for n in orders:
            expected *= n
        assert is_qls(q) == expected
        bp = pairs.diagonal(q)
        top = sum(n - 1 for n in orders) + 1
        res = hilbert(bp, top)
        assert res.total == expected, (orders, res.dims)
        checked += 1
    report(11, time.time() - t0, 600.0,
           "50 random quantum linear spaces have dimension prod N(q_ii)")


def test_criterion_12_quandle_cohomology():
    t0 = time.time()
    zmod3 = quandles.zmod3_crossed_set()
    for m in (2, 3, 4, 6):
        assert quandles.h2(zmod3, m).factors == [m]
    builtins = [
        quandles.trivial_crossed_set(2),
        quandles.trivial_crossed_set(3),
        quandles.trivial_crossed_set(4),
        zmod3,
        quandles.dihedral_crossed_set(3),
        quandles.dihedral_crossed_set(4),
        quandles.dihedral_crossed_set(5),
    ]
    for xs in builtins:
        d1 = quandles.delta_matrix(xs, 1)
        d2 = quandles.delta_matrix(xs, 2)
        for r in range(len(d2)):
            for c in range(len(d1[0])):
                assert sum(d2[r][k] * d1[k][c] for k in range(len(d1))) == 0
    from test_quandles import count_cocycles_exhaustive
    for xs in builtins:
        if xs.size > 4:
            continue
        for m in (2, 3, 4):
            cocycles = count_cocycles_exhaustive(xs, m)
            coboundaries = m ** xs.size // m ** quandles.pi0(xs)
            assert cocycles == prod(
                quandles.h2(xs, m).factors) * coboundaries
    report(12, time.time() - t0, 60.0,
           "H2(Z/3; Z/m) = Z/m, differentials compose to zero, counts agree")


def test_criterion_13_classification_witnesses():
    t0 = time.time()
    minus = integer(-1)
    plus = one()
    i4 = root_of_unity(4, 1)

    def qls_pair(*orders):
        d = len(orders)
        return pairs.diagonal(
            [[root_of_unity(orders[i], 1) if i == j else plus
              for j in range(d)] for i in range(d)])

    def qls_total(*orders):
        top = sum(n - 1 for n in orders) + 1
        return hilbert(qls_pair(*orders), top).total

    # quantum linear spaces: rank one hits any order, rank two any
    # composite, and ranks three and four exactly the listed dimensions
    assert qls_total(8) == 8
    total = qls_total(2, 3)
    assert total == 6 and total not in (2, 3, 5, 7)  # composite, as listed
    rank3 = {(2, 2, 2): 8, (2, 2, 3): 12, (2, 2, 4): 16, (2, 3, 3): 18,
             (2, 2, 5): 20, (2, 3, 4): 24, (3, 3, 3): 27, (2, 2, 7): 28,
             (2, 3, 5): 30}
    for orders, want in rank3.items():
        assert qls_total(*orders) == want
    assert qls_total(2, 2, 2, 2) == 16
    assert qls_total(2, 2, 2, 3) == 24

    # type A2 witnesses for every dimension the table lists:
    # dim = N1 N2 M1 with the downstairs entry chosen to cancel
    def a2_pair(q11, q22):
        prod = q22.inverse()  # forces the ladder to stop after one rung
        return pairs.diagonal([[q11, prod], [plus, q22]])

    a2_witnesses = {
        8: pairs.diagonal([[minus, i4], [i4, minus]]),
        12: a2_pair(minus, root_of_unity(3, 1)),
        16: c4_pair(),
        20: a2_pair(minus, root_of_unity(5, 1)),
        27: a2_pair(root_of_unity(3, 1), root_of_unity(3, 1)),
        28: a2_pair(minus, root_of_unity(7, 1)),
    }
    for want, bp in a2_witnesses.items():
        res = analyze(pairs.is_diagonal(bp))
        assert res.verdict == "A2_equality", (want, res)
        assert res.bound == want
        assert cartan(pairs.is_diagonal(bp)) == [[2, -1], [-1, 2]]
        top = int(res.N1) + 2 * int(res.M[0]) + int(res.N2) - 3
        assert hilbert(bp, top + 1).total == want

    # products with a line realize both listed A2 x A1 dimensions
    def cross_line(bp, scalar_total):
        line = pairs.diagonal([[minus]])
        summed = pairs.direct_sum(bp, line, [plus] * bp.dim, [plus])
        res = hilbert(summed, 12)
        assert pairs.cross_square_is_identity(
            summed, list(range(bp.dim)), [bp.dim])
        # freeness along the decomposition: block dimensions divide through
        assert res.total == scalar_total
        assert scalar_total % 2 == 0
        return res.total

    assert cross_line(a2_witnesses[8], 16) == 16
    assert cross_line(a2_witnesses[12], 24) == 24

    # the three-dimensional exceptional pair and its product with a line
    v3 = pairs.v3(minus)
    assert hilbert(v3, 6).total == 12
    v3xa1 = pairs.direct_sum(v3, pairs.diagonal([[minus]]),
                             [plus, plus, plus], [plus])
    res = hilbert(v3xa1, 8)
    assert res.total == 24
    assert pairs.cross_square_is_identity(v3xa1, [0, 1, 2], [3])
    assert res.total == 12 * 2
    report(13, time.time() - t0, 600.0,
           "every listed dimension of every table row has a computed witness")


def test_criterion_14_oracle_equivalence():
    t0 = time.time()
    w3 = root_of_unity(3, 1)
    builtins = [
        pairs.v3(integer(-1)),
        pairs.v3(w3),
        pairs.v3(root_of_unity(6, 1)),
        pairs.v4(integer(-1), integer(1)),
        pairs.v4(integer(-1), integer(-1)),
        c4_pair(),
        c6_pair(),
        ms_d4_pair(),
        pairs.diagonal([[integer(-1), one()], [one(), w3]]),
    ]
    for bp in builtins:
        cache = GradedComputation(bp)
        for n in range(5):
            sym = symmetrizer(n)
            ech = Echelon()
            for word in range(bp.dim ** n):
                ech.insert(apply_elt(bp, sym, {word: ONE}, n))
            assert cache.dim(n) == ech.rank, (bp, n)
    report(14, time.time() - t0, 300.0,
           "derivation-coordinate engine equals brute-force symmetrizer "
           "ranks to degree 4")
