import pytest

from nichols.algebra import GradedComputation, adjoint, multiply
from nichols.linalg import Echelon, InvalidInput
from nichols.scalars import ONE, integer, one, rational, root_of_unity
from nichols.rank2 import (
    analyze,
    analyze_best,
    cartan,
    csgr_screen,
    finite_cartan_rank2,
    is_qls,
    nilpotency_order_formula,
    prime_signature,
    r_of,
    screen,
    smallest_prime_factor,
)
from nichols import pairs


C4_MATRIX = [[integer(-1), root_of_unity(4, 1)],
             [integer(-1), root_of_unity(4, 1)]]
C6_MATRIX = [[integer(-1), root_of_unity(3, 1)],
             [integer(-1), root_of_unity(3, 1)]]


def test_is_qls():
    assert is_qls([[integer(-1), one()], [one(), integer(-1)]]) == 4
    assert is_qls(C4_MATRIX) is None
    # orders p and p^2 with cancelling cross entries: dimension p^3
    w = root_of_unity(3, 1)
    q9 = root_of_unity(9, 1)
    assert is_qls([[w, q9], [q9 ** -1, q9]]) == 27
    assert is_qls([[one()]]) is None


def test_analyze_c4():
    res = analyze(C4_MATRIX)
    assert (res.N1, res.N2) == (2, 4)
    assert res.t == 1
    assert res.r == 1
    assert res.M == [2]
    assert res.bound == 16
    assert res.verdict == "A2_equality"
    assert res.hypothesis_order2


def test_analyze_c6():
    res = analyze(C6_MATRIX)
    assert (res.N1, res.N2) == (2, 3)
    assert res.t is None
    assert res.r == 2
    assert res.M == [3, 2]
    assert res.bound == 36
    assert res.verdict == "r2_conditional_holds"
    assert res.condition == "-q22"


def test_analyze_qls_and_degenerate():
    res = analyze([[integer(-1), one()], [one(), root_of_unity(3, 1)]])
    assert res.verdict == "QLS"
    assert res.bound == 6
    res = analyze([[one(), root_of_unity(3, 1)],
                   [root_of_unity(3, 1), integer(-1)]])
    assert res.verdict == "bound_only"
    assert res.bound is None
    assert res.warning


def test_conditional_fails_case():
    # N1 = 2, N2 = 3, r = 2, ladder orders finite, and the off-diagonal
    # product i avoids -1, q22 and -q22: the bound is not attained
    i4 = root_of_unity(4, 1)
    mat = [[integer(-1), i4], [one(), root_of_unity(3, 1)]]
    res = analyze(mat)
    assert (res.N1, res.N2) == (2, 3)
    assert res.r == 2
    assert res.hypothesis_order2
    assert res.M == [12, 3]
    assert res.bound == 216
    assert res.verdict == "r2_conditional_fails"
    assert res.condition is None


def test_conditional_failure_really_exceeds_the_bound():
    # when the case-3 condition fails the algebra grows past the bound
    i4 = root_of_unity(4, 1)
    mat = [[integer(-1), i4], [one(), root_of_unity(3, 1)]]
    res = analyze(mat)
    assert res.verdict == "r2_conditional_fails"
    bp = pairs.diagonal(mat)
    cache = GradedComputation(bp)
    total = 0
    for n in range(19):
        dim = cache.dim(n)
        assert dim > 0
        total += dim
    assert total > res.bound


def test_infinite_ladder_is_flagged():
    # an off-diagonal product that sends a ladder order to infinity
    z12 = root_of_unity(12, 1)
    mat = [[integer(-1), z12], [one(), root_of_unity(3, 1)]]
    res = analyze(mat)
    assert res.bound is None
    assert res.verdict == "bound_only"


def test_analyze_best_swaps():
    swapped = [[C4_MATRIX[1][1], C4_MATRIX[1][0]],
               [C4_MATRIX[0][1], C4_MATRIX[0][0]]]
    res, was_swapped = analyze_best(swapped)
    assert res.bound == 16
    assert res.verdict == "A2_equality"


def test_cartan_matrices():
    assert cartan(C4_MATRIX) == [[2, -1], [-1, 2]]
    assert cartan(C6_MATRIX) == [[2, -1], [-2, 2]]
    qls = [[integer(-1), one()], [one(), integer(-1)]]
    assert cartan(qls) == [[2, 0], [0, 2]]
    assert finite_cartan_rank2([[2, -1], [-1, 2]])
    assert finite_cartan_rank2([[2, -1], [-2, 2]])
    assert finite_cartan_rank2([[2, -1], [-3, 2]])
    assert not finite_cartan_rank2([[2, -2], [-2, 2]])
    # the all-ones matrix is a quantum linear space: adjoints die at once
    assert cartan([[one(), one()], [one(), one()]]) == [[2, 0], [0, 2]]
    with pytest.raises(ValueError):
        # self-braiding one with a nontrivial product never terminates
        cartan([[one(), root_of_unity(3, 1)], [one(), one()]])


def test_nilpotency_formula_values():
    q = [[integer(-1), root_of_unity(4, 1)], [integer(-1), root_of_unity(4, 1)]]
    assert nilpotency_order_formula(q, 0, 1) == 2
    assert nilpotency_order_formula(q, 1, 0) == 2
    w = root_of_unity(3, 1)
    qls = [[w, w], [w ** -1, w]]
    assert nilpotency_order_formula(qls, 0, 1) == 1


def test_non_root_diagonal_entry_is_invalid():
    # q_22 = 2: the least t with 2^t (1/2) = 1 is 1, which a search bounded
    # by N(q_22) never reaches, so the formula refuses instead of answering
    q = [[integer(-1), one()], [rational(1, 2), integer(2)]]
    with pytest.raises(InvalidInput):
        nilpotency_order_formula(q, 1, 0)
    with pytest.raises(InvalidInput):
        analyze(q)
    with pytest.raises(InvalidInput):
        cartan([[integer(2), one()], [rational(1, 2), integer(-1)]])
    # q_ii = 1 stays exact: t = 0 or no t at all
    assert nilpotency_order_formula([[one(), one()], [one(), integer(2)]],
                                    0, 1) == 1
    assert nilpotency_order_formula([[one(), integer(2)], [one(), one()]],
                                    0, 1) is None


def test_analyze_rejects_non_root_diagonal_entries():
    # refused up front, also on the QLS shortcut and on the N(q_11)-infinite
    # early return, which never reach the formula, as cartan refuses them
    for q in ([[integer(2), one()], [one(), integer(2)]],
              [[integer(2), one()], [integer(3), integer(-1)]]):
        with pytest.raises(InvalidInput):
            analyze(q)
        with pytest.raises(InvalidInput):
            cartan(q)


def test_r_of_and_screen():
    assert r_of(8) == 3
    assert r_of(12) == 3
    assert smallest_prime_factor(35) == 5
    assert [smallest_prime_factor(n) for n in (2, 3, 4, 9, 49, 97, 1001)] \
        == [2, 3, 2, 3, 7, 97, 7]
    for n in (1, 0, -4):
        with pytest.raises(ValueError):
            smallest_prime_factor(n)
    assert prime_signature(12) == [(2, 2), (3, 1)]
    # dimension p^3 forces at most three primitive generators
    assert screen(8, 3, 3)
    assert not screen(8, 4, 1)
    # r(12) < 4 so dimension at most 3
    assert screen(12, 3, 3)
    assert not screen(12, 4, 1)
    # theta bounded by the sum of prime multiplicities
    assert not screen(12, 1, 4)
    with pytest.raises(ValueError):
        r_of(1)


def test_r_of_is_exact_at_prime_powers():
    # r(p^k) = k, also at 125 and 243 where log(n, p) in floating point
    # gives 3.0000000000000004 and 4.999999999999999
    for p in (2, 3, 5, 7):
        for k in range(1, 8):
            assert r_of(p ** k) == k
    assert type(r_of(243)) is int
    # the defining inequalities p^r <= n < p^(r+1), p the least prime
    # factor, on every n up to 3000, so also just below each power
    for n in range(2, 3001):
        p, r = smallest_prime_factor(n), r_of(n)
        assert p ** r <= n < p ** (r + 1)


def test_screen_matches_r_of():
    for n in range(2, 501):
        for d in range(1, 11):
            assert screen(n, d, 1) == (d <= r_of(n))


def test_csgr_screen():
    assert csgr_screen(3, integer(-1))
    assert not csgr_screen(3, root_of_unity(3, 1))
    assert csgr_screen(2, root_of_unity(3, 1))
    assert not csgr_screen(2, root_of_unity(5, 1))
    assert csgr_screen(1, root_of_unity(5, 1))


def test_pbw_monomials_are_independent():
    """The ladder monomials x1^a z1^b ... x2^c, built through the adjoint
    and the shuffle product, stay linearly independent inside the graded
    components: checked for the two concrete rank-2 examples."""
    for matrix, orders in ((C4_MATRIX, None), (C6_MATRIX, None)):
        bp = pairs.diagonal(matrix)
        res = analyze(matrix)
        cache = GradedComputation(bp)
        # ladder elements z_i in tensor coordinates, degrees i + 1
        zs = []
        z = {0: ONE}
        deg = 1
        for i in range(res.r):
            z = adjoint(bp, 1, z, deg)
            deg += 1
            zs.append((dict(z), deg))
        # assemble all monomials, bucketed by total degree
        x1 = ({0: ONE}, 1)
        x2 = ({1: ONE}, 1)
        factors = []
        n1, n2 = int(res.N1), int(res.N2)
        ms = [int(m) for m in res.M]
        buckets = {}
        import itertools
        ranges = [range(n1)] + [range(m) for m in ms] + [range(n2)]
        for expo in itertools.product(*ranges):
            parts = []
            for power, (base, base_deg) in zip(
                    expo, [x1] + list(zs) + [x2]):
                parts.extend([(base, base_deg)] * power)
            cur = ({0: ONE}, 0)
            for base, base_deg in parts:
                cur = (multiply(bp, cur[0], base, cur[1], base_deg),
                       cur[1] + base_deg)
            buckets.setdefault(cur[1], []).append(cur[0])
        total = 0
        for deg, vecs in sorted(buckets.items()):
            ech = Echelon()
            for v in vecs:
                assert v, "monomial collapsed to zero"
                assert ech.insert(v) is not None, "monomials are dependent"
            total += len(vecs)
        assert total == res.bound


def test_fraction_entries_are_scalars():
    # a Fraction goes through the same coercion as in pairs: q_11 = 1/2 is
    # not a root of unity, so the analysis refuses it as invalid input
    from fractions import Fraction
    with pytest.raises(InvalidInput):
        analyze([[Fraction(1, 2), 1], [1, -1]])
    res = analyze([[Fraction(-1), 1], [1, Fraction(-1)]])
    assert res.verdict == "QLS" and res.bound == 4
    with pytest.raises(TypeError, match="0.5"):
        is_qls([[0.5, 1], [1, -1]])
