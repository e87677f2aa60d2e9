import random
import time
from types import SimpleNamespace

import pytest

from nichols.braids import sigma_pass
from nichols.linalg import InvalidInput, encode_word
from nichols.scalars import ONE, integer, one, root_of_unity, zero
from nichols import algebra, cli, pairs, quandles
from nichols.groups import (
    centralizer,
    conjugacy_class,
    cyclic,
    cyclic_character,
    dihedral,
    symmetric,
)


def braiding_of(bp, i, j):
    return dict(bp.braiding_terms(i, j))


def test_diagonal_convention_and_matrix_view():
    q01 = root_of_unity(4, 1)
    bp = pairs.diagonal([[integer(-1), q01], [one(), integer(-1)]])
    assert braiding_of(bp, 0, 1) == {(1, 0): q01}
    mat = bp.matrix()
    # column i*d+j holds c(x_i (x) x_j); row index k*d+l
    assert mat[encode_word((1, 0), 2)][encode_word((0, 1), 2)] == q01
    assert mat[encode_word((0, 1), 2)][encode_word((0, 1), 2)] == zero()
    diag = pairs.is_diagonal(bp)
    assert diag[0][1] == q01
    with pytest.raises(ValueError):
        pairs.diagonal([[integer(-1), zero()], [one(), integer(-1)]])


def test_check_passes_for_constructors():
    w = root_of_unity(3, 1)
    several = [
        pairs.diagonal([[integer(-1), w], [integer(-1), w]]),
        pairs.v3(integer(-1)),
        pairs.v3(w),
        pairs.v4(integer(-1), integer(1)),
        pairs.v4(integer(-1), integer(-1)),
        pairs.two_by_two(integer(-1), integer(-1), integer(1), integer(1),
                         one(), one()),
    ]
    for bp in several:
        diag = pairs.check(bp)
        assert diag["braid_equation"]
        assert diag["invertible"]
        assert diag["grouplikes_consistent"]


def first_braid_failure(dim, cmap):
    """Oracle: the least basis word of the triple tensor power on which
    (c x id)(id x c)(c x id) and (id x c)(c x id)(id x c) differ, or None;
    each word is crossed on its own, one Cyc term at a time."""
    for w in range(dim ** 3):
        vec = {w: ONE}
        lhs = vec
        for k in (1, 2, 1):
            lhs = sigma_pass(cmap, dim, 3, lhs, k)
        rhs = vec
        for k in (2, 1, 2):
            rhs = sigma_pass(cmap, dim, 3, rhs, k)
        if lhs != rhs:
            return w
    return None


def test_braid_failure_report_names_the_least_failing_word():
    rng = random.Random(16)
    roots = [root_of_unity(m, e) for m in (1, 2, 3, 4) for e in range(m)]
    cmaps = []
    for d in (2, 2, 3, 3, 3, 3, 3, 3):
        # a diagonal braiding with one column sent to a random other word,
        # so that the least failing word moves away from 0
        cmap = [[(j * d + i, rng.choice(roots))]
                for i in range(d) for j in range(d)]
        p = rng.randrange(d * d)
        cmap[p] = [(rng.randrange(d * d), rng.choice(roots))]
        cmaps.append((d, cmap))
    for d in (2, 3):
        targets = list(range(d * d))
        rng.shuffle(targets)
        cmaps.append((d, [[(t, rng.choice(roots))] for t in targets]))
    # a dense 2 x 2 braiding: every entry of the 4 x 4 matrix nonzero
    cmaps.append((2, [[(kl, integer(1 + (3 * p + kl) % 4)) for kl in range(4)]
                      for p in range(4)]))
    failures = set()
    for d, cmap in cmaps:
        want = first_braid_failure(d, cmap)
        bp = pairs.BraidedPair(d, cmap, validate=False)
        assert pairs.check(bp)["braid_failure"] == want
        if want is not None:
            failures.add(want)
            with pytest.raises(InvalidInput,
                               match=f"^braid equation fails at basis "
                                     f"tensor {want}$"):
                pairs.BraidedPair(d, cmap)
    assert len(failures) >= 5  # not all at word 0


def test_malformed_grouplikes_are_invalid_input():
    # both once escaped as IndexError from the per-word comparison
    bp = pairs.v3(-1)
    for grouplikes in ([[[1]]], bp.grouplikes[:2]):
        with pytest.raises(InvalidInput,
                           match="group-like actions do not match"):
            pairs.BraidedPair(3, bp.cmap, grouplikes)


def test_cross_square_against_the_diagonal_entries():
    w = root_of_unity(6, 1)
    q = [[integer(-1), w, one()], [w.inverse(), w * w, integer(-1)],
         [one(), one(), w * w * w]]
    bp = pairs.diagonal(q)
    for i in range(3):
        for j in range(3):
            assert pairs.cross_square_is_identity(bp, [i], [j]) == (
                q[i][j] * q[j][i] == one())
    assert pairs.cross_square_is_identity(bp, [0, 2], [0, 2])
    assert not pairs.cross_square_is_identity(bp, [0, 1], [2])


def test_v3_examples():
    bp = pairs.v3(integer(-1))
    assert braiding_of(bp, 0, 1) == {(2, 0): integer(-1)}
    q = root_of_unity(9, 1)
    bp9 = pairs.v3(q)
    assert braiding_of(bp9, 0, 0) == {(0, 0): q}
    assert braiding_of(bp9, 1, 1) == {(1, 1): q}
    # c^3 = q^3 id on the square tensor power
    q3 = root_of_unity(3, 1)
    bp3 = pairs.v3(q3)
    cube = q3 ** 3
    for w in range(9):
        vec = {w: ONE}
        for _ in range(3):
            vec = sigma_pass(bp3.cmap, 3, 2, vec, 1)
        assert vec == {w: cube}


def test_v4_examples():
    bp = pairs.v4(integer(-1), integer(1))
    assert braiding_of(bp, 0, 1) == {(2, 0): integer(-1)}
    for i in range(4):
        assert braiding_of(bp, i, i) == {(i, i): integer(-1)}
    with pytest.raises(ValueError):
        pairs.v4(integer(-1), integer(2))
    # alpha = -1: the braiding cubes to the identity off the diagonal
    bpm = pairs.v4(integer(-1), integer(-1))
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            w = encode_word((i, j), 4)
            vec = {w: ONE}
            for _ in range(3):
                vec = sigma_pass(bpm.cmap, 4, 2, vec, 1)
            assert vec == {w: ONE}


def test_two_by_two_block_and_cross_formulas():
    q1 = integer(-1)
    eta = one()
    bp = pairs.two_by_two(q1, q1, eta, eta, one(), one())
    # block on (x1, x1') is the 2x2 diagonal-type matrix [[q1, q1], [q1, q1]]
    sub = pairs.restrict(bp, [0, 1])
    mat = pairs.is_diagonal(sub)
    assert mat[0][0] == q1 and mat[0][1] == eta * q1
    assert mat[1][0] == eta * q1 and mat[1][1] == q1
    # c(x1' (x) x2) = eta2 x2' (x) x1'
    assert braiding_of(bp, 1, 2) == {(3, 1): eta}
    # c(x1 (x) x2) = x2' (x) x1
    assert braiding_of(bp, 0, 2) == {(3, 0): one()}
    # c(x2 (x) x1') = alpha1 x1 (x) x2
    assert braiding_of(bp, 2, 1) == {(0, 2): one()}


def test_two_by_two_z_basis_diagonalizes():
    bp = pairs.two_by_two(integer(-1), integer(-1), one(), one(), one(), one())
    zb = pairs.change_basis(bp, pairs.two_by_two_z_basis(one(), one()))
    q = pairs.is_diagonal(zb)
    assert q is not None
    # within each block the matrix is [[-1, *], [*, -1]]
    for i in range(4):
        assert q[i][i] == integer(-1)
    assert pairs.cross_square_is_identity(zb, [0, 1], [2, 3])


def test_from_cocycle_matches_v3():
    xset = quandles.zmod3_crossed_set()
    f = quandles.Cochain2.constant(xset, 2, 1)
    bp = pairs.from_cocycle(xset, f)
    assert bp.cmap == pairs.v3(integer(-1)).cmap
    xset = quandles.dihedral_crossed_set(3)
    for m in (1, 2, 3, 4, 6, 9, 12):
        for e in range(m):
            f = quandles.Cochain2.constant(xset, m, e)
            assert (pairs.v3(root_of_unity(m, e)).cmap
                    == pairs.from_cocycle(xset, f).cmap)
    flip = pairs.from_cocycle(quandles.trivial_crossed_set(2),
                              quandles.Cochain2.constant(
                                  quandles.trivial_crossed_set(2), 2, 0))
    assert braiding_of(flip, 0, 1) == {(1, 0): one()}
    assert braiding_of(flip, 1, 0) == {(0, 1): one()}


def test_two_by_two_is_a_crossed_set_braiding():
    table = [[0, 1, 3, 2]] * 2 + [[1, 0, 2, 3]] * 2
    quandles.CrossedSet(table)  # validates the crossed-set axioms
    bp = pairs.two_by_two(integer(-1), integer(-1), one(), one(), one(), one())
    for i in range(4):
        for j in range(4):
            assert list(braiding_of(bp, i, j)) == [(table[i][j], i)]


def test_v4_is_a_cocycle_on_the_tetrahedral_crossed_set():
    from math import lcm
    table = [[target for target, _ in row] for row in pairs._V4_TABLE]
    xset = quandles.CrossedSet(table, name="tetrahedral")  # validates it
    for m in (1, 2, 3, 4, 5, 6, 8, 12):  # 82 cases
        big = lcm(m, 2)
        for e in range(m):
            for alpha in (1, -1):
                shift = big // 2 if alpha == -1 else 0
                f = quandles.Cochain2(big, [
                    [e * big // m + (shift if takes_alpha else 0)
                     for _, takes_alpha in row] for row in pairs._V4_TABLE])
                bp = pairs.from_cocycle(xset, f)
                v4 = pairs.v4(root_of_unity(m, e), alpha)
                assert bp.cmap == v4.cmap
                assert bp.grouplikes == v4.grouplikes


def test_from_cocycle_rejects_non_braidings():
    xset = quandles.zmod3_crossed_set()
    bad = quandles.Cochain2(4, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    if not bad.is_cocycle(xset):
        with pytest.raises(ValueError):
            pairs.from_cocycle(xset, bad)
    else:
        pytest.skip("randomly chosen cochain happened to braid")


def test_cocycle_diagonal_rigidity():
    # for a two-cocycle and k |> i = j the diagonal values f(i,i), f(j,j)
    # agree; exercised on constants shifted by random coboundaries
    import random
    rng = random.Random(3)
    xset = quandles.dihedral_crossed_set(5)
    m = 6
    for _ in range(6):
        g = [rng.randrange(m) for _ in range(5)]
        shift = rng.randrange(m)
        table = [[(shift + g[j] - g[xset.act(i, j)]) % m for j in range(5)]
                 for i in range(5)]
        f = quandles.Cochain2(m, table)
        assert f.is_cocycle(xset)
        for k in range(5):
            for i in range(5):
                j = xset.act(k, i)
                assert (f.exponents[i][i] - f.exponents[j][j]) % m == 0


def test_yd_module_one_dimensional_cases():
    c2 = cyclic(2)
    chi = cyclic_character(c2, 1, integer(-1))
    bp = pairs.yd_module(c2, [(1, chi)])
    assert bp.dim == 1
    assert braiding_of(bp, 0, 0) == {(0, 0): integer(-1)}
    c4 = cyclic(4)
    i = root_of_unity(4, 1)
    chi4 = cyclic_character(c4, 1, i)
    bp4 = pairs.yd_module(c4, [(1, chi4)])
    assert bp4.dim == 1
    assert braiding_of(bp4, 0, 0) == {(0, 0): i}


def test_yd_module_s3_three_cycle():
    s3 = symmetric(3)
    # pick a three-cycle and its centralizer character sending it to omega
    three = next(g for g in s3.elements()
                 if g != s3.identity and s3.mul(g, s3.mul(g, g)) == s3.identity
                 and s3.mul(g, g) != s3.identity)
    w = root_of_unity(3, 1)
    chi = cyclic_character(s3, three, w)
    bp = pairs.yd_module(s3, [(three, chi)])
    assert bp.dim == 2
    # the two class elements commute, so the braiding is diagonal with
    # matrix [[w, w^2], [w^2, w]]
    q = pairs.is_diagonal(bp)
    assert q is not None
    assert q[0][0] == w and q[1][1] == w
    assert q[0][1] == w * w and q[1][0] == w * w


def test_direct_sum_c4_example():
    # the two one-dimensional summands over the cyclic group of order four:
    # group-likes sigma^2 and sigma, both acting through the same character
    # chi(sigma) = i; the cross actions (sigma^2 on the second line by
    # chi(sigma^2) = -1, sigma on the first by i) come from the group
    c4 = cyclic(4)
    i = root_of_unity(4, 1)
    chi = cyclic_character(c4, 1, i)
    total = pairs.yd_module(c4, [(2, chi), (1, chi)])
    q = pairs.is_diagonal(total)
    assert q is not None
    # rows are constant: the scalar depends on the acting group-like only
    assert q == [[integer(-1), integer(-1)], [i, i]]
    # the column-constant transpose is the same data in the opposite
    # braiding bookkeeping; all rank-2 invariants agree between the two
    flipped = pairs.is_diagonal(pairs.transpose(total))
    assert flipped == [[integer(-1), i], [integer(-1), i]]
    # direct_sum is for pairs without group data, and needs group-likes
    m1 = pairs.yd_module(c4, [(1, chi)])
    with pytest.raises(ValueError):
        pairs.direct_sum(pairs.transpose(m1), m1, [i], [i * i])


def transposition(s4):
    return next(x for x in s4.elements()
                if s4.mul(x, x) == s4.identity
                and len(conjugacy_class(s4, x)) == 6)


def fomin_kirillov_e4():
    # the transposition class of S4 with the constant cocycle -1
    s4 = symmetric(4)
    xset = quandles.conjugation_crossed_set(s4, [transposition(s4)])
    return pairs.from_cocycle(xset, quandles.Cochain2.constant(xset, 2, 1))


def forbid_transpose(monkeypatch):
    """Make ``pairs.transpose`` raise, so that building the transposed pair
    fails the test."""
    def transpose(bp):
        raise AssertionError("the transposed pair was built")
    monkeypatch.setattr(pairs, "transpose", transpose)


def memo_short_of_a_kernel(cache):
    """Whether each degree's memo of words reduced by the lower rules (the
    ``reduced`` of its record), where it holds any, misses one of the
    d^n - b_n - k_n words, neither normal nor leading a rule, that
    ``algebra.kernel_basis`` reduces, every one of them, to give the
    kernel.  The memo also holds candidate words that reductions pass
    through, and the engine's own right multiplications reduce most words
    of a low degree, so its size alone can pass d^n - b_n with no kernel
    built (degree 3 of Aff(7,3): 296 words of 343)."""
    d = cache.bp.dim
    for n, deg in enumerate(cache._degrees):
        normal, rules, memo = deg.phis, deg.rules, deg.reduced
        reduced = sum(w not in normal and w not in rules for w in memo)
        if memo and reduced >= d ** n - len(normal) - len(rules):
            return False
    return True


def test_yd_module_e4_yardstick():
    # the transpositions of S4 with a character of the centralizer
    # C(t) = {1, t, a, ta} (Z/2 x Z/2) sending t to -1: the 576-dimensional
    # Fomin-Kirillov algebra E4, equal to the constant cocycle -1 on the
    # conjugation crossed set
    s4 = symmetric(4)
    t = transposition(s4)
    want = algebra.hilbert(fomin_kirillov_e4(), 13).dims
    assert want == [1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1, 0]
    for a in centralizer(s4, t):
        if a in (s4.identity, t):
            continue
        chi = {s4.identity: 1, t: -1, a: 1, s4.mul(t, a): -1}
        res = algebra.hilbert(pairs.yd_module(s4, [(t, chi)]), 13)
        assert res.dims == want and res.total == 576


def test_e4_is_quadratic_through_degree_thirteen(monkeypatch):
    # Fomin-Kirillov: E4 has 17 quadratic relations and no others, here
    # through degree 13, one past the top degree; the count reads the
    # overlaps of the rewriting rules, where the tensor ideal of degree 6
    # alone (6^6 words) took 13.6 s; degree 13, past the top, has no
    # candidate word, so neither a normal word nor a rule
    bp = fomin_kirillov_e4()
    forbid_transpose(monkeypatch)
    cache = algebra.GradedComputation(bp)
    t0 = time.perf_counter()
    counts = [algebra.relation_count(bp, n, cache) for n in range(2, 14)]
    assert time.perf_counter() - t0 < 10.0
    assert counts == [17] + [0] * 11
    assert cache._degree(13).phis == cache._degree(13).rules == {}
    assert algebra.relations(bp, 7, cache) == []
    assert memo_short_of_a_kernel(cache)


def test_yd_module_d4_yardstick():
    # two classes of reflections in the dihedral group of order eight
    # (element 2a+b is r^a s^b): the 64-dimensional algebra of ms-d4
    d4 = dihedral(4)
    chi1 = {0: 1, 1: -1, 4: 1, 5: -1}
    chi2 = {0: 1, 3: -1, 4: 1, 7: -1}
    bp = pairs.yd_module(d4, [(1, chi1), (3, chi2)])
    assert bp.dim == 4
    want = algebra.hilbert(
        pairs.two_by_two(-1, -1, 1, 1, 1, 1), 9).dims
    assert want == [1, 4, 8, 12, 14, 12, 8, 4, 1, 0]
    assert algebra.hilbert(bp, 9).dims == want


def test_yd_module_rejects_a_character_missing_a_centralizer_element():
    # the centralizer {0, 1, 4, 5} of the reflection s in the dihedral group
    # of order eight is not cyclic, so the character of <s> misses 4 and 5
    d4 = dihedral(4)
    with pytest.raises(ValueError, match="element 4"):
        pairs.yd_module(d4, [(1, cyclic_character(d4, 1, -1))])


def test_yd_module_rejects_an_element_outside_the_group():
    with pytest.raises(ValueError, match="element 7 is not in the group"):
        pairs.yd_module(cyclic(4), [(7, {0: 1})])


def test_direct_sum_rejects_a_cross_matrix_of_the_wrong_shape():
    # the group-likes of v3(-1) act on the line by 1 x 1 matrices and the
    # line's acts on v3(-1) by a 3 x 3 one; a 2 x 2 matrix was cut to its
    # corner
    v, line = pairs.v3(-1), pairs.diagonal([[-1]])
    with pytest.raises(ValueError, match=r"cross_ab\[0\] must be a 1 x 1"):
        pairs.direct_sum(v, line, [[[1, 0], [0, 1]]] * 3, [1])
    with pytest.raises(ValueError, match=r"cross_ba\[0\] must be a 3 x 3"):
        pairs.direct_sum(v, line, [1] * 3, [[[1, 0], [0, 1]]])
    assert pairs.direct_sum(v, line, [[[1]]] * 3, [1]).dim == 4


def test_find_decomposition():
    w = root_of_unity(3, 1)
    diag = pairs.diagonal([[integer(-1), w], [integer(-1), w]])
    assert pairs.find_decomposition(diag).blocks == [[0], [1]]
    assert pairs.find_decomposition(pairs.v3(integer(-1))).blocks == [[0, 1, 2]]
    bp = pairs.two_by_two(integer(-1), integer(-1), one(), one(), one(), one())
    assert pairs.find_decomposition(bp).blocks == [[0, 1], [2, 3]]


def test_transpose_squares_to_identity():
    bp = pairs.v4(integer(-1), integer(-1))
    back = pairs.transpose(pairs.transpose(bp))
    assert back.cmap == bp.cmap


# every CLI builtin, with its parameters
BUILTINS = [
    ("v3", {"q": "-1"}), ("v3", {"q": "z3"}), ("v3", {"q": "z6"}),
    ("v4", {"q": "-1", "alpha": "1"}), ("v4", {"q": "-1", "alpha": "-1"}),
    ("c4-a2", {}), ("c6-b2", {}), ("ms-d4", {}),
    ("qls", {"orders": "3,4,5"}), ("v3-a1", {}),
]


@pytest.mark.parametrize("name,params", BUILTINS,
                         ids=[f"{n}-{'-'.join(p.values())}".rstrip("-")
                              for n, p in BUILTINS])
def test_transpose_of_a_builtin_passes_check(name, params):
    # transpose builds without validation; the check it skips still holds
    bp = cli._builtin_pair(name, SimpleNamespace(**params))
    flipped = pairs.transpose(bp)
    assert pairs.check(flipped) == {
        "braid_equation": True, "braid_failure": None, "invertible": True,
        "grouplikes_consistent": True}
    assert pairs.transpose(flipped).cmap == bp.cmap


def test_transpose_runs_no_check(monkeypatch):
    bp = pairs.v4(integer(-1), integer(1))

    def refuse(_):
        raise AssertionError("transpose validated its pair")

    monkeypatch.setattr(pairs, "check", refuse)
    assert pairs.transpose(bp).dim == 4


def test_restrict_rejects_leaky_blocks():
    bp = pairs.v3(integer(-1))
    with pytest.raises(ValueError):
        pairs.restrict(bp, [0, 1])


def test_grouplike_metadata_matches_braiding():
    # m(sigma, chi) group-likes: conjugates t_j act with the same scalar on
    # their own line
    s3 = symmetric(3)
    three = next(g for g in s3.elements()
                 if g != s3.identity and s3.mul(g, s3.mul(g, g)) == s3.identity
                 and s3.mul(g, g) != s3.identity)
    w = root_of_unity(3, 1)
    bp = pairs.yd_module(s3, [(three, cyclic_character(s3, three, w))])
    for i in range(bp.dim):
        assert braiding_of(bp, i, i) == {(i, i): w}


def test_scalar_arguments_share_one_coercion():
    # ints, Fractions and Cyc values build the same pair; anything else is
    # a TypeError that names the value
    from fractions import Fraction
    from nichols.scalars import rational
    a = pairs.diagonal([[Fraction(-1), Fraction(1, 2)], [2, -1]])
    b = pairs.diagonal([[integer(-1), rational(1, 2)], [integer(2), -1]])
    assert a.cmap == b.cmap
    with pytest.raises(TypeError, match="1.5"):
        pairs.v3(1.5)
    with pytest.raises(TypeError, match="'x'"):
        pairs.change_basis(pairs.v3(-1), [[1, 0, 0], [0, 1, 0], [0, 0, "x"]])
