import random
from itertools import combinations, permutations

from nichols.braids import (
    GroupAlgElt,
    apply_elt,
    block,
    d_elt,
    matsumoto_section,
    perm_inv,
    perm_length,
    perm_mul,
    r_elt,
    s_shuffle,
    shuffles,
    sigma_pass,
    symmetrizer,
    symmetrizer_apply,
    t1_apply,
    t_shuffle,
    transposition,
    u_elt,
    verify_identity,
)
from nichols.identities import standard_suite
from nichols.linalg import encode_word
from nichols.scalars import ONE, integer, one, root_of_unity
from nichols import pairs


def brute_lex_least_reduced(p):
    """Oracle: enumerate all words of minimal length equal to p, return the
    lexicographically least."""
    n = len(p)
    length = perm_length(p)
    if length == 0:
        return ()
    gens = list(range(1, n))
    for word in _words(gens, length):  # yields in lexicographic order
        cur = tuple(range(n))
        for i in word:  # first letter composes outermost
            cur = perm_mul(cur, transposition(n, i))
        if cur == p:
            return word
    raise AssertionError("no reduced word found")


def _words(gens, length):
    if length == 0:
        yield ()
        return
    for first in gens:
        for rest in _words(gens, length - 1):
            yield (first,) + rest


def test_matsumoto_examples():
    assert matsumoto_section((0, 1, 2)) == ()
    assert matsumoto_section((1, 0)) == (1,)
    # longest element of the symmetric group on three letters
    assert matsumoto_section((2, 1, 0)) == (1, 2, 1)


def test_matsumoto_is_lex_least_reduced():
    for p in permutations(range(3)):
        assert matsumoto_section(p) == brute_lex_least_reduced(p)
    rng = random.Random(5)
    perms4 = list(permutations(range(4)))
    for p in rng.sample(perms4, 8):
        assert matsumoto_section(p) == brute_lex_least_reduced(p)


def test_matsumoto_multiplicative_when_lengths_add():
    suite = standard_suite(count=3, max_order=6, seed=99)
    for n in (3, 4):
        for x in permutations(range(n)):
            for y in permutations(range(n)):
                xy = perm_mul(x, y)
                if perm_length(xy) != perm_length(x) + perm_length(y):
                    continue
                lhs = GroupAlgElt.from_word(n, matsumoto_section(xy))
                rhs = (GroupAlgElt.from_word(n, matsumoto_section(x))
                       * GroupAlgElt.from_word(n, matsumoto_section(y)))
                if lhs.terms == rhs.terms:
                    continue  # syntactically equal already
                assert verify_identity(lhs, rhs, suite).ok


def independent_shuffles(i, j):
    """Oracle: an (i,j)-shuffle is determined by the positions of the first
    block; build each directly from a combination."""
    out = set()
    for places in combinations(range(i + j), i):
        inv = [None] * (i + j)
        rest = [p for p in range(i + j) if p not in places]
        for k, p in enumerate(places):
            inv[k] = p
        for k, p in enumerate(rest):
            inv[i + k] = p
        out.add(perm_inv(tuple(inv)))
    return out


def test_shuffles_against_independent_construction():
    assert set(shuffles((1, 1))) == {(0, 1), (1, 0)}
    from math import comb
    for i, j in ((1, 2), (2, 2), (2, 3), (3, 1)):
        got = set(shuffles((i, j)))
        assert got == independent_shuffles(i, j)
        assert len(got) == comb(i + j, i)
    assert len(shuffles((1, 1, 2))) == 12  # multinomial 4!/(1!1!2!)


def test_formal_elements():
    u = u_elt(3, 2, 1)
    assert u.terms == {(2, 1): ONE}
    d = d_elt(4, 3, 1)
    assert d.terms == {(1, 2, 3): ONE}
    r = r_elt(3, 2, 2)
    assert len(r) == 2  # e - s2 s2
    assert r.terms[()] == ONE
    assert r.terms[(2, 2)] == -one()
    s3 = symmetrizer(3)
    assert set(s3.terms) == {(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)}


def _canonicalize_positive(elt):
    """Rewrite every term's word as the canonical lift of its permutation;
    valid for sums of reduced positive words (products of lifts whose
    lengths add stay reduced, but need not be the lex-least word)."""
    n = elt.strands
    out = {}
    for word, coeff in elt.terms.items():
        cur = tuple(range(n))
        for i in word:
            assert i > 0
            cur = perm_mul(cur, transposition(n, i))
        assert perm_length(cur) == len(word), "product word is not reduced"
        key = matsumoto_section(cur)
        assert key not in out, "duplicate lift"
        out[key] = coeff
    return out


def test_shuffle_factorizations():
    # block symmetrizers times shuffle sums give the full symmetrizer,
    # and inverse-shuffle sums times block symmetrizers do too; equality
    # holds termwise after canonicalizing each product word
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3)):
        n = i + j
        full = symmetrizer(n)
        blocks = block(symmetrizer(i), symmetrizer(j))
        lhs = blocks * s_shuffle(i, j)
        rhs = t_shuffle(i, j) * blocks
        assert _canonicalize_positive(lhs) == full.terms
        assert _canonicalize_positive(rhs) == full.terms


def test_apply_diagonal_examples():
    q = root_of_unity(5, 1)
    bp = pairs.diagonal([[q]])
    # S^2 on x (x) x gives (1 + q) x (x) x
    out = symmetrizer_apply(bp, 2, {0: ONE})
    assert out == {0: one() + q}
    q01 = root_of_unity(3, 1)
    bp2 = pairs.diagonal([[integer(-1), q01], [one(), integer(-1)]])
    # crossing sends x_0 (x) x_1 to q_01 x_1 (x) x_0
    vec = {encode_word((0, 1), 2): ONE}
    out = sigma_pass(bp2.cmap, 2, 2, vec, 1)
    assert out == {encode_word((1, 0), 2): q01}
    # identity element leaves vectors alone
    out = apply_elt(bp2, GroupAlgElt.unit(2), vec, 2)
    assert out == vec


def test_symmetrizer_apply_against_brute_force():
    rng = random.Random(31)
    suite = standard_suite(count=3, max_order=8, seed=17)
    suite.append(pairs.v3(integer(-1)))
    for bp in suite:
        d = bp.dim
        for n in (2, 3, 4, 5):
            sym = symmetrizer(n)
            for _ in range(3):
                vec = {rng.randrange(d ** n): integer(rng.randint(1, 5))}
                brute = apply_elt(bp, sym, vec, n)
                fast = symmetrizer_apply(bp, n, vec)
                assert brute == fast
            # S^k on the first k slots, the identity on the other n - k
            for k in range(1, n):
                sym_k = block(symmetrizer(k), GroupAlgElt.unit(n - k))
                vec = {rng.randrange(d ** n): integer(rng.randint(1, 5))}
                assert (symmetrizer_apply(bp, n, vec, k)
                        == apply_elt(bp, sym_k, vec, n))


def test_t1_apply_matches_formal_sum():
    bp = pairs.v3(root_of_unity(3, 1))
    for n in (2, 3, 4):
        t = t_shuffle(1, n - 1)
        for w in range(min(3 ** n, 20)):
            vec = {w: ONE}
            assert t1_apply(bp, vec, n) == apply_elt(bp, t, vec, n)


def test_negative_letters_invert_crossings():
    bp = pairs.v3(integer(-1))
    word = GroupAlgElt.from_word(2, (1, -1))
    for w in range(9):
        vec = {w: ONE}
        assert apply_elt(bp, word, vec, 2) == vec


def test_verify_identity_reports_counterexample():
    suite = [pairs.diagonal([[integer(-1), one()], [one(), integer(-1)]])]
    s1 = GroupAlgElt.from_word(2, (1,))
    e = GroupAlgElt.unit(2)
    report = verify_identity(s1, e, suite)
    assert not report.ok
    assert report.basis_word is not None
    ok = verify_identity(s1 * s1, e, suite)  # sigma^2 = id at q = +-1 off-diag
    assert ok.ok
