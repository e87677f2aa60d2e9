import gc
import random
from argparse import Namespace
from itertools import combinations, permutations
from math import lcm

import pytest

from nichols.braids import (
    FieldCmap,
    FieldPair,
    GroupAlgElt,
    Relabelling,
    apply_elt,
    block,
    d_elt,
    matsumoto_section,
    perm_inv,
    perm_length,
    perm_mul,
    r_binomials,
    r_elt,
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
from nichols.identities import Product, all_identities, standard_suite
from nichols.linalg import encode_word, invert_square
from nichols.scalars import ONE, ZERO, field, integer, one, root_of_unity
from nichols import cli, pairs


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


def s_shuffle(i, j):
    """Oracle: the sum of lifts of all (i,j)-shuffles, on i+j strands."""
    out = GroupAlgElt(i + j)
    for x in shuffles((i, j)):
        out.terms[matsumoto_section(x)] = ONE
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


# ---------------------------------------------------------------------------
# differential tests: the word-by-word Cyc evaluation, one basis tensor at a
# time, as the oracle for the shared-suffix, tagged, field evaluation


def oracle_apply_elt(bp, elt, vec, n):
    """Each word crossed letter by letter, right to left, in Cyc."""
    total = {}
    for w, c in elt.terms.items():
        cur = vec
        for letter in reversed(w):
            cmap = bp.cmap if letter > 0 else bp.cmap_inverse()
            cur = sigma_pass(cmap, bp.dim, n, cur, abs(letter))
        for k, v in cur.items():
            t = total.get(k, ZERO) + c * v
            if t:
                total[k] = t
            else:
                total.pop(k, None)
    return total


def oracle_apply(side, bp, vec, n):
    factors = side.factors if isinstance(side, Product) else [side]
    for f in reversed(factors):
        if isinstance(f, int):
            vec = symmetrizer_apply(bp, n, vec, f)
        else:
            vec = oracle_apply_elt(bp, f, vec, n)
    return vec


def oracle_verify(lhs, rhs, suite):
    """(ok, pair, basis word, lhs image, rhs image) of the first failure."""
    n = lhs.strands
    for bp in suite:
        for w in range(bp.dim ** n):
            a = oracle_apply(lhs, bp, {w: ONE}, n)
            b = oracle_apply(rhs, bp, {w: ONE}, n)
            if a != b:
                return False, bp, w, a, b
    return True, None, None, None, None


def report_tuple(report):
    return (report.ok, report.pair, report.basis_word, report.lhs_value,
            report.rhs_value)


# non-diagonal pairs; the changed basis gives columns of several terms
NON_DIAGONAL = (
    pairs.v3(integer(-1)),
    pairs.two_by_two(integer(-1), integer(-1), ONE, ONE, ONE, ONE),
    pairs.change_basis(pairs.v3(integer(-1)),
                       [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
)


def test_identities_agree_with_oracle():
    for seed in (20240, 7):
        suite = standard_suite(count=3, seed=seed)
        for name, lhs, rhs in all_identities(4):
            assert (verify_identity(lhs, rhs, suite).ok
                    == oracle_verify(lhs, rhs, suite)[0]), (seed, name)
    suite = list(NON_DIAGONAL[:1])
    for name, lhs, rhs in all_identities(2):
        assert verify_identity(lhs, rhs, suite).ok, name
        assert oracle_verify(lhs, rhs, suite)[0], name


def test_false_identities_report_like_oracle():
    s, n, j = 4, 3, 3
    un1 = u_elt(s, n, 1)
    gen = GroupAlgElt.from_word(s, (j,))
    s1 = GroupAlgElt.from_word(2, (1,))
    e = GroupAlgElt.unit(2)
    z5 = GroupAlgElt.from_word(2, (1,)) * root_of_unity(5, 1)
    c12 = pairs.diagonal([[root_of_unity(12, 1), root_of_unity(12, 5)],
                          [integer(-1), root_of_unity(4, 1)]])
    diagonal = standard_suite(count=4, seed=11)
    cases = [(s1, e, diagonal)]
    cases += [(s1, e, [bp]) for bp in NON_DIAGONAL]
    # u_shift_intertwiner with j - 1 replaced by j
    cases.append((un1 * gen, gen * un1, diagonal))
    cases += [(un1 * gen, gen * un1, [bp]) for bp in NON_DIAGONAL]
    # a zeta_5 coefficient on a conductor-12 pair
    cases.append((z5 + e, s1 + e, [c12]))
    # s1^2 = e holds on the first pair and on the second up to x1 (x) x1
    early = pairs.diagonal([[integer(-1), ONE], [ONE, integer(-1)]])
    late = pairs.diagonal([[integer(-1), root_of_unity(3, 1)],
                           [root_of_unity(3, 2), root_of_unity(5, 1)]])
    cases.append((s1 * s1, e, [early, late]))
    for lhs, rhs, suite in cases:
        got = report_tuple(verify_identity(lhs, rhs, suite))
        assert got[0] is False
        assert got == oracle_verify(lhs, rhs, suite)
    assert got[1:3] == (late, 3)
    # and a true one: s1 S1 = e
    assert verify_identity(z5 + e, z5 + GroupAlgElt.from_word(2, (1, -1)),
                           [c12] + list(NON_DIAGONAL)).ok


def random_elt(rng, strands, coeffs):
    """Words from a few shared suffixes, with negative letters."""
    letters = [i for i in range(1, strands) for i in (i, -i)]
    suffixes = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
                for _ in range(3)]
    terms = {}
    for _ in range(8):
        head = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        terms[head + rng.choice(suffixes)] = rng.choice(coeffs)
    return GroupAlgElt(strands, terms)


def test_apply_elt_agrees_with_oracle():
    # random sums, then the empty word and single words: the result is a
    # new vector, never the caller's, which stays as it was
    rng = random.Random(2024)
    diag = pairs.diagonal([[root_of_unity(6, 1), root_of_unity(3, 2)],
                           [integer(-1), root_of_unity(4, 1)]])
    coeffs = [ONE, integer(-1), integer(3), root_of_unity(3, 1),
              root_of_unity(5, 2)]
    for bp in (diag,) + NON_DIAGONAL:
        d = bp.dim
        for n in (2, 3, 4):
            elts = [random_elt(rng, n, coeffs) for _ in range(4)]
            elts += [GroupAlgElt.from_word(n, letters) * c
                     for letters in ((), (1,), (-(n - 1),))
                     for c in (ONE, integer(3))]
            for elt in elts:
                vec = {rng.randrange(d ** n): rng.choice(coeffs)
                       for _ in range(3)}
                before = dict(vec)
                out = apply_elt(bp, elt, vec, n)
                assert out == oracle_apply_elt(bp, elt, vec, n)
                assert out is not vec and vec == before


def test_verify_identity_needs_a_pair():
    s1 = GroupAlgElt.from_word(2, (1,))
    with pytest.raises(ValueError):
        verify_identity(s1, GroupAlgElt.unit(2), [])


# ---------------------------------------------------------------------------
# the relabel-and-scale pass against the merging loop

# every builtin pair of the CLI, with the flags it needs
BUILTINS = (
    ("v3", {"q": "-1"}), ("v3", {"q": "z3"}),
    ("v4", {"q": "-1", "alpha": "1"}), ("v4", {"q": "z4", "alpha": "-1"}),
    ("c4-a2", {}), ("c6-b2", {}), ("ms-d4", {}),
    ("qls", {"orders": "2,3,5"}), ("v3-a1", {}),
)


def builtin_pair(name, flags):
    args = Namespace(**{"q": None, "alpha": None, "orders": None, **flags})
    return cli._builtin_pair(name, args)


def test_relabel_pass_agrees_with_merging_loop():
    rng = random.Random(19)
    for name, flags in BUILTINS:
        bp = builtin_pair(name, flags)
        d = bp.dim
        for m in (bp.conductor, lcm(bp.conductor, 5)):
            F = field(m)
            fp = FieldPair(bp, F)
            values = [F.from_cyc(c) for c in (
                ONE, integer(-3), root_of_unity(m, 1),
                root_of_unity(m, m - 1) / integer(7) - integer(2))]
            for cmap in (fp.cmap, fp.cmap_inverse()):
                # every builtin is a crossed-set braiding, so the relabel
                # path is the one under test
                assert type(cmap) is Relabelling, (name, m)
                # the scales are made on the first pass, not on embedding
                assert "scales" not in vars(cmap)
                # the same columns through the merging loop
                plain = FieldCmap(cmap, F)
                assert type(plain) is FieldCmap and plain == cmap
                for n in (2, 3, 4):
                    size = d ** n
                    # terms tagged with an input word in the high digits,
                    # as verify_identity tags them
                    vec = {rng.randrange(size) * size + rng.randrange(size):
                           rng.choice(values) for _ in range(12)}
                    for k in range(1, n):
                        got = sigma_pass(cmap, d, n, vec, k)
                        assert got == sigma_pass(plain, d, n, vec, k), (
                            name, m, n, k)
                        assert len(got) == len(vec)


def test_monomial_map_that_is_no_bijection_keeps_merging_loop():
    # a diagonal braiding with the column of x0 (x) x1 redirected onto the
    # image of x1 (x) x0: monomial, but both words cross onto x0 (x) x1
    # and must be summed
    d = 2
    f = root_of_unity(3, 1)
    cmap = [[(0, root_of_unity(4, 1))], [(1, ONE)], [(1, f)], [(3, -ONE)]]
    bp = pairs.BraidedPair(d, cmap, validate=False)
    fp = FieldPair(bp, field(lcm(bp.conductor, 5)))
    assert type(fp.cmap) is FieldCmap
    assert sigma_pass(bp.cmap, d, 2, {1: ONE, 2: ONE}, 1) == {1: ONE + f}
    assert sigma_pass(bp.cmap, d, 2, {1: ONE, 2: -f.inverse()}, 1) == {}
    F = fp.field
    vec = {w: F.from_cyc(integer(w + 1)) for w in range(d ** 3)}
    for k in (1, 2):
        assert {w: F.to_cyc(c) for w, c in
                sigma_pass(fp.cmap, d, 3, vec, k).items()} == sigma_pass(
                    bp.cmap, d, 3, {w: integer(w + 1) for w in vec}, k)
    # a column with two terms keeps the merging loop too
    assert type(FieldPair(NON_DIAGONAL[2], field(1)).cmap) is FieldCmap


# ---------------------------------------------------------------------------
# R^j_i as its binomials, and the embedding each pair keeps

def test_factored_r_equals_expanded():
    suite = standard_suite(count=4, seed=31)
    for n in range(2, 6):
        s = n + 1
        for i in (1, 2):
            factors = r_binomials(s, n, i)
            assert len(factors) == n - i + 1
            assert verify_identity(Product(s, factors), r_elt(s, n, i),
                                   suite).ok, (n, i)
    # R^2_1 = (e - s2 s2)(e - s1 s2 s2), written out
    e, w = ONE, -one()
    assert r_elt(3, 2, 1).terms == {(): e, (2, 2): w, (1, 2, 2): w,
                                    (2, 2, 1, 2, 2): e}


def test_ladder_without_a_binomial_fails_as_expanded():
    # the ladder exchange with one factor of R^n_2 dropped: the factored
    # and the expanded product give the same report
    suite = standard_suite(count=4, seed=5)
    for n in (3, 4):
        s = n + 1
        name, lhs, rhs = next(t for t in all_identities(n)
                              if t[0] == f"ladder_exchange n={n}")
        head, binomials = lhs.factors[0], lhs.factors[1:]
        assert len(binomials) == n - 1
        for drop in range(n - 1):
            kept = binomials[:drop] + binomials[drop + 1:]
            expanded = GroupAlgElt.unit(s)
            for factor in kept:
                expanded = expanded * factor
            got = report_tuple(verify_identity(Product(s, [head] + kept),
                                               rhs, suite))
            assert got[0] is False, (n, drop)
            assert got == report_tuple(verify_identity(
                Product(s, [head, expanded]), rhs, suite)), (n, drop)


INVERSE_PAIRS = (
    pairs.v3(root_of_unity(3, 1)),
    pairs.diagonal([[root_of_unity(12, 1), root_of_unity(3, 2)],
                    [integer(-1), root_of_unity(4, 3)]]),
    pairs.change_basis(pairs.v3(integer(-1)),
                       [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
)


def test_field_pair_inverse_is_computed_in_the_field():
    for bp in INVERSE_PAIRS:
        d = bp.dim
        # the pair's Cyc inverse against elimination over Cyc
        oracle = invert_square({p: dict(col) for p, col in enumerate(bp.cmap)},
                               d * d)
        assert bp.cmap_inverse() == tuple(
            tuple(sorted(oracle.get(p, {}).items())) for p in range(d * d))
        for m in (bp.conductor, lcm(bp.conductor, 5)):
            F = field(m)
            fp = bp.embedded(F)
            assert bp.embedded(F) is fp and not hasattr(fp, "_bp")
            inv = fp.cmap_inverse()
            assert type(inv) is type(fp.cmap)
            assert inv == tuple(tuple((kl, F.from_cyc(c)) for kl, c in col)
                                for col in bp.cmap_inverse()), (bp, m)
            # crossing and crossing back fixes every tagged basis tensor
            size = d ** 3
            basis = {w * size + w: F.one for w in range(size)}
            for k in (1, 2):
                there = sigma_pass(fp.cmap, d, 3, basis, k)
                assert sigma_pass(inv, d, 3, there, k) == basis, (bp, m, k)
    assert type(INVERSE_PAIRS[0].embedded(field(3)).cmap) is Relabelling
    assert type(INVERSE_PAIRS[2].embedded(field(1)).cmap) is FieldCmap


def test_verify_leaves_no_cyclic_garbage():
    # each pair keeps its embeddings, which hold no reference back to it,
    # so a suite is freed by reference counting
    suite = standard_suite(count=3, seed=8)
    checks = all_identities(3)
    for _, lhs, rhs in checks:
        assert verify_identity(lhs, rhs, suite).ok
    gc.collect()
    gc.disable()
    try:
        suite = standard_suite(count=3, seed=8)
        for _, lhs, rhs in checks:
            assert verify_identity(lhs, rhs, suite).ok
        del suite
        assert gc.collect() == 0
    finally:
        gc.enable()
