"""The derivation-coordinate engine against the image iteration it
replaced, kept here as an oracle: B_n is the span of T_(1,n-1)(x_i (x) b)
over a tensor-coordinate basis of B_(n-1), one ``t1_apply`` per candidate.
Kernels are checked against the null space of the transposed pair's
component, which reads no rule; relations against the tensor ideal
reduction that overlap completion replaced, d^n words wide, fed with those
kernels; and leading words against those kernels' pivots and a scan of
every factor.
"""

import contextlib
import functools
import hashlib
import time

import pytest

from nichols import pairs
from nichols.algebra import (
    DegreeStats,
    GradedComputation,
    _components,
    _kernel_vector,
    _overlap_span,
    degree_basis,
    hilbert,
    kernel_basis,
    multiply,
    new_leading_words,
    relation_count,
    relations,
)
from nichols.braids import symmetrizer_apply, t1_apply
from nichols.linalg import Echelon, decode_word, vec_add_into
from nichols.quandles import Cochain2, CrossedSet
from nichols.scalars import (
    CYCLOTOMIC, ONE, format_scalar, integer, root_of_unity)
from test_pairs import (
    fomin_kirillov_e4, forbid_transpose, memo_short_of_a_kernel)

MINUS, PLUS = integer(-1), integer(1)


def image_iteration(bp, top):
    """Tensor-coordinate echelon bases of B_0, ..., B_top."""
    d = bp.dim
    ech = Echelon()
    ech.insert({0: ONE})
    out = [ech]
    for n in range(1, top + 1):
        shift = d ** (n - 1)
        cands = [{i * shift + w: c for w, c in row.items()}
                 for row in out[-1].rows.values() for i in range(d)]
        ech = Echelon()
        for vec in sorted(cands, key=min):
            ech.insert(t1_apply(bp, vec, n))
        out.append(ech)
    return out


def left(cache, n):
    """The left multiplications L_i: B_(n-1) -> B_n, u -> x_i . u, as
    [i][b] coordinate maps in the bases of the images of the normal words,
    b and the keys counting those words in increasing order: L_i(pi(v)) =
    pi(i v), the normal form of the word i v under the rules
    (``GradedComputation._normal_form``), read with no higher degree
    computed, and none past a zero component."""
    index = {w: b for b, w in enumerate(sorted(cache._degree(n).phis))}
    low = sorted(cache._degree(n - 1).phis)
    # past a zero component there is no word v, and no key to make
    shift = cache.bp.dim ** (n - 1) if low else None
    to_cyc = cache.field.to_cyc
    return [[{index[q]: to_cyc(c)
              for q, c in cache._normal_form(n, i * shift + v).items()}
             for v in low] for i in range(cache.bp.dim)]


def transposed_kernel(bp, n):
    """The symmetrizer kernel K_n of bp in values of the engine's field,
    d^n words wide, from the row space alone: the degree-n symmetrizer of
    the transposed braiding is the transpose of that of bp, so K_n is the
    null space of the transposed pair's component in tensor coordinates.
    No rule of bp is read."""
    comp = GradedComputation(pairs.transpose(bp))
    ech = Echelon(comp.field)
    for vec in comp._tensor_rows(n).values():
        ech.insert(vec)
    return ech.nullspace(range(bp.dim ** n))


def tensor_relations(bp, n, kernel, field=CYCLOTOMIC):
    """The new degree-n relations in tensor coordinates: the symmetrizer
    kernel reduced modulo the ideal V . K + K . V, d^n words wide, with
    ``kernel(m)`` the kernel of degree m in values of ``field``."""
    d = bp.dim
    ideal = Echelon(field)
    lower = kernel(n - 1)
    shift = d ** (n - 1)
    cands = []
    for k in lower:
        for i in range(d):
            base = i * shift
            cands.append({base + w: c for w, c in k.items()})
            cands.append({w * d + i: c for w, c in k.items()})
    cands.sort(key=min)
    for vec in cands:
        ideal.insert(vec)
    fresh = Echelon(field)
    for vec in kernel(n):
        residue = ideal.reduce(vec)
        if residue:
            fresh.insert(residue)
    fresh.rref()
    return fresh.sorted_rows()


def leading_words_oracle(kernels, d, top):
    """New leading words of degrees 2..top from the kernels themselves:
    the least-key pivots of each kernel, kept when no contiguous proper
    factor is a new leading word of a lower degree."""
    out = {}
    for n in range(2, top + 1):
        ech = Echelon()
        for vec in kernels[n]:
            ech.insert(vec)
        lower = [v for m in range(2, n) for v in out[m]]
        out[n] = [w for w in (decode_word(p, d, n) for p in ech.pivots())
                  if not any(w[s:s + len(v)] == v for v in lower
                             for s in range(n - len(v) + 1))]
    return out


def text(rows):
    """Rows as the CLI prints them: sorted keys, scalar tokens."""
    return [[(k, format_scalar(c)) for k, c in sorted(row.items())]
            for row in rows]


def qls(orders):
    d = len(orders)
    return pairs.diagonal([[root_of_unity(orders[i], 1) if i == j else PLUS
                            for j in range(d)] for i in range(d)])


def v4_m1_p1():
    return pairs.v4(MINUS, PLUS)


def ms_d4():
    return pairs.two_by_two(MINUS, MINUS, PLUS, PLUS, PLUS, PLUS)


def c6_b2():
    w = root_of_unity(3, 1)
    return pairs.diagonal([[MINUS, w], [MINUS, w]])


def v4_m1_m1():
    return pairs.v4(MINUS, MINUS)


def v3_z3():
    return pairs.v3(root_of_unity(3, 1))


def v3_z6():
    return pairs.v3(root_of_unity(6, 1))


def transposed(build):
    return lambda: pairs.transpose(build())


def changed(build):
    """The pair in the basis x_0, x_0 + x_1, x_2 of its three letters: a
    dense braiding, most columns of C with several terms."""
    return lambda: pairs.change_basis(build(), [[1, 1, 0], [0, 1, 0],
                                                [0, 0, 1]])


def v3_m1():
    return pairs.v3(MINUS)


# name, pair, oracle degree, kernel and relation degree; the relation
# degrees reach new relations above degree two (one in degree 5 of c6-b2,
# two in degree 4 of ms-d4, three in degree 5 of qls-555, one in degree 6
# of v4_m1_p1); the changed bases put several terms in the columns of C
# (the zero of v3(-1) in degree 5 stays), and the whole oracle side takes
# about 6 s
DIFFERENTIAL = [
    ("v4_m1_p1", v4_m1_p1, 7, 6),
    ("ms-d4", ms_d4, 7, 5),
    ("c6-b2", c6_b2, 11, 7),
    ("qls-444", lambda: qls((4, 4, 4)), 7, 5),
    ("qls-345", lambda: qls((3, 4, 5)), 7, 5),
    ("qls-555", lambda: qls((5, 5, 5)), 7, 5),
    ("v3-z3", v3_z3, 5, 5),
    ("v3-z6", v3_z6, 5, 5),
    ("v4_m1_m1", v4_m1_m1, 5, 4),
    ("T-v4_m1_p1", transposed(v4_m1_p1), 7, 6),
    ("T-v3-z3", transposed(v3_z3), 5, 4),
    ("T-v3-z6", transposed(v3_z6), 5, 4),
    ("T-v4_m1_m1", transposed(v4_m1_m1), 5, 4),
    ("cb-v3-z3", changed(v3_z3), 4, 4),
    ("cb-v3-m1", changed(v3_m1), 5, 5),
]


@pytest.mark.parametrize("name,build,top,ktop", DIFFERENTIAL,
                         ids=[c[0] for c in DIFFERENTIAL])
def test_engine_matches_image_iteration(name, build, top, ktop,
                                       monkeypatch):
    bp = build()
    oracle = image_iteration(bp, top)
    # the kernels are the null spaces of the transposed pair's components;
    # they feed the tensor ideal reduction and the leading words
    d = bp.dim
    transposed_oracle = image_iteration(pairs.transpose(bp), ktop)
    kernels = {n: transposed_oracle[n].nullspace(range(d ** n))
               for n in range(1, ktop + 1)}
    words = leading_words_oracle(kernels, d, ktop)
    # the engine side reads the rules alone and never builds the
    # transposed pair
    forbid_transpose(monkeypatch)
    cache = GradedComputation(bp)
    for n, ech in enumerate(oracle):
        assert cache.dim(n) == ech.rank, (name, n)
        assert text(degree_basis(bp, n, cache)) == text(
            ech.rref().sorted_rows()), (name, n)
    # the engine's relations go through its count first, its leading words
    # through the images of the words; its kernel vectors k_f = e_f - NF(f)
    # are the least-key reduced echelon basis of K_n, the canonical form of
    # the null space
    for n in range(2, ktop + 1):
        want = tensor_relations(bp, n, kernels.__getitem__)
        assert relation_count(bp, n, cache) == len(want), (name, n)
        assert text(relations(bp, n, cache)) == text(want), (name, n)
        assert new_leading_words(bp, n, cache) == words[n], (name, n)
        ech = Echelon()
        for vec in kernels[n]:
            ech.insert(vec)
        assert text(kernel_basis(bp, n, cache)) == text(
            ech.rref().sorted_rows()), (name, n)


@pytest.mark.parametrize("name,build,top,ktop", DIFFERENTIAL,
                         ids=[c[0] for c in DIFFERENTIAL])
def test_rules_lie_in_the_symmetrizer_kernel(name, build, top, ktop):
    # each rule f -> tail of the engine's elimination gives a kernel vector
    # k_f = e_f - sum tail[p] e_p of the quantum symmetrizer, led by f: its
    # tail lies on normal words greater than f
    bp = build()
    cache = GradedComputation(bp)
    for n in range(2, ktop + 1):
        deg = cache._degree(n)
        normal, rules = deg.phis, deg.rules
        for f, tail in rules.items():
            assert all(p > f and p in normal for p in tail), (name, n, f)
            vec = {p: -cache.field.to_cyc(c) for p, c in tail.items()}
            vec[f] = ONE
            assert symmetrizer_apply(bp, n, vec) == {}, (name, n, f)


def test_v3_z4_relation_path():
    # v3(zeta_4) has no quadratic relation, seven cubic ones and two new
    # leading words in degree 6 that lead in the ideal of the cubic ones;
    # the leading words and counts come off the engine's own elimination
    bp = pairs.v3(root_of_unity(4, 1))
    cache = GradedComputation(bp)
    t0 = time.perf_counter()
    words = [len(new_leading_words(bp, n, cache)) for n in range(2, 7)]
    counts = [relation_count(bp, n, cache) for n in range(2, 7)]
    assert time.perf_counter() - t0 < 10.0
    assert words == [0, 0, 7, 0, 2]
    assert counts == [0, 0, 7, 0, 0]


def test_differential_has_new_words_that_lead_in_the_old_ideal():
    # a degree where some new leading word already leads in the ideal
    # generated below (k > r_n > 0) runs the window's reduction modulo
    # Z = W n I; v3-z3 has one in degree 4 (k = 2, r = 1)
    found = []
    for name, build, _, ktop in DIFFERENTIAL:
        bp = build()
        cache = GradedComputation(bp)
        for n in range(2, ktop + 1):
            k = len(new_leading_words(bp, n, cache))
            r = relation_count(bp, n, cache)
            assert k >= r, (name, n)
            if k > r > 0:
                found.append((name, n))
    assert ("v3-z3", 4) in found


def affine(p, a):
    """Aff(p, a), i |> j = a j + (1 - a) i mod p, with the constant
    cocycle -1."""
    xs = CrossedSet([[(a * j + (1 - a) * i) % p for j in range(p)]
                     for i in range(p)])
    return pairs.from_cocycle(xs, Cochain2.constant(xs, 2, 1))


@pytest.mark.parametrize("p,a,top", [(5, 2, 6), (5, 3, 5)],
                         ids=["aff-5-2", "aff-5-3"])
def test_affine_relations_match_the_tensor_ideal(p, a, top):
    # ten quadratic relations and one quartic; degree 4 has k > r_n (seven
    # or eight new leading words for the one relation).  The tensor ideal
    # runs where the count is positive, with kernels from the transposed
    # pair, independent of the rules the relations come from: in degrees 5
    # and 6 it takes seconds, and there the reduced overlaps must span the
    # kernel vector k_f of every new leading word f (k > r_n = 0)
    bp = affine(p, a)
    cache = GradedComputation(bp)
    field = cache.field
    kernel = functools.cache(functools.partial(transposed_kernel, bp))
    counts = []
    for n in range(2, top + 1):
        counts.append(relation_count(bp, n, cache))
        want = [{k: field.to_cyc(c) for k, c in row.items()}
                for row in tensor_relations(bp, n, kernel, field)
                ] if counts[-1] else []
        assert len(want) == counts[-1], n
        assert text(relations(bp, n, cache)) == text(want), n
        if not counts[-1]:
            assert new_leading_words(bp, n, cache), n
            span = _overlap_span(cache, n)
            for f, tail in cache._degree(n).rules.items():
                assert not span.reduce(_kernel_vector(f, tail, field)), (n, f)
    assert counts == [10, 0, 1, 0, 0][:top - 1]
    assert len(new_leading_words(bp, 4, cache)) > 1


def test_affine_7_3_counts(monkeypatch):
    # Aff(7, 3), i |> j = 3j - 2i mod 7 with the constant cocycle -1, whose
    # Nichols algebra is 326592-dimensional: 21 quadratic relations and no
    # new one in degrees 3-5, while the rewriting basis gains 12, 7 and 7
    # words there, one sextic relation and none in degrees 7 and 8; all
    # without a kernel.  The engine reaches degree 8 in about a second (3 s
    # while insertion reduced every pivot key), and after it the overlaps
    # give the counts in well under a second (a span in V (x) B_(n-1) took
    # 24-34 s through degree 7)
    bp = affine(7, 3)
    forbid_transpose(monkeypatch)
    cache = GradedComputation(bp)
    words = [len(new_leading_words(bp, n, cache)) for n in range(2, 6)]
    rels = [len(relations(bp, n, cache)) for n in range(2, 6)]
    assert words == [21, 12, 7, 7]
    assert rels == [21, 0, 0, 0]
    t0 = time.perf_counter()
    dims = hilbert(bp, 8, cache).dims
    assert time.perf_counter() - t0 < 15.0
    assert dims == [1, 7, 28, 84, 210, 462, 918, 1673, 2828]
    t0 = time.perf_counter()
    counts = [relation_count(bp, n, cache) for n in range(2, 9)]
    assert time.perf_counter() - t0 < 10.0
    assert counts == [21, 0, 0, 0, 1, 0, 0]
    assert memo_short_of_a_kernel(cache)


@pytest.mark.parametrize("build,top", [(fomin_kirillov_e4, 13),
                                       (lambda: affine(5, 2), 17)],
                         ids=["E4", "aff-5-2"])
def test_insertion_stores_the_phi_vectors_nearly_as_they_are(build, top):
    # with the derivation keys ordered letter first, the images of the
    # candidate words, greatest first, are nearly triangular: insertion
    # stops at the first free key, so the rows of every degree hold
    # hardly more entries than the Phi-vectors of the normal words
    # (E4: 3,785 against 3,784, Aff(5, 2): 15,698 against 15,671; rows
    # reduced on every pivot key held 4,241 and 17,750)
    bp = build()
    cache = GradedComputation(bp)
    assert hilbert(bp, top, cache).finite
    stored = sum(deg.stats.nonzeros for deg in cache._degrees)
    phis = sum(len(vec) for deg in cache._degrees
               for vec in deg.phis.values())
    assert stored <= 1.01 * phis


def test_rows_that_never_eliminate_are_their_phi_vectors():
    # the echelon holds each row once and never replaces it, so a normal
    # word's row is its Phi-vector itself, the same dict, whenever that
    # vector led with a free key as inserted, whether or not the row has
    # eliminated since.  Replaying the insertions of the normal words,
    # greatest first, finds those vectors: on Aff(5, 2) 1,232 of the 1,279
    # rows of degrees 1 to 17, the other 47 being residues of an
    # elimination at insertion
    bp = affine(5, 2)
    cache = GradedComputation(bp)
    assert hilbert(bp, 17, cache).finite
    free = total = 0
    # degree 0 is given, not inserted: the empty word's Phi-vector is empty
    for n in range(1, 18):
        ech, phis = cache._degrees[n].ech, cache._degrees[n].phis
        replay = Echelon(cache.field)
        for w in sorted(phis, reverse=True):
            vec = phis[w]
            p = min(vec)
            if p not in replay.rows:
                assert ech.rows[p] is vec, (n, w)
                free += 1
            assert replay.insert(vec) is not None
        assert replay.pivots() == ech.pivots()
        total += ech.rank
    assert total == 1279 and free == 1232


def engine_digest(cache, top):
    """A digest of the normal words and the rules of degrees 0..top, from
    their sorted entries, the scalars as the CLI prints them."""
    h = hashlib.sha256()
    to_cyc = cache.field.to_cyc
    for n in range(top + 1):
        deg = cache._degree(n)
        normal, rules = deg.phis, deg.rules
        h.update(repr((n, sorted(normal))).encode())
        for f in sorted(rules):
            h.update(repr((f, sorted((p, format_scalar(to_cyc(c)))
                                     for p, c in rules[f].items()))).encode())
    return h.hexdigest()[:16]


@contextlib.contextmanager
def columns_built(cache):
    """The right multiplication columns R_k(v) = NF(v k) that Phi assembly
    builds while the block computes degrees of ``cache``, as a list of
    (n, w, column, a copy of the column made when it was built), n the
    degree whose Phi-vectors read it and w the key of v k.  Computing
    degree n asks ``_normal_form`` for degree n-1 only for a column, as
    the normal forms it reduces on the way are of lower degrees."""
    built = []
    normal_form = cache._normal_form

    def spy(n, w):
        col = normal_form(n, w)
        if n == len(cache._degrees) - 1:
            built.append((n + 1, w, col, dict(col)))
        return col

    cache._normal_form = spy
    try:
        yield built
    finally:
        del cache._normal_form


@pytest.mark.parametrize("build,top,digest", [
    (fomin_kirillov_e4, 13, "84b54c532c494534"),
    (lambda: affine(5, 2), 17, "da72ad03d7b415b8"),
    (lambda: affine(7, 3), 7, "7c32d585aa5453dc")],
    ids=["E4", "aff-5-2", "aff-7-3"])
def test_normal_words_and_rules_match_their_recorded_digest(build, top,
                                                            digest):
    # recorded while the Phi-vectors came from the left recursion through
    # the crossings on B_n, and again while every column R_k(v) was built
    # before any Phi-vector: the right Leibniz rule, reading each column
    # as it is first needed, must give the same words and rules.  A column
    # that degree n reads is the normal form of v k, for v a normal word
    # of degree n-2, left as it was built.  The computation keeps no right
    # multiplication between degrees, and no crossing or left
    # multiplication.  All it keeps of a degree is one record, in one list
    bp = build()
    cache = GradedComputation(bp)
    with columns_built(cache) as built:
        hilbert(bp, top, cache)
        assert engine_digest(cache, top) == digest
    assert len(cache._degrees) == top + 1
    assert built
    for n, w, col, copy in built:
        assert w // bp.dim in cache._degrees[n - 2].phis
        assert col == copy == cache._normal_form(n - 1, w)
    assert set(vars(cache)) == {"bp", "field", "_by_last", "_degrees"}
    assert not any(hasattr(cache, name) for name in (
        "_right", "_right_multiplications", "_betas", "_lefts", "_phis",
        "_rules", "_reduced", "_tensor", "relation_bases", "_rewriting",
        "left"))


def test_left_multiplication_on_a_dense_braiding():
    # left(cache, n) is read from the rules, not from the engine's
    # recursion: in tensor coordinates L_a(pi(v)) is the product
    # x_a . pi(v) of the tensor coalgebra
    bp = changed(v3_z3)()
    cache = GradedComputation(bp)
    to_cyc = cache.field.to_cyc

    def tensor(n):
        rows = cache._tensor_rows(n)
        return [{k: to_cyc(c) for k, c in rows[w].items()}
                for w in sorted(rows)]

    for n in range(1, 5):
        low, high = tensor(n - 1), tensor(n)
        maps = left(cache, n)
        assert len(maps) == bp.dim
        for a, cols in enumerate(maps):
            assert len(cols) == len(low)
            for u, image in zip(low, cols):
                got = {}
                for b, c in image.items():
                    vec_add_into(got, high[b], c)
                assert got == multiply(bp, {a: ONE}, u, 1, n - 1), (n, a)


def test_affine_5_2_presentation():
    # Aff(5, 2) with the constant cocycle -1 is 1280-dimensional with top
    # degree 16: ten quadratic relations and one quartic present it, and
    # no degree up to 17 adds another
    bp = affine(5, 2)
    cache = GradedComputation(bp)
    assert hilbert(bp, 17, cache).total == 1280
    assert [relation_count(bp, n, cache) for n in range(2, 18)] == [
        10, 0, 1] + [0] * 13


def test_relations_build_no_kernel(monkeypatch):
    forbid_transpose(monkeypatch)
    for build, top in ((v4_m1_p1, 7), (v3_z3, 6)):
        bp = build()
        cache = GradedComputation(bp)
        for n in range(2, top + 1):
            relations(bp, n, cache)
        assert memo_short_of_a_kernel(cache)


def test_leading_words_build_no_kernel(monkeypatch):
    built = [build() for build in (v4_m1_p1, v3_z3, transposed(v4_m1_m1))]
    forbid_transpose(monkeypatch)
    for bp in built:
        cache = GradedComputation(bp)
        for n in range(2, 6):
            new_leading_words(bp, n, cache)
        assert memo_short_of_a_kernel(cache)


def test_e4_leading_word_counts(monkeypatch):
    # the 576-dimensional E4 through degree 7 (6^7 words); reading the
    # leading words off the d^n-wide kernels took about 50 s
    bp = fomin_kirillov_e4()
    forbid_transpose(monkeypatch)
    cache = GradedComputation(bp)
    t0 = time.perf_counter()
    counts = [len(new_leading_words(bp, n, cache)) for n in range(2, 8)]
    assert time.perf_counter() - t0 < 10.0
    assert counts == [17, 4, 2, 0, 2, 0]
    assert memo_short_of_a_kernel(cache)


def test_finite_algebra_has_no_relations_above_its_top_degree():
    # v3(-1) is 12-dimensional with top degree 4, and quadratic: its five
    # relations are all in degree two
    bp = pairs.v3(MINUS)
    cache = GradedComputation(bp)
    assert hilbert(bp, 7, cache).dims == [1, 3, 4, 3, 1, 0]
    assert [relation_count(bp, n, cache) for n in range(2, 8)] == [
        5, 0, 0, 0, 0, 0]


def test_degrees_past_a_zero_component_answer_at_once():
    # B_5 of v3(-1) is zero, so no degree above it has a candidate word:
    # degree 10^6 is answered without computing degrees 6 and up (each
    # of them built d^(n-1) afresh: 0.10 s to reach degree 4000)
    bp = pairs.v3(MINUS)
    cache = GradedComputation(bp)
    top = 10 ** 6
    t0 = time.perf_counter()
    assert relation_count(bp, top, cache) == 0
    assert new_leading_words(bp, top, cache) == []
    assert relations(bp, top, cache) == []
    assert cache.dim(top) == 0 and degree_basis(bp, top, cache) == []
    assert left(cache, top) == left(cache, 6) == [[], [], []]
    assert time.perf_counter() - t0 < 0.5
    assert len(cache._degrees) == len(cache.stats) == 6
    assert hilbert(bp, top, cache).dims == hilbert(bp, 9).dims == [
        1, 3, 4, 3, 1, 0]


def test_degrees_past_a_zero_component_leave_nothing_behind():
    # degrees 6 and up of v3(-1) are answered by a new empty record each
    # time, stored nowhere: the relations and tensor rows asked for there
    # leave the six records of degrees 0-5 as the only per-degree state,
    # and no tensor row below is built for them
    bp = pairs.v3(MINUS)
    cache = GradedComputation(bp)
    for n in (7, 100, 10 ** 6):
        assert relations(bp, n, cache) == []
    assert degree_basis(bp, 10 ** 6, cache) == []
    assert len(cache._degrees) == 6
    assert set(vars(cache)) == {"bp", "field", "_by_last", "_degrees"}
    assert all(deg.relations is None for deg in cache._degrees)
    assert [deg.tensor is None for deg in cache._degrees] == [False] + [
        True] * 5
    assert cache._degree(10 ** 6) is not cache._degree(10 ** 6)


def test_each_record_keeps_what_its_degree_computed():
    # after hilbert every record below the cutoff holds its echelon,
    # Phi-vectors, rules and stats; the last degree of v3(zeta_3), counted
    # by block orbits, appends none.  Tensor rows are filled on request for
    # degrees 1..n only, and relations on their degree alone
    bp = v3_z3()
    cache = GradedComputation(bp)
    assert hilbert(bp, 5, cache).dims == [1, 3, 9, 21, 50, 111]
    degrees = cache._degrees
    assert len(degrees) == 5
    assert cache.stats == [deg.stats for deg in degrees]
    assert cache.bases == [deg.ech for deg in degrees]
    for n, deg in enumerate(degrees):
        assert type(deg.stats) is DegreeStats and deg.stats.degree == n
        assert deg.ech.rank == deg.stats.rank == len(deg.phis) > 0
        assert deg.relations is None
        assert (deg.tensor is None) == (n > 0)
        if n:
            assert deg.stats.candidates == len(deg.phis) + len(deg.rules)
            assert all(f not in deg.phis for f in deg.rules)
    assert sum(len(deg.rules) for deg in degrees) > 0
    degree_basis(bp, 3, cache)
    assert [deg.tensor is None for deg in degrees] == [False] * 4 + [True]
    assert [len(deg.tensor) for deg in degrees[:4]] == [1, 3, 9, 21]
    got = relations(bp, 4, cache)
    assert [deg.relations is None for deg in degrees] == [True] * 4 + [
        False]
    assert relations(bp, 4, cache) is got is degrees[4].relations
    with pytest.raises(AttributeError):
        cache.bases = []
    with pytest.raises(AttributeError):
        cache.stats = []


# the full dims of the benchmark panel, at its degrees
PANEL = [
    (v4_m1_p1, 12, [1, 4, 8, 11, 12, 12, 11, 8, 4, 1, 0]),
    (ms_d4, 10, [1, 4, 8, 12, 14, 12, 8, 4, 1, 0]),
    (c6_b2, 12, [1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1, 0]),
    (lambda: qls((4, 4, 4)), 10, [1, 3, 6, 10, 12, 12, 10, 6, 3, 1, 0]),
    (lambda: qls((3, 4, 5)), 11, [1, 3, 6, 9, 11, 11, 9, 6, 3, 1, 0]),
    (lambda: qls((5, 5, 5)), 10, [1, 3, 6, 10, 15, 18, 19, 18, 15, 10, 6]),
    (v3_z3, 6, [1, 3, 9, 21, 50, 111, 245]),
    (v3_z6, 6, [1, 3, 7, 15, 31, 63, 121]),
    (v4_m1_m1, 6, [1, 4, 12, 36, 104, 292, 802]),
]


def test_panel_dims_at_bench_degrees():
    t0 = time.time()
    for build, degree, dims in PANEL:
        assert hilbert(build(), degree).dims == dims
    assert time.time() - t0 < 60.0


# ---------------------------------------------------------------------------
# the last degree of ``hilbert``, counted by block orbits

def block_orbits(bp, n):
    """The conjugation orbits of the blocks of degree n, each as the set
    of its blocks, with degree n-1 computed."""
    cache = GradedComputation(bp)
    cache.basis(n - 1)
    return [{block for block, _ in orbit}
            for orbit in cache._block_orbits(n)]


def test_block_orbits_are_conjugacy_orbits():
    # Aff(7, 3): a word's block is x -> 3^n x + c, so the 7 blocks of a
    # degree form one orbit unless 6 divides n; then they are the
    # translations, and conjugation fixes the identity alone
    aff = affine(7, 3)
    assert [len(o) for o in block_orbits(aff, 8)] == [7]
    assert sorted(len(o) for o in block_orbits(aff, 6)) == [1, 6]
    # v3: a product of six reflections of Z/3 is a rotation, and the two
    # rotations r, r^2 are conjugate
    assert block_orbits(v3_z3(), 6) == [{(0, 1, 2)}, {(1, 2, 0), (2, 0, 1)}]
    assert sorted(len(o) for o in block_orbits(v4_m1_m1(), 6)) == [1, 3]
    # no crossed-set braiding, or a trivial rack: no orbit at all
    cache = GradedComputation(c6_b2())
    cache.basis(3)
    assert cache._block_orbits(4) is None
    cache = GradedComputation(changed(v3_z3)())
    cache.basis(3)
    assert cache._block_orbits(4) is None


# (name, pair, cutoffs, the cutoffs whose last degree the orbits count):
# a block alone in its orbit gains nothing, so the count runs only when an
# orbit holds two or more blocks with candidate words
ORBIT_COUNTS = [
    ("aff-7-3", lambda: affine(7, 3), (1, 6, 7), (1, 6, 7)),
    ("aff-5-2", lambda: affine(5, 2), (4, 9), (4, 9)),
    ("E4", fomin_kirillov_e4, (3, 6, 13), (3, 6)),
    ("v3-z3", v3_z3, (2, 5, 6), (2, 5, 6)),
    ("v4_m1_m1", v4_m1_m1, (3, 6), (3, 6)),
    ("v4_m1_p1", v4_m1_p1, (4, 9, 12), (4,)),
    # an abelian inner group: every block is its own orbit
    ("ms-d4", ms_d4, (3, 5, 9), ()),
    ("c6-b2", c6_b2, (5, 12), ()),
    ("cb-v3-z3", changed(v3_z3), (3, 4), ()),
]


@pytest.mark.parametrize("build,cutoffs,counted",
                         [case[1:] for case in ORBIT_COUNTS],
                         ids=[case[0] for case in ORBIT_COUNTS])
def test_hilbert_counts_its_last_degree_by_block_orbits(build, cutoffs,
                                                       counted):
    bp = build()
    full = GradedComputation(bp)
    for n in cutoffs:
        cache = GradedComputation(bp)
        dims = hilbert(bp, n, cache).dims
        assert dims == [full.dim(m) for m in range(len(dims))], n
        # the orbit count stores nothing of its degree
        assert len(cache._degrees) == len(dims) - (n in counted), n


@pytest.mark.parametrize("build,n", [(v3_z3, 4), (v4_m1_p1, 6),
                                     (v4_m1_m1, 4), (lambda: affine(7, 3), 6)],
                         ids=["v3-z3", "v4_m1_p1", "v4_m1_m1", "aff-7-3"])
def test_a_cache_after_the_orbit_count_computes_the_degree_in_full(build, n):
    bp = build()
    cache, fresh = GradedComputation(bp), GradedComputation(bp)
    assert hilbert(bp, n, cache).dims[-1] == fresh.dim(n)
    assert len(cache._degrees) == n
    assert degree_basis(bp, n, cache) == degree_basis(bp, n, fresh)
    assert relations(bp, n, cache) == relations(bp, n, fresh)
    assert new_leading_words(bp, n, cache) == new_leading_words(bp, n,
                                                                fresh)
    assert cache.dim(n) == fresh.dim(n)
    assert len(cache._degrees) == len(cache.stats) == n + 1


# ---------------------------------------------------------------------------
# the Hilbert series of a decomposable pair, a product over its components

def with_a_line(build):
    """The pair plus the line c(y (x) y) = -y (x) y, every cross braiding
    the flip: c^2 is the identity between the two summands."""
    def pair():
        bp = build()
        return pairs.direct_sum(bp, pairs.diagonal([[MINUS]]),
                                [PLUS] * bp.dim, [PLUS])
    return pair


def whole_pair_series(full, n):
    """The dims and total that the engine on the whole pair gives at the
    cutoff n: the dims through the first zero, summed only when a zero
    was reached."""
    dims = []
    for m in range(n + 1):
        dims.append(full.dim(m))
        if dims[-1] == 0:
            return dims, sum(dims)
    return dims, None


def ms_d4_z():
    return pairs.change_basis(ms_d4(), pairs.two_by_two_z_basis(PLUS, PLUS))


# (name, pair, its components, its top degree, or None when infinite, and
# the largest cutoff tried): the QLS pairs of the benchmark panel, ms-d4 in
# the basis that diagonalizes it, the A2 (+) A1 and v3(-1) (+) A1 pairs of
# criterion 13, and an infinite summand
DECOMPOSABLE = [
    ("qls-444", lambda: qls((4, 4, 4)), [[0], [1], [2]], 9, 11),
    ("qls-345", lambda: qls((3, 4, 5)), [[0], [1], [2]], 9, 11),
    ("qls-555", lambda: qls((5, 5, 5)), [[0], [1], [2]], 12, 14),
    ("ms-d4-z", ms_d4_z, [[0, 1], [2, 3]], 8, 10),
    ("a2-8-a1", with_a_line(lambda: pairs.diagonal(
        [[MINUS, root_of_unity(4, 1)], [root_of_unity(4, 1), MINUS]])),
     [[0, 1], [2]], 5, 7),
    ("a2-12-a1", with_a_line(lambda: pairs.diagonal(
        [[MINUS, root_of_unity(3, 2)], [PLUS, root_of_unity(3, 1)]])),
     [[0, 1], [2]], 6, 8),
    ("v3-m1-a1", with_a_line(v3_m1), [[0, 1, 2], [3]], 5, 7),
    ("v3-z3-a1", with_a_line(v3_z3), [[0, 1, 2], [3]], None, 6),
]


@pytest.mark.parametrize("build,parts,top,cutoff",
                         [case[1:] for case in DECOMPOSABLE],
                         ids=[case[0] for case in DECOMPOSABLE])
def test_hilbert_of_a_decomposable_pair_is_the_whole_pairs(build, parts,
                                                           top, cutoff):
    # every cutoff, below, at and past the top degree: the product of the
    # components' truncated series gives the dims and the total of the
    # engine on the whole pair, the total only once the zero is reached
    bp = build()
    assert _components(bp) == parts
    full = GradedComputation(bp)
    for n in range(cutoff + 1):
        res = hilbert(bp, n)
        assert (res.dims, res.total) == whole_pair_series(full, n), n
        assert res.finite == (top is not None and n > top), n
    if top is not None:
        assert len(hilbert(bp, cutoff).dims) == top + 2


@pytest.mark.parametrize("build,blocks,n,records", [
    (v3_m1, 1, 8, 6), (c6_b2, 2, 12, 12), (ms_d4, 2, 10, 10),
    (v4_m1_p1, 1, 12, 11)], ids=["v3", "c6-b2", "ms-d4", "v4_m1_p1"])
def test_a_pair_of_one_component_runs_the_engine_on_its_cache(build, blocks,
                                                             n, records):
    # one block, or two blocks that c^2 links: no split, and the cache
    # holds every degree through the first zero, as before the split
    bp = build()
    assert len(pairs.find_decomposition(bp)) == blocks
    assert _components(bp) == [list(range(bp.dim))]
    cache = GradedComputation(bp)
    dims = hilbert(bp, n, cache).dims
    assert len(cache._degrees) == len(dims) == records
    assert [deg.ech.rank for deg in cache._degrees] == dims


def test_a_decomposable_pair_leaves_its_cache_untouched(monkeypatch):
    # the components run on computations of their own: the cache given
    # keeps only its degree-0 record, and a later basis(n) computes the
    # whole pair's degree n in full
    bp = qls((3, 4, 5))
    cache = GradedComputation(bp)
    assert hilbert(bp, 11, cache).total == 60
    assert len(cache._degrees) == 1
    assert cache.dim(5) == 11 and len(cache._degrees) == 6
    # the engine never runs on the whole pair: each computation made is of
    # one component, at the conductor of its own root
    made = []
    init = GradedComputation.__init__

    def spy(self, pair):
        made.append(pair)
        init(self, pair)

    monkeypatch.setattr(GradedComputation, "__init__", spy)
    assert hilbert(bp, 11).dims == hilbert(bp, 11, cache).dims
    assert [(pair.dim, pair.conductor) for pair in made] == [
        (1, 3), (1, 4), (1, 5)] * 2


def test_restrict_needs_no_validation(monkeypatch):
    # every component and block of the differential, panel and
    # decomposable pairs restricts, with pair validation unavailable, to
    # the pair that a validated build of the same data gives
    def refuse(bp):
        raise AssertionError("restrict validated a sub-pair")

    builds = ([case[1] for case in DIFFERENTIAL] + [case[0] for case in PANEL]
              + [case[1] for case in DECOMPOSABLE])
    for build in builds:
        bp = build()
        parts = _components(bp) + pairs.find_decomposition(bp)
        with monkeypatch.context() as patch:
            patch.setattr(pairs, "check", refuse)
            subs = [pairs.restrict(bp, part) for part in parts]
        for sub in subs:
            valid = pairs.BraidedPair(sub.dim, sub.cmap, sub.grouplikes)
            assert (sub.cmap, sub.grouplikes, sub.conductor) == (
                valid.cmap, valid.grouplikes, valid.conductor)
            if bp.grouplikes is not None:
                assert sub.grouplikes == pairs._detect_grouplikes(
                    sub.dim, sub.cmap)
