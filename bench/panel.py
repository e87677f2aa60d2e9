"""The benchmark's four workloads: inputs made from a seed, the timed
items, and the exact answer each item must give.

A workload is a list of items run one after another in one process (a
closed loop with one client).  Building a workload is the benchmark's
set-up: it imports nothing but the public modules of ``nichols``, builds
and validates every braided pair (the constructors check the braid
equation), and writes the crossed-set files the CLI reads.  Running an
item is the timed part; it starts from fresh state every time (a new
unvalidated copy of the pair and a new ``GradedComputation``), so a pass
can never replay an earlier pass's work.

Why every expected answer holds for every seed.  A seed chooses only
(a) Galois conjugates: the exponent e of zeta_m^e with gcd(e, m) = 1,
(b) letter orders: a permutation of the basis letters, and (c) the seed
of the ``verify`` suite.  A Galois automorphism of Q(zeta_m) applied to
every braiding entry maps each symmetrizer matrix, each candidate row and
each reduced echelon form to its conjugate, and sends zero to zero only;
so every rank, every pivot and every support is unchanged.  Relabelling
letters permutes tensor coordinates, which also preserves every rank.
The crossed-set inputs do not depend on the seed.  The operator identities
of ``verify`` are identities in the braid group algebra, so they hold on
every suite.  The values themselves are those the repository states
(README, ROADMAP, tests) or were recorded from the seed commit.
"""

import contextlib
import io
import os
import random

from nichols import algebra, cli, fileio, groups, pairs, quandles
from nichols.linalg import decode_word
from nichols.scalars import integer, root_of_unity

MINUS, PLUS = integer(-1), integer(1)


class Item:
    """One timed call.  ``run`` returns ``(answer, comps)``: the value
    ``check`` compares against the expected answer, and the
    ``GradedComputation`` objects whose bases the traced run reads for
    echelon fill (empty for CLI items)."""

    __slots__ = ("name", "layer", "run", "check")

    def __init__(self, name, layer, run, check):
        self.name = name
        self.layer = layer
        self.run = run
        self.check = check


def fresh(bp):
    """A new pair object with the same braiding, so no per-object cache
    (such as the inverse braiding) survives from an earlier pass.  The
    braiding was validated when set-up built ``bp``."""
    return pairs.BraidedPair(bp.dim, bp.cmap, bp.grouplikes, kind=bp.kind,
                             params=bp.params, validate=False)


def qls(orders):
    """Quantum linear space: q_ii a primitive N_i-th root, q_ij = 1."""
    d = len(orders)
    return pairs.diagonal([[root_of_unity(orders[i], 1) if i == j else PLUS
                            for j in range(d)] for i in range(d)])


def expect_equal(expected):
    def check(answer):
        return None if answer == expected else f"got {answer}, want {expected}"
    return check


# ---------------------------------------------------------------------------
# graded engine

def hilbert_item(name, bp, degree, dims):
    def run():
        comp = algebra.GradedComputation(fresh(bp))
        return algebra.hilbert(comp.bp, degree, comp).dims, [comp]
    return Item(name, "algebra", run, expect_equal(dims))


def hilbert_finite(rng):
    """Finite algebras: narrow components whose tensor-coordinate rows have
    large support.  Time goes to ``braids.t1_apply``/``sigma_pass`` and to
    ``Cyc`` arithmetic at conductors 1, 3, 4, 5 and 60 (QLS(3,4,5) mixes
    conductors); ``Echelon`` work is light.  This is where a
    derivation-coordinate engine would act.  Bypasses quandles, SNF, CLI."""
    orders = rng.sample((3, 4, 5), 3)
    return [
        # dims of v4(-1,1) as stated in README; the rest recorded at seed
        hilbert_item("v4_m1_p1", pairs.v4(MINUS, PLUS), 12,
                     [1, 4, 8, 11, 12, 12, 11, 8, 4, 1, 0]),
        hilbert_item("ms-d4", pairs.two_by_two(MINUS, MINUS, PLUS, PLUS,
                                               PLUS, PLUS), 10,
                     [1, 4, 8, 12, 14, 12, 8, 4, 1, 0]),
        hilbert_item("c6-b2", pairs.diagonal(
            [[MINUS, root_of_unity(3, 1)], [MINUS, root_of_unity(3, 1)]]), 12,
            [1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1, 0]),
        # QLS dims are the coefficients of prod_i (1 + t + ... + t^(N_i-1))
        hilbert_item("qls-444", qls((4, 4, 4)), 10,
                     [1, 3, 6, 10, 12, 12, 10, 6, 3, 1, 0]),
        hilbert_item("qls-345", qls(orders), 11,
                     [1, 3, 6, 9, 11, 11, 9, 6, 3, 1, 0]),
        hilbert_item("qls-555", qls((5, 5, 5)), 10,
                     [1, 3, 6, 10, 15, 18, 19, 18, 15, 10, 6]),
    ]


def hilbert_growth(rng):
    """Infinite algebras with wide components (245, 121 and 802 at the
    cutoff): ``Echelon.reduce`` dominates, ``sigma_pass`` is a small share,
    and scalars stay at a single conductor (3, 3, 1).  A
    derivation-coordinate engine is predicted to be slower here.  Bypasses
    quandles, SNF, CLI."""
    e3 = rng.choice((1, 2))
    e6 = rng.choice((1, 5))
    return [
        hilbert_item("v3-z3", pairs.v3(root_of_unity(3, e3)), 6,
                     [1, 3, 9, 21, 50, 111, 245]),
        hilbert_item("v3-z6", pairs.v3(root_of_unity(6, e6)), 6,
                     [1, 3, 7, 15, 31, 63, 121]),
        hilbert_item("v4_m1_m1", pairs.v4(MINUS, MINUS), 6,
                     [1, 4, 12, 36, 104, 292, 802]),
    ]


def relation_shape(rows, d, n):
    """Seed-invariant fingerprint of a canonical relation basis: the
    leading word and the support size of each row."""
    return [("".join(map(str, decode_word(min(row), d, n))), len(row))
            for row in rows]


def relations_item(name, bp, rel_degrees, expected_rels, nlw_degrees=(),
                   expected_nlw=()):
    def run():
        comp = algebra.GradedComputation(fresh(bp))
        b = comp.bp
        rels = [relation_shape(algebra.relations(b, n, comp), b.dim, n)
                for n in rel_degrees]
        words = [["".join(map(str, w))
                  for w in algebra.new_leading_words(b, n, comp)]
                 for n in nlw_degrees]
        return (rels, words), [comp, comp.transposed()]
    return Item(name, "algebra", run,
                expect_equal((list(expected_rels), list(expected_nlw))))


def relations(rng):
    """The linear-algebra layer used the other way: reduce against a fixed
    ideal, plus ``rref``/``nullspace`` over a d^n universe, on the
    transposed pair.  It consumes rows instead of producing them.  One
    ``GradedComputation`` per pair.  Bypasses quandles, SNF, CLI."""
    e3 = rng.choice((1, 2))
    v4_rels = [  # counts 8/0/0/0/1/0, as in README and the acceptance tests
        [("00", 1), ("01", 3), ("02", 3), ("03", 3), ("11", 1), ("13", 3),
         ("22", 1), ("33", 1)],
        [], [], [], [("123123", 3)], []]
    v4_words = [["00", "01", "02", "03", "11", "13", "22", "33"],
                ["121", "232"], [], [], ["123123"]]  # counts [8,2,0,0,1]
    v3_rels = [[], [("000", 1), ("001", 8), ("002", 8), ("011", 8),
                    ("111", 1), ("222", 1)], [("0102", 18)], []]
    return [
        relations_item("rel-v4_m1_p1", pairs.v4(MINUS, PLUS), range(2, 8),
                       v4_rels, range(2, 7), v4_words),
        relations_item("rel-v3-z3", pairs.v3(root_of_unity(3, e3)),
                       range(2, 6), v3_rels),
    ]


# ---------------------------------------------------------------------------
# command line

def cli_item(name, argv, lines):
    """In-process ``cli.main(argv)`` with stdout captured; passes when the
    exit code is 0 and every expected line is printed."""
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        got = out.getvalue().splitlines()
        missing = [line for line in lines if line not in got]
        return (code, missing), []

    def check(answer):
        code, missing = answer
        if code != 0:
            return f"exit code {code}"
        return f"missing output {missing}" if missing else None
    return Item(name, "cli", run, check)


# H^2(X; Z/12) of the S4 classes in ``conjugacy_classes`` order after the
# identity: transpositions (6), 3-cycles (8), double transpositions (3,
# a trivial crossed set) and 4-cycles (6); recorded at the seed commit.
S4_H2_MOD12 = ("2 12", "2 2 12 12 12 12", " ".join(["12"] * 9), "4 12")

# H^2(dihedral K; Z/2K), K = 3..12, recorded at the seed commit
DIHEDRAL_H2 = {3: "6", 4: "2 2 8 8 8 8", 5: "10", 6: "12 12 12 12",
               7: "14", 8: "2 2 16 16 16 16", 9: "18", 10: "20 20 20 20",
               11: "22", 12: "2 2 24 24 24 24"}


def cli_mix(rng, workdir):
    """The control workload: integer Smith normal form (no ``Cyc``) and
    ``braids.apply_elt`` under ``verify``, with no ``Echelon`` and no graded
    engine, so an engine-only change should not move it.  It is the only
    workload measuring quandles, identities, fileio and cli, and the path
    that removing ``--threads`` changes."""
    items = []
    for k in range(3, 13):
        items.append(cli_item(
            f"h2-dihedral{k}",
            ["quandle", "h2", "--builtin", f"dihedral{k}",
             "--modulus", str(2 * k)],
            [f"factors: {DIHEDRAL_H2[k]}"]))
    # The files keep the element order ``conjugation_crossed_set`` gives.
    # Relabelled copies are isomorphic, but on some of them (the relabelled
    # 3-cycles recorded in CHANGES.md) ``quandle h2`` runs for minutes
    # instead of a fraction of a second inside ``smith_normal_form``: a
    # library defect to fix, not a workload to time.
    s4 = groups.symmetric(4)
    classes = [c for c in groups.conjugacy_classes(s4) if len(c) > 1]
    for idx, (cls, factors) in enumerate(zip(classes, S4_H2_MOD12), 1):
        xset = quandles.conjugation_crossed_set(s4, [cls[0]])
        path = os.path.join(workdir, f"s4-class{idx}.txt")
        with open(path, "w") as fh:
            fh.write(fileio.dump_crossed_set(xset))
        items.append(cli_item(
            f"h2-s4-class{idx}",
            ["quandle", "h2", "--file", path, "--modulus", "12"],
            [f"factors: {factors}"]))
    # bounds 16 and 36 and their verdicts as stated in README and tests
    items.append(cli_item("rank2-c4-a2", ["rank2", "--builtin", "c4-a2"],
                          ["bound: 16", "verdict: A2_equality"]))
    items.append(cli_item("rank2-c6-b2", ["rank2", "--builtin", "c6-b2"],
                          ["bound: 36", "verdict: r2_conditional_holds"]))
    items.append(cli_item(
        "verify", ["verify", "--max-n", "4",
                   "--seed", str(rng.randrange(2 ** 31))],
        ["result: 28/28 identities hold"]))
    return items


def build(workload, seed, workdir):
    """Set-up: the workload's items for this seed.  ``workdir`` receives
    the files the items read."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "hilbert-finite":
        return hilbert_finite(rng)
    if workload == "hilbert-growth":
        return hilbert_growth(rng)
    if workload == "relations":
        return relations(rng)
    if workload == "cli-mix":
        return cli_mix(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")
