import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from nichols.linalg import Echelon
from nichols.scalars import (
    CYCLOTOMIC,
    Cyc,
    _convolution,
    _cyclotomic_field,
    _inverse,
    _multiplier,
    _normalize,
    _powers,
    _root_multiplier,
    _submultiplier,
    _table,
    cyclotomic,
    euler_phi,
    field,
    format_scalar,
    from_terms,
    gaussian_poly,
    integer,
    one,
    order,
    parse_scalar,
    q_binomial,
    q_factorial,
    q_number,
    rational,
    root_of_unity,
    to_terms,
    zero,
)


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    assert euler_phi(60) == 16


def test_root_of_unity_basics():
    assert root_of_unity(1, 0) == integer(1)
    assert root_of_unity(2, 1) == integer(-1)
    w1 = root_of_unity(3, 1)
    w2 = root_of_unity(3, 2)
    assert w1 + w2 == integer(-1)
    # minimal conductor: zeta_6 is expressed inside Q(zeta_3)
    assert root_of_unity(6, 1).conductor == 3
    assert root_of_unity(6, 1) ** 6 == one()
    assert root_of_unity(6, 1) ** 3 == integer(-1)
    # zeta_12^8 has order 3
    assert root_of_unity(12, 8) == root_of_unity(3, 2)


def test_every_root_of_unity_is_a_power_at_its_least_conductor():
    # zeta_m^e lives at the least conductor of Q(zeta_k), k its order: 1
    # for k <= 2, k/2 for k = 2 mod 4 (Q(zeta_2u) = Q(zeta_u), u odd), k
    # otherwise; exponents out of range, zero and negative included
    for m in range(1, 31):
        z = root_of_unity(m, 1)
        for e in range(-m, 2 * m + 1):
            got = root_of_unity(m, e)
            assert got == z ** (e % m)
            k = m // gcd(e, m)
            least = 1 if k <= 2 else k // 2 if k % 4 == 2 else k
            assert got.conductor == least
            assert got.den == 1


def test_mixed_conductor_arithmetic():
    i = root_of_unity(4, 1)
    w = root_of_unity(3, 1)
    z = i * w
    assert z.conductor == 12
    assert z ** 12 == one()
    assert z ** 6 == integer(-1)
    assert (z ** 4) == w ** 4 * i ** 4


def test_field_axioms_randomized():
    rng = random.Random(7)

    def rand_scalar():
        m = rng.choice([1, 3, 4, 5, 12])
        k = euler_phi(m)
        return Cyc(m, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(k)])

    for _ in range(40):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero() == a
        assert a * one() == a
        if not a.is_zero():
            assert a * a.inverse() == one()


def test_large_conductor_inverses():
    rng = random.Random(23)
    for m in (8, 9, 60):
        k = euler_phi(m)
        for _ in range(3):
            coeffs = [rng.randint(-3, 3) for _ in range(k)]
            if not any(coeffs):
                coeffs[0] = 1
            a = Cyc(m, coeffs)
            assert a * a.inverse() == one()


def test_equality_is_conductor_independent():
    w = root_of_unity(3, 1)
    lifted = w.embed(12)
    assert lifted.conductor == 12
    assert lifted == w and w == lifted
    assert not (lifted + one() == w)
    # embed keeps rational constants at the requested conductor for keying
    two = integer(2).embed(12)
    assert two.conductor == 12 and two == integer(2)


def test_division_and_powers():
    i = root_of_unity(4, 1)
    assert (one() / i) == i ** 3
    assert i ** -1 == i ** 3
    w = root_of_unity(5, 2)
    assert w ** -2 == w ** 3
    with pytest.raises(ZeroDivisionError):
        zero().inverse()


def test_unsupported_operands_raise_type_error():
    # the reflected operators once used the operand before coercing it, and
    # a float exponent failed inside the square-and-multiply loop
    c = root_of_unity(3, 1)
    cases = [(lambda: "a" / c, "/"), (lambda: "a" - c, "-"),
             (lambda: "a" / zero(), "/"), (lambda: c ** 0.5, r"\*\*"),
             (lambda: c ** Fraction(1, 2), r"\*\*"), (lambda: c - "a", "-")]
    for op, symbol in cases:
        with pytest.raises(TypeError, match=f"unsupported operand type.* "
                                            f"for {symbol}"):
            op()


def test_order():
    assert order(integer(-1)) == 2
    assert order(one()) is None
    assert order(root_of_unity(6, 1)) == 6
    assert order(root_of_unity(12, 5)) == 12
    assert order(root_of_unity(9, 3)) == 3
    assert order(integer(2)) is None
    assert order(rational(1, 2)) is None
    # order(q) = N implies q^N = 1 and q^k != 1 for 0 < k < N
    for m, e in [(8, 3), (12, 1), (5, 1), (7, 2)]:
        q = root_of_unity(m, e)
        n = order(q)
        assert q ** n == one()
        for k in range(1, n):
            assert q ** k != one()


def test_q_numbers():
    q = root_of_unity(5, 1)
    assert q_number(2, q) == one() + q
    w = root_of_unity(3, 1)
    assert q_factorial(3, w).is_zero()  # contains (3)_w = 0
    # frozen from the integer polynomial 1+q+2q^2+q^3+q^4 at q=-1
    assert gaussian_poly(4, 2) == [1, 1, 2, 1, 1]
    assert q_binomial(4, 2, integer(-1)) == integer(2)
    assert q_binomial(6, 3, one()) == integer(20)


def test_q_binomial_polynomial_identity():
    # (n choose m)_q (m)_q! (n-m)_q! = (n)_q! as integer polynomials
    def q_number_poly(n):
        return [1] * n

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def q_fact_poly(n):
        out = [1]
        for i in range(1, n + 1):
            out = poly_mul(out, q_number_poly(i))
        return out

    for n in range(7):
        for m in range(n + 1):
            lhs = poly_mul(gaussian_poly(n, m),
                           poly_mul(q_fact_poly(m), q_fact_poly(n - m)))
            rhs = q_fact_poly(n)
            assert lhs == rhs


def test_gaussian_binomials_of_high_degree_do_not_recurse():
    # the q-Pascal table is filled row by row: n = 1100 once raised
    # RecursionError, one frame per row
    poly = gaussian_poly(1100, 2)
    assert len(poly) == 2 * 1098 + 1
    assert sum(poly) == 1100 * 1099 // 2
    assert q_binomial(1100, 2, integer(-1)) == integer(550)


def test_text_terms_roundtrip():
    vals = [
        integer(-3),
        rational(2, 3),
        root_of_unity(12, 7),
        root_of_unity(5, 1) + rational(1, 2),
    ]
    for v in vals:
        m = v.conductor
        assert from_terms(m, to_terms(v)) == v
        assert parse_scalar(format_scalar(v), m) == v
    assert parse_scalar("-1", 4) == integer(-1)
    assert format_scalar(zero()) == "0:0"
    with pytest.raises(ValueError):  # not ZeroDivisionError
        parse_scalar("1/0:0", 4)


def test_format_scalar_writes_each_term_in_lowest_terms():
    # the terms of a value share its denominator, but each is written
    # reduced on its own, and the token parses back to the value
    for v, token in (
            (rational(1, 2) + rational(1, 4) * root_of_unity(4, 1),
             "1/2:0,1/4:1"),
            (rational(5, 6) - rational(2, 3) * root_of_unity(3, 1),
             "5/6:0,-2/3:1"),
            (rational(3, 4) * root_of_unity(12, 1) + integer(2), "2:0,3/4:1"),
            (rational(-7, 3), "-7/3:0")):
        assert format_scalar(v) == token
        assert parse_scalar(token, v.conductor) == v
        assert from_terms(v.conductor, to_terms(v)) == v
        assert all(gcd(num, den) == 1 and den > 0
                   for num, den, _ in to_terms(v))


def test_coeffs_view():
    v = root_of_unity(4, 1) + rational(1, 2)
    assert v.coeffs == (Fraction(1, 2), Fraction(1))
    assert len(zero().coeffs) == euler_phi(1)


def test_non_positive_conductor_is_refused():
    # cyclotomic(0) once returned x - 1, so Cyc(0, [5]) constructed
    for m in (0, -3):
        with pytest.raises(ValueError):
            cyclotomic(m)
        with pytest.raises(ValueError):
            Cyc(m, [5])
        with pytest.raises(ValueError):
            from_terms(m, [(5, 1, 0)])
        with pytest.raises(ValueError):
            field(m)


def test_zero_denominator_is_an_error():
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)
    with pytest.raises(ZeroDivisionError):
        from_terms(4, [(1, 0, 1)])


def test_negative_exponent_is_refused():
    # "1:-1" once indexed the coefficient vector from its end: zeta_4
    with pytest.raises(ValueError):
        parse_scalar("1:-1", 4)
    with pytest.raises(ValueError):
        from_terms(4, [(1, 1, -1)])


def test_field_arithmetic_against_sympy():
    # products, sums and inverses modulo Phi_m, each against sympy's own
    # polynomial arithmetic; m = 2 mod 4 is built directly at that conductor
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(60)

    def poly(c, m):
        return sympy.Poly.from_list(
            [sympy.Rational(v.numerator, v.denominator)
             for v in reversed(c.embed(m).coeffs)], x, domain=sympy.QQ)

    def rand_cyc(m):
        while True:
            c = Cyc(m, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        if rng.random() < 0.7 else 0
                        for _ in range(euler_phi(m))])
            if c:
                return c

    conductors = [60, 6, 10, 3, 4, 5, 7, 8, 9, 12, 15, 20, 24, 30, 36, 45]
    conductors += rng.sample(range(2, 61), 8)
    # then operands at two conductors, which meet in the lcm's field
    for ma, mb in [(m, m) for m in conductors] + [(3, 4), (5, 12), (1, 60)]:
        m = lcm(ma, mb)
        phi = sympy.Poly(sympy.cyclotomic_poly(m, x), x, domain=sympy.QQ)
        for _ in range(3):
            a, b = rand_cyc(ma), rand_cyc(mb)
            assert poly(a * b, m) == (poly(a, m) * poly(b, m)).rem(phi)
            assert poly(a + b, m) == (poly(a, m) + poly(b, m)).rem(phi)
        # sympy's extended Euclid dominates the cost: one inverse each
        assert poly(a.inverse(), m) == poly(a, m).invert(phi)


# ---------------------------------------------------------------------------
# the field of a computation against Cyc's former arithmetic

def _product(a, b, table):
    """a * b modulo Phi_m by convolution and reduction: the loop that the
    generated ``_multiplier(m)`` replaced, kept as its oracle."""
    k = len(a)
    conv = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    conv[j] += x * y
    out = conv[:k]
    for e in range(k, 2 * k - 1):
        c = conv[e]
        if c:
            for i, r in table[e]:
                out[i] += c * r
    return out


# Cyc's own sum, product and inverse from before it computed in the field
# types, kept as their oracle: integer vectors aligned at the lcm
# conductor, and rational branches that touch a single coefficient

def _aligned(a, b):
    """(m, num_a, den_a, num_b, den_b) at the lcm conductor m."""
    m = lcm(a.m, b.m)
    return m, a.embed(m).num, a.den, b.embed(m).num, b.den


def _sum(a, b):
    m, na, da, nb, db = _aligned(a, b)
    if da == db:
        return _normalize(m, [x + y for x, y in zip(na, nb)], da)
    g = gcd(da, db)
    fa, fb = db // g, da // g
    return _normalize(m, [x * fa + y * fb for x, y in zip(na, nb)], da * fa)


def _times(a, b):
    if a.m == 1 and b.m == 1:
        return _normalize(1, [a.num[0] * b.num[0]], a.den * b.den)
    if a.m == 1:
        return _normalize(b.m, [a.num[0] * y for y in b.num], a.den * b.den)
    if b.m == 1:
        return _normalize(a.m, [x * b.num[0] for x in a.num], a.den * b.den)
    m, na, da, nb, db = _aligned(a, b)
    return _normalize(m, _product(na, nb, _table(m)), da * db)


def _reciprocal(a):
    if a.m == 1:
        return _normalize(1, [a.den], a.num[0])
    inv = _inverse(a.m, (*a.num, a.den))
    return _normalize(a.m, inv[:-1], inv[-1])


def _canonical(F, v):
    """Whether v is a value of ``F`` in its canonical form: at m = 1 a
    nonzero int, or a reduced (num, den) pair with den > 1, never (n, 1);
    at m > 1 a nonzero flat tuple of phi(m) coefficients and a positive
    denominator, gcd-normalized."""
    if F.m == 1:
        if type(v) is int:
            return v != 0
        num, den = v
        return (type(num) is int and type(den) is int and num != 0
                and den > 1 and gcd(num, den) == 1)
    *num, den = v
    return (type(v) is tuple and len(num) == euler_phi(F.m) and den > 0
            and any(num) and gcd(den, *num) == 1)


FIELD_CONDUCTORS = (1, 3, 4, 5, 8, 12, 15, 60)
DIFFERENTIAL = settings(derandomize=True, deadline=None, max_examples=40,
                        database=None)


@st.composite
def values_in(draw, m):
    """A Cyc in Q(zeta_m): half the time a rational multiple of a root of
    unity (the inverse shortcut), else sparse random coefficients at a
    divisor of m, embedded by ``from_cyc``."""
    if draw(st.booleans()):
        c = rational(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
        return c * root_of_unity(m, draw(st.integers(0, m - 1)))
    q = draw(st.sampled_from([q for q in range(1, m + 1) if m % q == 0]))
    return Cyc(q, [Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
                   if draw(st.booleans()) else 0
                   for _ in range(euler_phi(q))])


@pytest.mark.parametrize("m", FIELD_CONDUCTORS)
@DIFFERENTIAL
@given(data=st.data())
def test_field_arithmetic_matches_cyc(m, data):
    # every function of the field against Cyc and its former arithmetic;
    # zero is no value: from_cyc gives None for it, to_cyc takes None back
    F = field(m)
    a, b, c = (data.draw(values_in(m)) for _ in range(3))
    fa, fb, fc = map(F.from_cyc, (a, b, c))
    for x, fx in ((a, fa), (b, fb), (c, fc)):
        assert (fx is None) == (not x)
        assert F.to_cyc(fx) == x and F.from_cyc(F.to_cyc(fx)) == fx
    assert F.to_cyc(None) == zero()
    assert F.is_one(F.one) and F.from_cyc(one()) == F.one
    if fa is None or fb is None or fc is None:
        return
    assert F.to_cyc(F.add(fa, fb)) == _sum(a, b) == a + b
    assert F.to_cyc(F.sub(fa, fb)) == _sum(a, -b) == a - b
    assert F.to_cyc(F.neg(fa)) == -a and F.neg(F.neg(fa)) == fa
    assert F.to_cyc(F.mul(fa, fb)) == _times(a, b) == a * b
    # scaling by any value, and by +-zeta^e, a crossing's usual factor
    assert F.to_cyc(F.scaling(fb)(fa)) == a * b
    e = data.draw(st.integers(0, m - 1))
    for s in (root_of_unity(m, e), -root_of_unity(m, e)):
        assert F.to_cyc(F.scaling(F.from_cyc(s))(fa)) == a * s
    # the fused step of elimination: x - a*b, None exactly when zero
    diff = _sum(a, -_times(b, c))
    got = F.submul(fa, fb, fc)
    assert (got is None) == (not diff)
    assert F.to_cyc(got) == diff == a - b * c
    assert got == F.sub(fa, F.mul(fb, fc))
    assert F.submul(F.mul(fb, fc), fb, fc) is None
    assert F.sub(fa, fa) is None and F.add(fa, F.neg(fa)) is None
    assert F.is_one(fa) == a.is_one()
    assert F.to_cyc(F.inverse(fa)) == _reciprocal(a) == a.inverse()
    assert F.is_one(F.mul(fa, F.inverse(fa)))
    # every result is canonical, so == on values is the field's equality
    for v in (fa, fb, F.add(fa, fb), F.sub(fa, fb), F.neg(fa),
              F.mul(fa, fb), got, F.inverse(fa), F.one):
        assert v is None or _canonical(F, v), v
    # the same interface over Cyc
    assert CYCLOTOMIC.submul(a, b, c) == (diff or None)
    assert CYCLOTOMIC.to_cyc(CYCLOTOMIC.add(a, -a)) == zero()


def test_negation_at_every_conductor():
    # the negation is generated per degree phi(m); check each conductor's
    # on an integral, a fractional and a root-of-unity value
    for m in range(1, 61):
        F = field(m)
        for a in (integer(-3) + root_of_unity(m, 1),
                  rational(5, 6) * root_of_unity(m, m - 1) - rational(1, 4),
                  -root_of_unity(m, 1)):
            fa = F.from_cyc(a)
            got = F.neg(fa)
            assert F.to_cyc(got) == -a and _canonical(F, got), (m, a)
            assert F.neg(got) == fa and F.add(fa, got) is None


@pytest.mark.parametrize("m", FIELD_CONDUCTORS)
@DIFFERENTIAL
@given(data=st.data())
def test_normalize_gives_the_canonical_form(m, data):
    k = euler_phi(m)
    num = data.draw(st.lists(st.integers(-12, 12), min_size=k, max_size=k))
    if data.draw(st.booleans()):
        # a common factor to cancel
        f = data.draw(st.integers(2, 6))
        num = [f * v for v in num]
    den = data.draw(st.integers(-24, 24).filter(bool))
    c = _normalize(m, num, den)
    assert type(c.num) is tuple and type(c.den) is int
    assert c.den > 0 and gcd(c.den, *c.num) == 1
    assert (c.conductor == 1) == (not any(num[1:]))
    assert len(c.num) == euler_phi(c.conductor)
    assert c.embed(m).coeffs == tuple(Fraction(v, den) for v in num)
    with pytest.raises(ZeroDivisionError):
        _normalize(m, num, 0)


@pytest.mark.parametrize("m", (1, 2, 3, 4, 5, 6, 7, 9, 12, 15, 30, 60))
def test_one_power_table_per_conductor(m):
    rows = _powers(m)
    assert _powers(m) is rows and type(rows) is tuple
    k = euler_phi(m)
    assert len(rows) == max(m, 2 * k - 1)
    phi = cyclotomic(m)
    for e, row in enumerate(rows):
        # x^e reduced modulo the monic Phi_m from the top
        poly = [0] * max(e + 1, k)
        poly[e] = 1
        for top in range(e, k - 1, -1):
            c = poly[top]
            for i, r in enumerate(phi):
                poly[top - k + i] -= c * r
        assert row == tuple(poly[:k])
    assert _table(m) == tuple(tuple((i, r) for i, r in enumerate(row) if r)
                              for row in rows)
    assert _table(m) is _table(m)


@pytest.mark.parametrize("m", FIELD_CONDUCTORS)
@settings(derandomize=True, deadline=None, max_examples=15, database=None)
@given(data=st.data())
def test_echelon_is_the_same_in_either_type(m, data):
    F = field(m)
    vecs = data.draw(st.lists(st.dictionaries(
        st.integers(0, 5), values_in(m).filter(bool), max_size=4),
        max_size=6))
    plain, fast = Echelon(), Echelon(F)
    for vec in vecs:
        assert plain.insert(vec) == fast.insert(
            {k: F.from_cyc(c) for k, c in vec.items()})
    assert plain.pivots() == fast.pivots()
    plain.rref()
    fast.rref()
    for p in plain.pivots():
        assert {k: F.to_cyc(c) for k, c in fast.rows[p].items()
                } == plain.rows[p]
    assert [{k: F.to_cyc(c) for k, c in vec.items()}
            for vec in fast.nullspace(range(6))] == plain.nullspace(range(6))


# ---------------------------------------------------------------------------
# the generated product against the convolution loop it replaced

PRODUCT_CONDUCTORS = (3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24, 30, 60)


@st.composite
def vectors(draw, m):
    """An integer coefficient vector at conductor m: dense, a multiple of
    a root of unity (sparse, or dense where zeta^e leaves the power basis),
    or zero."""
    k = euler_phi(m)
    kind = draw(st.sampled_from(["dense", "root", "zero"]))
    if kind == "dense":
        return tuple(draw(st.lists(st.integers(-9, 9), min_size=k,
                                   max_size=k)))
    if kind == "root":
        c = draw(st.sampled_from([1, -1, 2, -3]))
        return tuple(c * v for v in _powers(m)[draw(st.integers(0, m - 1))])
    return (0,) * k


def _dense_nonzero(draw, m, den):
    """A Cyc at conductor m with denominator ``den`` exactly, dense
    coefficients and the first one 1."""
    rest = draw(st.lists(st.integers(-9, 9), min_size=euler_phi(m) - 1,
                         max_size=euler_phi(m) - 1))
    return Cyc(m, [Fraction(v, den) for v in [1] + rest])


@pytest.mark.parametrize("m", PRODUCT_CONDUCTORS)
@DIFFERENTIAL
@given(data=st.data())
def test_multiplier_matches_convolution_loop(m, data):
    # integral values (den 1) take no gcd, so the kernels give the raw
    # convolution
    a, b = data.draw(vectors(m)), data.draw(vectors(m))
    product = _multiplier(m)((*a, 1), (*b, 1))
    assert type(product) is tuple and product[-1] == 1
    assert list(product[:-1]) == _product(a, b, _table(m))
    assert list(_multiplier(m)((*b, 1), (*a, 1))[:-1]) == _product(
        b, a, _table(m))
    # the fused kernel x - a * b runs the same convolution
    x = data.draw(vectors(m))
    want = [u - v for u, v in zip(x, _product(a, b, _table(m)))]
    got = _submultiplier(m)((*x, 1), (*a, 1), (*b, 1))
    if any(want):
        assert type(got) is tuple and list(got) == want + [1]
    else:
        assert got is None


@pytest.mark.parametrize("m", PRODUCT_CONDUCTORS)
@DIFFERENTIAL
@given(data=st.data())
def test_generated_field_arithmetic_against_cyc(m, data):
    F = field(m)
    # a dense value is seldom a multiple of a root of unity, so it
    # inverts through its Galois norm
    den = data.draw(st.integers(1, 6))
    a = _dense_nonzero(data.draw, m, den)
    fa = F.from_cyc(a)
    assert F.is_one(F.mul(fa, F.inverse(fa)))
    assert _times(a, _reciprocal(a)) == one()
    assert F.to_cyc(F.inverse(fa)) == _reciprocal(a)
    with pytest.raises(ZeroDivisionError):
        _inverse(m, (0,) * euler_phi(m) + (1,))
    # equal denominators: a plus an integral vector keeps a's denominator
    shift = Cyc(m, data.draw(st.lists(st.integers(-9, 9),
                                      min_size=euler_phi(m),
                                      max_size=euler_phi(m))))
    fb = F.from_cyc(_sum(a, shift))
    assert fb[-1] == fa[-1] == den
    assert F.to_cyc(F.add(fa, fb)) == _sum(a, _sum(a, shift))
    assert F.to_cyc(F.sub(fb, fa)) == shift
    # unequal denominators, one dividing the other or coprime
    other = data.draw(st.sampled_from([2 * den, 7]))
    c = _dense_nonzero(data.draw, m, other)
    fc = F.from_cyc(c)
    assert fc[-1] == other != fa[-1]
    assert F.to_cyc(F.add(fa, fc)) == _sum(a, c)
    assert F.to_cyc(F.sub(fc, fa)) == _sum(c, -a)
    assert F.to_cyc(F.mul(fa, fc)) == _times(a, c)
    # the fused step x - a*b, canonical, with x's denominator and a's
    # times b's equal (the first triple), one dividing the other (the
    # fourth, and the second and third when c's is 2 * den), coprime (the
    # second and third when it is 7), and with integral operands (the
    # last); a zero shift is no value
    fs = F.from_cyc(shift)
    if fs is not None:
        for x, y, z in ((fb, fa, fs), (fc, fa, fs), (fa, fc, fs),
                        (fa, fa, fc), (fs, fs, F.one)):
            got = F.submul(x, y, z)
            want = _sum(F.to_cyc(x), -_times(F.to_cyc(y), F.to_cyc(z)))
            assert got == F.from_cyc(want)
            assert got is None or _canonical(F, got)
    assert F.submul(F.mul(fa, fc), fc, fa) is None


@pytest.mark.parametrize("m", PRODUCT_CONDUCTORS)
@DIFFERENTIAL
@given(data=st.data())
def test_root_multiplier_matches_product(m, data):
    F = field(m)
    table = _table(m)
    k = euler_phi(m)
    # a dense operand over a denominator > 1, a dense integral one, and
    # the zero vector, which the kernel takes to itself
    den = data.draw(st.integers(2, 6))
    dense = data.draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
    operands = [F.from_cyc(_dense_nonzero(data.draw, m, den)),
                F.from_cyc(Cyc(m, dense)) if any(dense) else None,
                (0,) * k + (1,)]
    assert operands[0][-1] == den
    for e, row in enumerate(_powers(m)[:m]):
        for key, root in ((e, row), (-1 - e, tuple(-v for v in row))):
            times = _root_multiplier(m, key)
            s = F.from_cyc(Cyc(m, root))
            for c in operands:
                if c is None:
                    continue
                got = times(c)
                assert type(got) is tuple and got[-1] == c[-1]
                assert list(got[:-1]) == _product(c[:-1], root, table)
                if any(c[:-1]):
                    assert got == F.mul(c, s) == F.scaling(s)(c)
                    assert _canonical(F, got)


def test_root_multiplier_is_built_once_per_exponent():
    for m in (3, 12, 60):
        before = _root_multiplier.cache_info().currsize
        # each of the 2m encodings of a conductor's roots and negated
        # roots, asked for twice
        for e in [*range(-m, m)] * 2:
            assert _root_multiplier(m, e) is _root_multiplier(m, e)
        assert _root_multiplier.cache_info().currsize - before <= 2 * m
    assert _root_multiplier(12, 1) is not _root_multiplier(12, 2)
    assert _root_multiplier(3, 1) is not _root_multiplier(4, 1)
    # the field hands out the one multiplier of each root
    F = field(12)
    z = F.from_cyc(root_of_unity(12, 5))
    assert F.scaling(z) is F.scaling(F.from_cyc(root_of_unity(12, 5)))
    assert F.scaling(z) is _root_multiplier(12, 5)
    # 1 returns its operand; any other value multiplies
    c = F.from_cyc(rational(3, 2) * root_of_unity(12, 1))
    assert F.scaling(F.one)(c) is c
    two_z = F.from_cyc(integer(2) * root_of_unity(12, 5))
    assert F.scaling(two_z)(c) == F.mul(c, two_z)
    Q = field(1)
    for q in (Q.from_cyc(rational(-3, 4)), Q.from_cyc(integer(5))):
        assert Q.scaling(Q.one)(q) is q
        assert Q.scaling(Q.from_cyc(integer(-1)))(q) == Q.neg(q)
        assert Q.scaling(q)(q) == Q.mul(q, q)


def test_multiplier_is_built_once_per_conductor():
    for m in (1, 3, 12, 60):
        assert field(m) is field(m) and field(m).m == m
    for m in (3, 12, 60):
        assert _multiplier(m) is _multiplier(m)
    assert _multiplier(3) is not _multiplier(4)


def test_convolution_is_built_once_per_conductor():
    # the product and the fused step x - a*b share one convolution: making
    # a field from empty caches builds it once and reads it twice
    _convolution.cache_clear()
    _multiplier.cache_clear()
    F = _cyclotomic_field(20)
    assert _convolution.cache_info()[:2] == (1, 1)  # hits, misses
    a = F.from_cyc(root_of_unity(20, 3) + rational(1, 2))
    assert F.submul(F.one, a, a) == F.sub(F.one, F.mul(a, a))


@pytest.mark.parametrize("m", [1, 3, 12, 60])
def test_to_cyc_inverts_from_cyc(m):
    # a field's values are canonical already, so ``to_cyc`` wraps them with
    # no gcd and shrinks only a constant to conductor 1: the round trip
    # gives the very m, num and den of the canonical Cyc
    F = field(m)
    constants = [zero(), one(), integer(-6), rational(3, 4),
                 rational(-5, 12)]
    others = []
    if m > 1:
        z = root_of_unity(m, 1)
        # a product of roots that is rational lands at conductor 1
        constants.append(z * root_of_unity(m, m - 1) * rational(7, 2))
        others = [z, -z, rational(2, 3) * z + rational(1, 6),
                  z * z * integer(4) - z / integer(7),
                  (z - integer(3)).inverse()]
    for c in constants + others:
        back = F.to_cyc(F.from_cyc(c))
        assert back == c
        assert (back.m, back.num, back.den) == (c.m, c.num, c.den), c
        assert type(back.num) is tuple
    assert {c.m for c in constants} == {1}
    assert all(c.m == m for c in others)


def test_field_elements_compare_unequal_to_other_types():
    # values are plain data: a flat tuple is equal to no int, Cyc or
    # value of another conductor; at conductor 1 an integral value is the
    # int itself, and a fraction a pair that equals no int
    x = field(12).one
    assert (x == None) is False  # noqa: E711
    assert ({0: x} == {0: 1}) is False
    assert x != 1 and x != one()
    assert field(12).one != field(4).one
    Q = field(1)
    assert Q.one == 1 and type(Q.one) is int
    assert Q.from_cyc(rational(1, 2)) == (1, 2) != 1
    assert Q.from_cyc(rational(4, 2)) == 2
