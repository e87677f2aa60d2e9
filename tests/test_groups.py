import pytest

from nichols.groups import (
    FiniteGroup,
    centralizer,
    conjugacy_class,
    conjugacy_classes,
    coset_representatives,
    cyclic,
    cyclic_character,
    dihedral,
    orbits,
    symmetric,
)
from nichols.scalars import integer, one, root_of_unity
from nichols import pairs


def test_builtins_are_groups():
    for g in (cyclic(1), cyclic(6), dihedral(3), dihedral(4), symmetric(3),
              symmetric(4)):
        assert g.mul(g.identity, 2 % g.order) == 2 % g.order
        for x in g.elements():
            assert g.mul(x, g.inv(x)) == g.identity
    assert dihedral(4).order == 8
    assert symmetric(4).order == 24


def test_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # 1 has no inverse / not a group
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [1, 0]])
    # an entry past the order
    with pytest.raises(ValueError, match="must lie in 0..2"):
        FiniteGroup([[0, 1, 2], [1, 9, 0], [2, 0, 1]])


def brute_centralizer(g, x):
    return [y for y in g.elements() if g.mul(y, x) == g.mul(x, y)]


def test_centralizer_and_classes():
    c6 = cyclic(6)
    for x in c6.elements():
        assert centralizer(c6, x) == list(c6.elements())
    assert conjugacy_classes(c6) == [[x] for x in c6.elements()]

    s3 = symmetric(3)
    for x in s3.elements():
        assert centralizer(s3, x) == brute_centralizer(s3, x)
    sizes = sorted(len(c) for c in conjugacy_classes(s3))
    assert sizes == [1, 2, 3]
    transposition = next(x for x in s3.elements()
                         if x != s3.identity and s3.mul(x, x) == s3.identity)
    assert len(centralizer(s3, transposition)) == 2
    assert len(conjugacy_class(s3, transposition)) == 3

    d4 = dihedral(4)
    sizes = sorted(len(c) for c in conjugacy_classes(d4))
    assert sizes == [1, 1, 2, 2, 2]  # center of order two

    # the classes partition the group, listed by their least elements
    s4 = symmetric(4)
    classes = conjugacy_classes(s4)
    assert sorted(x for c in classes for x in c) == list(s4.elements())
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)
    assert all(c == conjugacy_class(s4, c[0]) for c in classes)
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]


def test_yd_module_centralizer_data():
    s3 = symmetric(3)
    three = next(g for g in s3.elements()
                 if g != s3.identity and s3.mul(g, s3.mul(g, g)) == s3.identity
                 and s3.mul(g, g) != s3.identity)
    w = root_of_unity(3, 1)
    # dimension = class size x degree
    bp = pairs.yd_module(s3, [(three, cyclic_character(s3, three, w))])
    assert bp.dim == len(conjugacy_class(s3, three)) == 2
    # abelian group: a single coset
    c4 = cyclic(4)
    i = root_of_unity(4, 1)
    bp = pairs.yd_module(c4, [(1, cyclic_character(c4, 1, i))])
    assert bp.dim == 1
    # plain ints go through the scalar coercion, as in every pair constructor
    bp = pairs.yd_module(c4, [(1, cyclic_character(c4, 1, -1))])
    assert bp.cmap == pairs.diagonal([[-1]]).cmap
    assert bp.cmap == pairs.yd_module(
        c4, [(1, cyclic_character(c4, 1, integer(-1)))]).cmap
    # non-multiplicative data is rejected
    bad = {x: one() for x in c4.elements()}
    bad[1] = integer(-1)
    bad[2] = one()
    with pytest.raises(ValueError, match="multiplicative"):
        pairs.yd_module(c4, [(1, bad)])


def test_coset_representatives_are_minimal():
    s3 = symmetric(3)
    transposition = next(x for x in s3.elements()
                         if x != s3.identity and s3.mul(x, x) == s3.identity)
    cent = centralizer(s3, transposition)
    reps = coset_representatives(s3, cent)
    assert len(reps) == 3
    assert reps[0] == s3.identity
    assert reps == sorted(reps)


def test_matrix_representation_accepted():
    # an explicit two-dimensional representation of the cyclic group of
    # order two: one class element, so dimension 1 x 2
    c2 = cyclic(2)
    minus = integer(-1)
    z = integer(0)
    rho = {0: ((one(), z), (z, one())), 1: ((z, one()), (one(), z))}
    bp = pairs.yd_module(c2, [(1, rho)])
    assert bp.dim == 2
    # the generator swaps the two basis vectors
    assert dict(bp.braiding_terms(0, 0)) == {(1, 0): one()}
    assert pairs.yd_module(c2, [(1, {0: [[1, 0], [0, 1]],
                                     1: [[0, 1], [1, 0]]})]).cmap == bp.cmap
    bad = {0: ((one(), z), (z, one())), 1: ((z, one()), (minus, z))}
    with pytest.raises(ValueError):
        pairs.yd_module(c2, [(1, bad)])


def test_orbits_come_by_first_point_each_listed_breadth_first():
    # Z/6 under x -> x + 2: the orbit of the first point comes first, and a
    # point already listed starts no orbit of its own
    step = lambda x: [(x + 2) % 6]
    assert orbits([3, 0, 1, 2, 4, 5], step) == [[3, 5, 1], [0, 2, 4]]
    # the tree 0-1, 0-2, 1-3, 2-4 and the lone point 5: breadth-first from
    # 0 lists 2 before 3, where a depth-first walk would not
    links = {0: [1, 2], 1: [0, 3], 2: [0, 4], 3: [1], 4: [2], 5: []}
    assert orbits([5, 0], links.__getitem__) == [[5], [0, 1, 2, 3, 4]]
    assert orbits(range(6), links.__getitem__) == [[0, 1, 2, 3, 4], [5]]
    # an orbit holds the points it reaches outside the given ones
    assert orbits([0], lambda x: [(x + 1) % 4]) == [[0, 1, 2, 3]]
    assert orbits([], step) == []
