import time

import pytest

from nichols.fileio import (
    dump_cochain,
    dump_crossed_set,
    dump_pair,
    load_crossed_set,
    load_pair,
)
from nichols.groups import cyclic, cyclic_character
from nichols.quandles import Cochain2, dihedral_crossed_set
from nichols.scalars import integer, one, rational, root_of_unity
from nichols import pairs


def roundtrip(bp):
    text = dump_pair(bp)
    back = load_pair(text)
    assert back.dim == bp.dim
    assert back.cmap == bp.cmap
    return text


def test_pair_roundtrips():
    i4 = root_of_unity(4, 1)
    roundtrip(pairs.diagonal([[integer(-1), i4], [integer(-1), i4]]))
    roundtrip(pairs.v3(integer(-1)))
    roundtrip(pairs.v3(root_of_unity(3, 1)))
    roundtrip(pairs.v4(integer(-1), integer(1)))
    roundtrip(pairs.two_by_two(integer(-1), integer(-1), one(), one(),
                               one(), one()))
    xs = dihedral_crossed_set(3)
    roundtrip(pairs.from_cocycle(xs, Cochain2.constant(xs, 4, 1)))
    # a generic matrix pair goes through the full-matrix format
    text = roundtrip(pairs.transpose(pairs.v3(integer(-1))))
    assert text.splitlines()[0] == "kind matrix"
    # scalars whose conductors differ are written at the lcm, beta1 = i
    # included although the braiding sees only its square -1
    z3 = root_of_unity(3, 1)
    roundtrip(pairs.diagonal([[z3, 1], [1, i4]]))
    roundtrip(pairs.diagonal([[-1, z3], [z3 * z3, i4]]))
    text = roundtrip(pairs.two_by_two(z3, -1, 1, 1, i4, 1))
    assert "conductor 12" in text.splitlines()
    assert load_pair(text).params["beta1"] == i4


def test_matrix_files_keep_group_type_data():
    # a sum of Yetter-Drinfeld modules is written as a full matrix; reading
    # it back recovers its group-likes, so direct_sum accepts it again
    c4 = cyclic(4)
    chi = cyclic_character(c4, 1, root_of_unity(4, 1))
    bp = pairs.yd_module(c4, [(2, chi), (1, chi)])
    text = roundtrip(bp)
    assert text.splitlines()[0] == "kind matrix"
    back = load_pair(text)
    assert back.grouplikes == bp.grouplikes
    line = pairs.diagonal([[-1]])
    assert pairs.direct_sum(back, line, [1, 1], [1]).cmap \
        == pairs.direct_sum(bp, line, [1, 1], [1]).cmap
    # a braiding that is not of group type still loads, without group-likes
    assert load_pair(dump_pair(pairs.change_basis(
        pairs.v3(-1), [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))).grouplikes is None


@pytest.mark.parametrize("build,wrong", [
    (lambda: pairs.v3(integer(-1)), 7),
    (lambda: pairs.v4(integer(-1), integer(1)), 2),
    (lambda: pairs.two_by_two(-1, -1, 1, 1, 1, 1), 5),
    (lambda: pairs.from_cocycle(dihedral_crossed_set(3), Cochain2.constant(
        dihedral_crossed_set(3), 2, 1)), 5),
], ids=["v3", "v4", "two_by_two", "cocycle"])
def test_a_dim_other_than_the_pairs_is_a_value_error(build, wrong):
    # the named kinds and cocycle files once ignored their dim line
    bp = build()
    text = dump_pair(bp)
    assert f"dim {bp.dim}\n" in text
    with pytest.raises(ValueError, match=f"says dim {wrong}, but its "
                                         f"{bp.kind} pair has dimension "
                                         f"{bp.dim}"):
        load_pair(text.replace(f"dim {bp.dim}\n", f"dim {wrong}\n"))


def test_pair_file_is_commented_text():
    bp = pairs.v3(integer(-1))
    text = "# braided pair\n" + dump_pair(bp) + "\n# trailing comment\n"
    assert load_pair(text).cmap == bp.cmap


def test_bad_pair_files():
    with pytest.raises(ValueError):
        load_pair("kind diagonal\nconductor 1\ndim 2\nmatrix\n1:0 1:0\n")
    with pytest.raises(ValueError):
        load_pair("kind nosuch\nconductor 1\ndim 1\n")
    # scalar with a denominator survives the trip
    q = rational(1, 1)
    bp = pairs.diagonal([[integer(-1)]])
    assert load_pair(dump_pair(bp)).cmap == bp.cmap


def test_short_matrix_file_raises_before_sizing_the_map():
    # the rows are counted before the d^2 columns of the map are made, so
    # a dim of 100000 over one row fails at once instead of first making
    # 10^10 lists
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="file ends early"):
        load_pair("kind matrix\nconductor 1\ndim 100000\nmatrix\n1\n")
    assert time.perf_counter() - t0 < 1.0


def test_crossed_set_and_cochain_roundtrip():
    xs = dihedral_crossed_set(4)
    back = load_crossed_set(dump_crossed_set(xs))
    assert back.table == xs.table
    # a cochain is read back as the block of a cocycle pair file: a
    # coboundary plus a constant, so a cocycle with two values
    f = Cochain2(6, [[1, 4, 1, 4], [4, 1, 4, 1], [1, 4, 1, 4], [4, 1, 4, 1]])
    text = dump_pair(pairs.from_cocycle(xs, f))
    assert text.endswith(dump_cochain(f))
    back = load_pair(text).params["cocycle"]
    assert back.modulus == 6 and back.exponents == f.exponents
    with pytest.raises(ValueError):
        load_crossed_set("size 2\n0 0\n1 1\n")
    with pytest.raises(ValueError):  # two of three rows
        load_crossed_set("size 3\n0 2 1\n2 1 0\n")


def test_out_of_range_numbers_are_value_errors():
    # a zero cochain modulus once escaped as ZeroDivisionError
    text = dump_pair(pairs.from_cocycle(
        dihedral_crossed_set(3),
        Cochain2.constant(dihedral_crossed_set(3), 4, 1)))
    with pytest.raises(ValueError):
        load_pair(text.replace("modulus 4", "modulus 0"))
