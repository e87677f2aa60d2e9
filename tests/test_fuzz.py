"""Property-based fuzzing of the file loaders and the command line.

Inputs are valid files and argument lists with random damage, kept small:
conductors and orders up to 12, degrees up to 4, ``verify`` up to
``--max-n 2 --count 3``.  The loaders may raise only ``ValueError``
(``InvalidInput`` included); ``cli.main`` must end with an exit code in
{0, 2, 3, 4} and, when nonzero, one ``error:`` line on stderr.
"""

import contextlib
import io
import os
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nichols import pairs  # noqa: E402
from nichols.cli import main  # noqa: E402
from nichols.fileio import (  # noqa: E402
    dump_crossed_set,
    dump_pair,
    load_crossed_set,
    load_pair,
)
from nichols.quandles import (  # noqa: E402
    Cochain2,
    dihedral_crossed_set,
    trivial_crossed_set,
    zmod3_crossed_set,
)
from nichols.scalars import integer, root_of_unity  # noqa: E402

FUZZ = settings(derandomize=True, deadline=None, max_examples=300,
                database=None)

_MINUS = integer(-1)
_I4 = root_of_unity(4, 1)
_D3 = dihedral_crossed_set(3)

PAIR_TEXTS = [dump_pair(bp) for bp in (
    pairs.v3(_MINUS),
    pairs.v3(root_of_unity(3, 1)),
    pairs.v4(_MINUS, integer(1)),
    pairs.diagonal([[_MINUS, _I4], [_MINUS, _I4]]),
    pairs.two_by_two(_MINUS, _MINUS, integer(1), integer(1), integer(1),
                     integer(1)),
    pairs.from_cocycle(_D3, Cochain2.constant(_D3, 4, 1)),
    pairs.transpose(pairs.v3(_MINUS)),
)]
CROSSED_SET_TEXTS = [dump_crossed_set(x) for x in (
    _D3, trivial_crossed_set(2), zmod3_crossed_set())]

# tokens that replace a word of a valid file: numbers out of range, bad
# scalar syntax, keywords in the wrong place
JUNK = ["0", "-1", "1", "2", "3", "12", "13", "x", "", "1/0:0", "1:-1",
        "1:99", "-1/2:1", "1:0,1:1", "2/4:0", ":", "1/:0", "size", "matrix",
        "kind", "dim", "conductor", "modulus", "order", "v3", "diagonal",
        "cocycle", "#"]


@st.composite
def damaged(draw, texts):
    """One of ``texts`` with a few lines deleted, duplicated, swapped or
    truncated, or with one word replaced by junk or a small integer."""
    lines = draw(st.sampled_from(texts)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "word",
                                   "number", "truncate"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "truncate":
            lines = lines[:i]
        else:
            words = lines[i].split() or [""]
            k = draw(st.integers(0, len(words) - 1))
            words[k] = (draw(st.sampled_from(JUNK)) if op == "word"
                        else str(draw(st.integers(-1, 13))))
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


LOADERS = [(load_pair, PAIR_TEXTS), (load_crossed_set, CROSSED_SET_TEXTS)]


@FUZZ
@given(st.data())
def test_loaders_raise_only_value_error(data):
    loader, texts = data.draw(st.sampled_from(LOADERS))
    text = data.draw(damaged(texts))
    try:
        loader(text)
    except ValueError:
        pass


def _scalar_flag():
    m = st.integers(-1, 12).map(str)
    e = st.integers(-3, 13).map(str)
    root = st.tuples(st.sampled_from(["", "-"]), m, e).map(
        lambda t: f"{t[0]}z{t[1]}^{t[2]}")
    return st.one_of(st.integers(-3, 3).map(str), root,
                     m.map(lambda v: f"z{v}"),
                     st.sampled_from(["z", "zz", "1/2", "", "z3^", "-"]))


_ORDERS = st.one_of(
    st.lists(st.integers(-1, 12), min_size=1, max_size=3).map(
        lambda ns: ",".join(map(str, ns))),
    st.sampled_from(["", ",", "a", "3,,4"]))

# mostly well-formed pair sources, then any mix of the pair flags
_PAIR_FLAGS = st.one_of(
    _scalar_flag().map(lambda q: {"--builtin": "v3", "--q": q}),
    st.tuples(_scalar_flag(), st.one_of(st.sampled_from(["1", "-1"]),
                                        _scalar_flag())).map(
        lambda t: {"--builtin": "v4", "--q": t[0], "--alpha": t[1]}),
    _ORDERS.map(lambda o: {"--builtin": "qls", "--orders": o}),
    st.sampled_from(["c4-a2", "c6-b2", "ms-d4", "v3-a1"]).map(
        lambda b: {"--builtin": b}),
    damaged(PAIR_TEXTS).map(lambda t: {"--file": t}),
    st.fixed_dictionaries({}, optional={
        "--builtin": st.sampled_from(["v3", "v4", "qls", "c4-a2", "nosuch"]),
        "--q": _scalar_flag(),
        "--alpha": _scalar_flag(),
        "--orders": _ORDERS,
        "--file": damaged(PAIR_TEXTS),
    }),
)

_CROSSED_SET = st.one_of(
    st.tuples(st.sampled_from(["trivial", "dihedral"]),
              st.integers(-1, 12)).map(lambda t: f"{t[0]}{t[1]}"),
    st.sampled_from(["zmod3", "nosuch", "dihedralx", "trivial"]))


def _flags(mapping):
    out = []
    for name, value in mapping.items():
        out += [name, value]
    return out


@st.composite
def argv(draw):
    cmd = draw(st.sampled_from(["hilbert", "relations", "rank2", "quandle",
                                "verify"]))
    files = {}
    if cmd in ("hilbert", "relations", "rank2"):
        flags = draw(_PAIR_FLAGS)
        if "--file" in flags:
            files["pair"] = flags["--file"]
            flags["--file"] = "pair"
        out = [cmd] + _flags(flags)
        if cmd == "hilbert":
            out += ["--max-degree", str(draw(st.integers(-1, 4)))]
            if draw(st.booleans()):
                out.append("--require-finite")
        elif cmd == "relations":
            out += ["--degree", str(draw(st.integers(-1, 4)))]
    elif cmd == "quandle":
        out = [cmd, draw(st.sampled_from(["h1", "h2", "h3"])),
               "--modulus", str(draw(st.integers(-1, 12)))]
        if draw(st.booleans()):
            files["xset"] = draw(damaged(CROSSED_SET_TEXTS))
            out += ["--file", "xset"]
        else:
            out += ["--builtin", draw(_CROSSED_SET)]
    else:
        out = [cmd, "--max-n", str(draw(st.integers(-1, 2))),
               "--count", str(draw(st.integers(-1, 3))),
               "--max-order", str(draw(st.integers(-1, 12))),
               "--seed", str(draw(st.integers(-5, 5)))]
    return out, files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(case=argv())
def test_cli_exit_codes(workdir, case):
    args, files = case
    args = [str(workdir / a) if a in files else a for a in args]
    for name, text in files.items():
        (workdir / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("NICHOLS_CACHE_DIR", None)
        try:
            code = main(args)
        except SystemExit as exc:  # argparse and option checks
            code = exc.code
    assert code in (0, 2, 3, 4), (args, code, err.getvalue())
    if code:
        lines = [ln for ln in err.getvalue().splitlines() if "error:" in ln]
        assert len(lines) == 1, (args, err.getvalue())
