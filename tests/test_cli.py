import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nichols import cli, identities
from nichols.braids import GroupAlgElt
from nichols.cli import main
from nichols.fileio import dump_pair
from nichols.identities import standard_suite
from nichols.scalars import integer, parse_scalar, rational, root_of_unity
from nichols import pairs, quandles
from nichols.groups import conjugacy_class, symmetric


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hilbert_v3(capsys):
    code, out, _ = run(capsys, "hilbert", "--builtin", "v3", "--q", "-1",
                       "--max-degree", "6")
    assert code == 0
    assert out.splitlines() == ["dims: 1 3 4 3 1 0", "total: 12", "finite: yes"]


def test_hilbert_is_deterministic(capsys):
    args = ("hilbert", "--builtin", "c4-a2", "--max-degree", "8")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert "total: 16" in first


def test_no_verdict_writes_one_error_line(capsys):
    code, out, err = run(capsys, "hilbert", "--builtin", "v3", "--q", "1",
                         "--max-degree", "3", "--require-finite")
    assert code == 4
    assert out.splitlines()[-1] == "finite: unknown"
    assert err == "error: no finiteness verdict up to degree 3\n"


def test_hilbert_require_finite_exit_code(capsys):
    code, out, _ = run(capsys, "hilbert", "--builtin", "qls", "--orders", "0",
                       "--max-degree", "3")
    assert code == 2  # parse failure: bad orders
    code, out, _ = run(capsys, "hilbert", "--builtin", "v3", "--q", "1",
                       "--max-degree", "3", "--require-finite")
    assert code == 4
    assert "finite: unknown" in out


def test_hilbert_from_file(tmp_path, capsys):
    w = root_of_unity(3, 1)
    bp = pairs.diagonal([[integer(-1), w], [integer(-1), w]])
    path = tmp_path / "c6.bp"
    path.write_text(dump_pair(bp))
    code, out, _ = run(capsys, "hilbert", "--file", str(path),
                       "--max-degree", "12")
    assert code == 0
    assert "total: 36" in out


def test_parse_failure_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "hilbert", "--builtin", "nosuch",
                       "--max-degree", "3")
    assert code == 2
    bad = tmp_path / "bad.bp"
    bad.write_text("kind diagonal\nconductor 1\ndim 2\nmatrix\n1:0 1:0\n")
    code, _, err = run(capsys, "hilbert", "--file", str(bad),
                       "--max-degree", "3")
    assert code == 2
    short = tmp_path / "short.bp"
    short.write_text("kind v3\nconductor 1\ndim 3\n")
    code, _, err = run(capsys, "hilbert", "--file", str(short),
                       "--max-degree", "3")
    assert code == 2
    # a matrix block far shorter than its dim says: a parse error before
    # any map of that size is made
    huge = tmp_path / "huge.bp"
    huge.write_text("kind matrix\nconductor 1\ndim 100000\nmatrix\n1\n")
    code, _, err = run(capsys, "hilbert", "--file", str(huge),
                       "--max-degree", "3")
    assert code == 2 and err.startswith("error: ")
    # truncated and empty crossed sets: one-line errors, no traceback
    for name, text in (("short.xs", "size 3\n0 2 1\n2 1 0\n"),
                       ("empty.xs", "size 0\n")):
        path = tmp_path / name
        path.write_text(text)
        code, _, err = run(capsys, "quandle", "h2", "--file", str(path),
                           "--modulus", "6")
        assert code == 2 and err.startswith("error: ")
    for name in ("dihedral0", "trivial0", "dihedral-3"):
        code, _, err = run(capsys, "quandle", "h2", "--builtin", name,
                           "--modulus", "6")
        assert code == 2 and err.startswith("error: ")
    # verify draws orders from 1..max-order, so it needs max-order >= 1
    for value in ("0", "-1"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--max-n", "1", "--max-order", value])
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert err == "error: max-order must be at least 1\n"


def test_verify_must_check_a_pair_and_an_identity(capsys):
    # --count 0 once printed PASS for every identity having checked no
    # pair, and --max-n 0 reported 0/0 identities holding
    for flag in ("--count", "--max-n"):
        for value in ("0", "-1"):
            with pytest.raises(SystemExit) as info:
                main(["verify", flag, value])
            out, err = capsys.readouterr()
            assert info.value.code == 2
            assert out == ""
            assert err == f"error: {flag[2:]} must be at least 1\n"
    with pytest.raises(ValueError):
        standard_suite(count=0)


def test_non_positive_conductor_is_a_parse_error(tmp_path, capsys):
    # the scalars are rational, so the file once ran at conductor 0 or -3
    for conductor in ("0", "-3"):
        path = tmp_path / f"c{conductor}.bp"
        path.write_text(f"kind diagonal\nconductor {conductor}\ndim 1\n"
                        "matrix\n-1\n")
        code, out, err = run(capsys, "hilbert", "--file", str(path),
                             "--max-degree", "3")
        assert code == 2
        assert out == ""
        assert err == (f"error: conductor must be positive, found "
                       f"{conductor}\n")


def test_invalid_math_exit_code(tmp_path, capsys):
    # a matrix-kind file whose map is not a braiding: swap that drops a sign
    text = "\n".join([
        "kind matrix",
        "conductor 1",
        "dim 2",
        "matrix",
        "0:0 0:0 0:0 1:0",
        "0:0 0:0 1:0 0:0",
        "0:0 -1:0 0:0 0:0",
        "1:0 0:0 0:0 0:0",
    ]) + "\n"
    bad = tmp_path / "notbraid.bp"
    bad.write_text(text)
    code, _, err = run(capsys, "hilbert", "--file", str(bad),
                       "--max-degree", "2")
    assert code == 3
    assert "braid equation" in err
    # q = 0 makes the braiding singular, and so does a zero diagonal entry
    code, _, err = run(capsys, "hilbert", "--builtin", "v3", "--q", "0",
                       "--max-degree", "2")
    assert code == 3
    zero = tmp_path / "zero.bp"
    zero.write_text("kind diagonal\nconductor 1\ndim 2\nmatrix\n"
                    "-1 0\n1 -1\n")
    code, _, err = run(capsys, "hilbert", "--file", str(zero),
                       "--max-degree", "2")
    assert code == 3
    # a table whose only failing axiom is self-distributivity
    xs = tmp_path / "notsd.xs"
    xs.write_text("size 4\n0 1 3 2\n0 1 3 2\n1 3 2 0\n1 2 0 3\n")
    code, _, err = run(capsys, "quandle", "h2", "--file", str(xs),
                       "--modulus", "6")
    assert code == 3
    assert "self-distributivity" in err


def test_relations_output(capsys):
    code, out, _ = run(capsys, "relations", "--builtin", "v3", "--q", "-1",
                       "--degree", "2")
    assert code == 0
    lines = out.splitlines()
    assert "count: 5" in lines
    rels = [l for l in lines if l.startswith("rel:")]
    assert rels[0] == "rel: 1:0*0.0"
    assert rels[1] == "rel: 1:0*0.1 1:0*1.2 1:0*2.0"


def test_relations_e4_degree_six_has_none(capsys, tmp_path):
    # E4 from a dumped cocycle pair: degree 6 is counted, not reduced over
    # the 6^6 tensor words (13.6 s and 88 MiB that way)
    s4 = symmetric(4)
    t = next(x for x in s4.elements()
             if s4.mul(x, x) == s4.identity
             and len(conjugacy_class(s4, x)) == 6)
    xset = quandles.conjugation_crossed_set(s4, [t])
    path = tmp_path / "e4.pair"
    path.write_text(dump_pair(pairs.from_cocycle(
        xset, quandles.Cochain2.constant(xset, 2, 1))))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "relations", "--file", str(path),
                       "--degree", "6")
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    assert out.splitlines() == ["degree: 6", "conductor: 1", "count: 0"]


def test_rank2_output(capsys):
    code, out, _ = run(capsys, "rank2", "--builtin", "c4-a2")
    assert code == 0
    assert "bound: 16" in out
    assert "verdict: A2_equality" in out
    code, out, _ = run(capsys, "rank2", "--builtin", "c6-b2")
    assert "bound: 36" in out
    assert "condition: -q22" in out
    code, out, err = run(capsys, "rank2", "--builtin", "v3", "--q", "-1")
    assert code == 3


def test_rank2_prints_infinite_orders(capsys, tmp_path):
    # an order without a finite value prints as "infinite", a missing t as
    # "none" and a ladder that was not computed as "-"
    code, out, _ = run(capsys, "rank2", "--builtin", "qls", "--orders", "1,3")
    assert code == 0
    assert out.splitlines()[2:8] == ["N1: infinite", "N2: 3", "t: 0", "r: 0",
                                     "M: -", "bound: infinite"]
    z3, z12 = root_of_unity(3, 1), root_of_unity(12, 1)
    path = tmp_path / "q.bp"
    path.write_text(dump_pair(pairs.diagonal([[integer(1), z3],
                                              [integer(1), integer(-1)]])))
    code, out, _ = run(capsys, "rank2", "--file", str(path))
    assert code == 0
    assert out.splitlines()[2:8] == ["N1: infinite", "N2: 2", "t: none",
                                     "r: 1", "M: -", "bound: infinite"]
    path.write_text(dump_pair(pairs.diagonal([[integer(-1), z12],
                                              [integer(1), z12]])))
    code, out, _ = run(capsys, "rank2", "--file", str(path))
    assert "M: 3 infinite 2 6 infinite infinite 6 2 infinite 3 2" in out
    assert "bound: infinite" in out
    # zeta_3 is written at the file's conductor 12, not read as zeta_12
    path.write_text(dump_pair(pairs.diagonal([[integer(-1), z12],
                                              [integer(1), z3]])))
    code, out, _ = run(capsys, "rank2", "--file", str(path))
    assert out.splitlines()[2:8] == ["N1: 2", "N2: 3", "t: none", "r: 2",
                                     "M: 12 infinite", "bound: infinite"]


def test_rank2_prints_each_entry_at_the_printed_conductor(capsys, tmp_path):
    # zeta_3 and i are different tokens at conductor 12, and every token
    # reads back at the printed conductor as the pair's entry
    one, minus = integer(1), integer(-1)
    z3, z4, z12 = (root_of_unity(m, 1) for m in (3, 4, 12))
    path = tmp_path / "q.bp"
    path.write_text(dump_pair(pairs.diagonal([[minus, z12], [one, z3]])))
    for argv, q in ((("--builtin", "qls", "--orders", "3,4"),
                     [[z3, one], [one, z4]]),
                    (("--file", str(path)), [[minus, z12], [one, z3]])):
        code, out, _ = run(capsys, "rank2", *argv)
        assert code == 0
        matrix, conductor = out.splitlines()[:2]
        assert conductor == "conductor: 12"
        rows = matrix.removeprefix("matrix: ").split(" / ")
        assert [[parse_scalar(tok, 12) for tok in row.split()]
                for row in rows] == q
    code, out, _ = run(capsys, "rank2", "--builtin", "qls", "--orders", "3,4")
    assert out.splitlines()[0] == "matrix: -1:0,1:2 1:0 / 1:0 1:3"
    # entries already at the pair's conductor print as before
    for name in ("c4-a2", "c6-b2"):
        code, out, _ = run(capsys, "rank2", "--builtin", name)
        assert out.splitlines()[0] == "matrix: -1:0 1:1 / -1:0 1:1"


def test_rank2_rejects_non_root_diagonal_entries(capsys, tmp_path):
    half = rational(1, 2)
    for q in ([[integer(-1), integer(1)], [half, integer(2)]],
              [[integer(2), integer(1)], [half, integer(-1)]]):
        path = tmp_path / "q.bp"
        path.write_text(dump_pair(pairs.diagonal(q)))
        code, out, err = run(capsys, "rank2", "--file", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_quandle_output(capsys):
    code, out, _ = run(capsys, "quandle", "h2", "--builtin", "dihedral3",
                       "--modulus", "6")
    assert code == 0
    assert out.splitlines()[-1] == "factors: 6"
    code, out, _ = run(capsys, "quandle", "h1", "--builtin", "trivial3",
                       "--modulus", "4")
    assert "pi0: 3" in out
    assert "factors: 4 4 4" in out


def test_builtin_crossed_set_names(capsys):
    # int() once read the size, so a sign or an underscore passed and
    # "trivialx" leaked its "invalid literal" message
    for name in ("dihedral+3", "dihedral-3", "dihedral_3", "dihedral 3",
                 "dihedral3 ", "trivialx", "trivial", "dihedral\u0663",
                 "zmod4"):
        code, out, err = run(capsys, "quandle", "h2", "--builtin", name,
                             "--modulus", "6")
        assert (code, out) == (2, "")
        assert err == f"error: unknown crossed set {name!r}\n"
    for name, factors in (("dihedral03", "6"), ("trivial2", "6 6 6 6"),
                          ("zmod3", "6")):
        code, out, err = run(capsys, "quandle", "h2", "--builtin", name,
                             "--modulus", "6")
        assert (code, out, err) == (0, f"factors: {factors}\n", "")


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--count", "3")
    assert code == 0
    assert "result: " in out
    assert "FAIL" not in out


@pytest.mark.parametrize("lines", [1, 0], ids=["after-one-line",
                                               "before-any-output"])
def test_a_closed_stdout_ends_quietly(lines):
    # a reader that stops early (``nichols verify | head -1``): unbuffered,
    # the next print meets the closed pipe, each PASS line coming after an
    # identity is checked; buffered, the flush of the output does.  Either
    # way nothing reaches stderr and the exit code says so
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)
    if lines:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "nichols.cli", "verify", "--max-n", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    for _ in range(lines):
        assert proc.stdout.readline().startswith(b"PASS ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
    assert "Traceback" not in err and err == ""


def test_threads_is_a_usage_error(capsys):
    for argv in (["hilbert", "--builtin", "v3", "--q", "-1",
                  "--max-degree", "2"],
                 ["relations", "--builtin", "v3", "--q", "-1",
                  "--degree", "2"],
                 ["rank2", "--builtin", "c4-a2"],
                 ["verify", "--max-n", "1"]):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--threads", "2"])
        assert info.value.code == 2


def test_hilbert_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NICHOLS_CACHE_DIR", str(tmp_path / "cache"))
    args = ("hilbert", "--builtin", "v3", "--q", "-1", "--max-degree", "6")
    _, first, _ = run(capsys, *args)
    cached = list((tmp_path / "cache").iterdir())
    assert [p.suffix for p in cached] == [".json"]
    _, second, _ = run(capsys, *args)
    assert first == second
    # an entry of another shape is a miss: recomputed and overwritten
    for corrupt in ("[]", '{"dims": 5, "total": 1}'):
        cached[0].write_text(corrupt)
        code, again, err = run(capsys, *args)
        assert code == 0 and err == ""
        assert again == first
        assert json.loads(cached[0].read_text())["dims"] == [1, 3, 4, 3, 1, 0]


def test_cache_key_only_when_the_cache_is_on(capsys, monkeypatch):
    # without NICHOLS_CACHE_DIR the package sources are never hashed
    monkeypatch.delenv("NICHOLS_CACHE_DIR", raising=False)

    def refuse(*args):
        raise AssertionError("cache key computed with the cache off")

    monkeypatch.setattr(cli, "_cache_key", refuse)
    code, out, _ = run(capsys, "hilbert", "--builtin", "v3", "--q", "-1",
                       "--max-degree", "6")
    assert code == 0
    assert "total: 12" in out


def test_cache_key_covers_every_module(tmp_path, monkeypatch):
    pkg = tmp_path / "nichols"
    shutil.copytree(os.path.dirname(cli.__file__), pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    bp = pairs.v3(integer(-1))
    key = cli._cache_key(bp, 6)
    monkeypatch.setattr(cli, "__file__", str(pkg / "cli.py"))
    assert cli._cache_key(bp, 6) == key
    with open(pkg / "quandles.py", "a") as fh:
        fh.write("# edited\n")
    assert cli._cache_key(bp, 6) != key


def test_unwritable_cache_dir_is_skipped(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("NICHOLS_CACHE_DIR", str(blocker / "cache"))
    code, out, _ = run(capsys, "hilbert", "--builtin", "v3", "--q", "-1",
                       "--max-degree", "6")
    assert code == 0
    assert "total: 12" in out


def test_v4_builtin(capsys):
    code, out, _ = run(capsys, "hilbert", "--builtin", "v4", "--q", "-1",
                       "--alpha", "1", "--max-degree", "10")
    assert code == 0
    assert "dims: 1 4 8 11 12 12 11 8 4 1 0" in out
    assert "total: 72" in out


def test_qls_builtin(capsys):
    code, out, _ = run(capsys, "hilbert", "--builtin", "qls", "--orders",
                       "2,3", "--max-degree", "6")
    assert code == 0
    assert "total: 6" in out


def test_bad_orders_is_a_usage_error(capsys):
    for orders in ("a", "3,,4", "0"):
        code, out, err = run(capsys, "hilbert", "--builtin", "qls",
                             "--orders", orders, "--max-degree", "3")
        assert code == 2
        assert out == ""
        assert err == (f"error: --orders needs positive integers, "
                       f"got {orders!r}\n")


def test_sum_and_module_builtins(capsys):
    code, out, _ = run(capsys, "hilbert", "--builtin", "v3-a1",
                       "--max-degree", "8")
    assert code == 0
    assert "total: 24" in out
    code, out, _ = run(capsys, "hilbert", "--builtin", "ms-d4",
                       "--max-degree", "10")
    assert code == 0
    assert "total: 64" in out


def test_bad_degree_is_a_usage_error(capsys):
    # one check and one message per option, whichever side of zero
    for argv, message in (
            (["relations", "--builtin", "v3", "--q", "-1", "--degree"],
             "degree must be at least 2"),
            (["quandle", "h2", "--builtin", "dihedral3", "--modulus"],
             "modulus must be at least 2")):
        for value in ("-2", "-1", "0", "1"):
            with pytest.raises(SystemExit) as info:
                main(argv + [value])
            out, err = capsys.readouterr()
            assert info.value.code == 2
            assert out == ""
            assert err == f"error: {message}\n"


def test_verify_failure_is_reported(capsys, monkeypatch):
    s1 = GroupAlgElt.from_word(2, (1,))
    e = GroupAlgElt.unit(2)
    monkeypatch.setattr(identities, "all_identities",
                        lambda max_n: [("s1^2 + s1 = s1 + e", s1 * s1 + s1,
                                        s1 + e)])
    monkeypatch.setattr(identities, "standard_suite", lambda **kw: [
        pairs.diagonal([[integer(1), integer(-1)], [integer(1), integer(1)]])])
    code, out, _ = run(capsys, "verify", "--max-n", "1")
    assert code == 1
    # x0 (x) x1 is the least failing basis word; s1 reaches word 2 before
    # s1^2 reaches word 1, and the images print in word order
    assert out.splitlines() == [
        "FAIL s1^2 + s1 = s1 + e",
        "  pair: BraidedPair(kind='diagonal', dim=2, conductor=1)",
        "  basis index: 1",
        "  lhs: {1: Cyc(-1), 2: Cyc(-1)}",
        "  rhs: {1: Cyc(1), 2: Cyc(-1)}",
        "result: 0/1 identities hold"]


def test_consecutive_calls_print_what_separate_calls_print(capsys,
                                                           monkeypatch):
    # the parser is built once per process: a flag given to one call must
    # not reach the next, and defaults must come back
    monkeypatch.delenv("NICHOLS_CACHE_DIR", raising=False)
    # every suite pair passes, so record the suite each verify asks for
    suites = []
    real_suite = identities.standard_suite

    def suite(**kw):
        suites.append(kw)
        return real_suite(**kw)
    monkeypatch.setattr(identities, "standard_suite", suite)
    pair = ("--builtin", "v3", "--q", "1", "--max-degree", "3")
    calls = [("hilbert", *pair, "--require-finite"), ("hilbert", *pair),
             ("verify", "--max-n", "2", "--seed", "5", "--count", "2"),
             ("verify", "--max-n", "2")]
    together = [run(capsys, *argv) for argv in calls]
    apart = []
    for argv in calls:
        # what a new process would parse with
        cli.build_parser.cache_clear()
        apart.append(run(capsys, *argv))
    assert together == apart
    assert [code for code, _, _ in together] == [4, 0, 0, 0]
    assert together[2][1].splitlines()[-1] == "result: 6/6 identities hold"
    assert suites[:2] == suites[2:] == [
        {"count": 2, "max_order": 12, "seed": 5},
        {"count": 10, "max_order": 12, "seed": 20240}]
