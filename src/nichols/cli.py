"""Command-line surface: hilbert, relations, rank2, quandle, verify.

Exit codes: 0 success, 2 parse or usage failure, 3 mathematically invalid
input (braid equation, axioms), 4 cutoff reached without a finiteness
verdict under --require-finite.  All output is line oriented and stable
across runs; scalars print in the num[/den]:exp term syntax.
"""

import argparse
import contextlib
import hashlib
import json
import os
import re
import sys
from functools import cache

from . import (__version__, algebra, braids, fileio, identities, pairs,
               quandles, rank2)
from .linalg import InvalidInput, decode_word
from .scalars import format_scalar, integer, root_of_unity

EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_NO_VERDICT = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def parse_scalar_arg(text):
    """Scalar syntax for flags: an integer, or zM for a primitive M-th root,
    or zM^E, optionally negated."""
    text = text.strip()
    try:
        return integer(int(text))
    except ValueError:
        pass
    sign = 1
    body = text
    if body.startswith("-"):
        sign = -1
        body = body[1:]
    if not body.startswith("z"):
        raise CliError(f"cannot parse scalar {text!r}; use INT or zM[^E]",
                       EXIT_PARSE)
    base, _, exp = body[1:].partition("^")
    try:
        m = int(base)
        e = int(exp) if exp else 1
        value = root_of_unity(m, e)
    except ValueError as exc:
        raise CliError(f"cannot parse scalar {text!r}: {exc}", EXIT_PARSE)
    return -value if sign < 0 else value


def load_input_pair(args):
    if getattr(args, "builtin", None) and getattr(args, "file", None):
        raise CliError("give either --builtin or --file, not both", EXIT_PARSE)
    try:
        if getattr(args, "file", None):
            with open(args.file) as fh:
                return fileio.load_pair(fh.read())
        name = getattr(args, "builtin", None)
        if not name:
            raise CliError("need --builtin or --file", EXIT_PARSE)
        return _builtin_pair(name, args)
    except (OSError, ValueError) as exc:
        raise _input_error(exc)


def _input_error(exc):
    """The CLI error for a failed load: exit 3 when the input parsed but is
    mathematically invalid, exit 2 when it could not be read or parsed."""
    code = EXIT_INVALID if isinstance(exc, InvalidInput) else EXIT_PARSE
    return CliError(str(exc), code)


def _builtin_pair(name, args):
    minus = integer(-1)
    plus = integer(1)
    if name == "v3":
        return pairs.v3(_need_scalar(args, "q"))
    if name == "v4":
        return pairs.v4(_need_scalar(args, "q"), _need_scalar(args, "alpha"))
    if name == "c4-a2":
        i = root_of_unity(4, 1)
        return pairs.diagonal([[minus, i], [minus, i]])
    if name == "c6-b2":
        w = root_of_unity(3, 1)
        return pairs.diagonal([[minus, w], [minus, w]])
    if name == "ms-d4":
        return pairs.two_by_two(minus, minus, plus, plus, plus, plus)
    if name == "qls":
        orders = getattr(args, "orders", None)
        if not orders:
            raise CliError("builtin qls needs --orders N1,N2,...", EXIT_PARSE)
        ns = _parse_orders(orders)
        d = len(ns)
        return pairs.diagonal(
            [[root_of_unity(ns[i], 1) if i == j else plus for j in range(d)]
             for i in range(d)])
    if name == "v3-a1":
        v = pairs.v3(minus)
        line = pairs.diagonal([[minus]])
        return pairs.direct_sum(v, line, [plus, plus, plus], [plus])
    raise CliError(f"unknown builtin {name!r}", EXIT_PARSE)


def _parse_orders(text):
    """The comma list of --orders as positive ints, else a usage error."""
    try:
        ns = [int(v) for v in text.split(",")]
    except ValueError:
        ns = None
    if ns is None or min(ns) < 1:
        raise CliError(f"--orders needs positive integers, got {text!r}",
                       EXIT_PARSE)
    return ns


def _need_scalar(args, field):
    value = getattr(args, field, None)
    if value is None:
        raise CliError(f"builtin needs --{field}", EXIT_PARSE)
    return parse_scalar_arg(value)


# ---------------------------------------------------------------------------
# subcommands

def cmd_hilbert(args):
    bp = load_input_pair(args)
    path = _cache_path(bp, args.max_degree)
    cached = _cache_lookup(path)
    if cached is not None:
        dims, total = cached
    else:
        res = algebra.hilbert(bp, args.max_degree)
        dims, total = res.dims, res.total
        _cache_store(path, dims, total)
    print("dims:", " ".join(str(v) for v in dims))
    print("total:", total if total is not None else "unknown")
    print("finite:", "yes" if total is not None else "unknown")
    if args.require_finite and total is None:
        raise CliError(f"no finiteness verdict up to degree {args.max_degree}",
                       EXIT_NO_VERDICT)
    return 0


def cmd_relations(args):
    bp = load_input_pair(args)
    rels = algebra.relations(bp, args.degree)
    print("degree:", args.degree)
    print("conductor:", bp.conductor)
    print("count:", len(rels))
    d = bp.dim
    for row in rels:
        terms = []
        for w in sorted(row):
            word = ".".join(str(x) for x in decode_word(w, d, args.degree))
            terms.append(f"{format_scalar(row[w])}*{word}")
        print("rel:", " ".join(terms))
    return 0


def cmd_rank2(args):
    bp = load_input_pair(args)
    q = pairs.is_diagonal(bp)
    if q is None or bp.dim != 2:
        raise CliError("rank2 analysis needs a 2x2 diagonal pair", EXIT_INVALID)
    try:
        res = rank2.analyze(q)
        a = rank2.cartan(res.q)
    except InvalidInput as exc:
        raise CliError(str(exc), EXIT_INVALID)
    except ValueError:
        a = None  # an adjoint of infinite nilpotency order
    # every entry at the printed conductor, as a pair file writes it
    print("matrix:", " / ".join(
        " ".join(format_scalar(v.embed(bp.conductor)) for v in row)
        for row in res.q))
    print("conductor:", bp.conductor)
    print("N1:", _fmt_order(res.N1))
    print("N2:", _fmt_order(res.N2))
    print("t:", res.t if res.t is not None else "none")
    print("r:", _fmt_order(res.r))
    print("M:", " ".join(_fmt_order(m) for m in res.M) if res.M else "-")
    print("bound:", _fmt_order(res.bound))
    print("hypothesis_order2:", {True: "yes", False: "no", None: "-"}[
        res.hypothesis_order2])
    print("verdict:", res.verdict)
    print("condition:", res.condition if res.condition else "-")
    if a is None:
        print("cartan: undefined")
    else:
        print("cartan:", " / ".join(" ".join(str(v) for v in row) for row in a))
        print("finite_cartan:", "yes" if rank2.finite_cartan_rank2(a) else "no")
    if res.warning:
        print("warning:", res.warning)
    return 0


def _fmt_order(v):
    return "infinite" if v is None else str(v)


def cmd_quandle(args):
    xset = _load_crossed_set(args)
    if args.which == "h1":
        group, components = quandles.h1(xset, args.modulus)
        print("pi0:", components)
    elif args.which == "h2":
        group = quandles.h2(xset, args.modulus)
    else:
        raise CliError("choose h1 or h2", EXIT_PARSE)
    print("factors:", " ".join(str(f) for f in group.factors)
          if group.factors else "none")
    return 0


def _load_crossed_set(args):
    try:
        if args.file:
            with open(args.file) as fh:
                return fileio.load_crossed_set(fh.read())
        name = args.builtin
        if not name:
            raise CliError("need --builtin or --file", EXIT_PARSE)
        if name == "zmod3":
            return quandles.zmod3_crossed_set()
        # the size in ASCII decimal digits only: int() would also take a
        # sign, underscores and surrounding blanks
        family = re.fullmatch(r"(trivial|dihedral)([0-9]+)", name)
        if family:
            make = (quandles.trivial_crossed_set if family[1] == "trivial"
                    else quandles.dihedral_crossed_set)
            return make(int(family[2]))
        raise CliError(f"unknown crossed set {name!r}", EXIT_PARSE)
    except (OSError, ValueError) as exc:
        raise _input_error(exc)


def cmd_verify(args):
    suite = identities.standard_suite(count=args.count,
                                      max_order=args.max_order,
                                      seed=args.seed)
    checks = identities.all_identities(args.max_n)
    failures = 0
    for name, lhs, rhs in checks:
        report = braids.verify_identity(lhs, rhs, suite)
        if report.ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}")
            print(f"  pair: {report.pair!r}")
            print(f"  basis index: {report.basis_word}")
            print(f"  lhs: {report.lhs_value}")
            print(f"  rhs: {report.rhs_value}")
    print(f"result: {len(checks) - failures}/{len(checks)} identities hold")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# optional on-disk memo for hilbert results

def _cache_key(bp, max_degree):
    """Hash of the braiding, the cutoff and the source of every module of
    the package, so an entry never outlives the code that computed it."""
    pkg = os.path.dirname(os.path.abspath(__file__))
    src = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.append((name, hashlib.sha256(fh.read()).hexdigest()))
    body = repr((sorted((p, [(kl, c.key()) for kl, c in col]
                         ) for p, col in enumerate(bp.cmap)),
                 bp.dim, max_degree, __version__, src))
    return hashlib.sha256(body.encode()).hexdigest()


def _cache_path(bp, max_degree):
    """The entry file for the pair and cutoff, or None when
    NICHOLS_CACHE_DIR is unset or cannot be created; the CLI then runs
    without the cache, and without hashing the package sources."""
    root = os.environ.get("NICHOLS_CACHE_DIR")
    if not root:
        return None
    try:
        os.makedirs(root, exist_ok=True)
    except OSError:
        return None
    return os.path.join(root, _cache_key(bp, max_degree) + ".json")


def _cache_lookup(path):
    """The cached (dims, total), or None on a miss.  Only an entry
    of the shape ``_cache_store`` writes is a hit; anything else is
    recomputed and overwritten."""
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    dims, total = data.get("dims"), data.get("total")
    if (isinstance(dims, list) and all(type(v) is int for v in dims)
            and (total is None or type(total) is int)):
        return dims, total
    return None


def _cache_store(path, dims, total):
    """Write the entry whole or not at all: a reader sees the old file or
    the new one, and an unwritable directory only costs the cache."""
    if not path:
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump({"dims": dims, "total": total}, fh)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


# ---------------------------------------------------------------------------

# built on the first call rather than at import, which stays cheap, and
# reused by later calls in the same process: each parse starts from a fresh
# namespace
@cache
def build_parser():
    top = argparse.ArgumentParser(
        prog="nichols",
        description="Exact Nichols algebra computations for braided pairs "
                    "of finite group type")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_pair_flags(p):
        p.add_argument("--builtin", help="v3 | v4 | c4-a2 | c6-b2 | ms-d4 | "
                                         "qls | v3-a1")
        p.add_argument("--file", help="braided pair file")
        p.add_argument("--q", help="scalar parameter (INT or zM[^E])")
        p.add_argument("--alpha", help="scalar parameter for v4")
        p.add_argument("--orders", help="comma list of diagonal orders for qls")

    p = sub.add_parser("hilbert", help="graded dimensions and finiteness")
    add_pair_flags(p)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--require-finite", action="store_true")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("relations", help="new relations in one degree")
    add_pair_flags(p)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("rank2", help="rank-2 diagonal analysis")
    add_pair_flags(p)
    p.set_defaults(func=cmd_rank2)

    p = sub.add_parser("quandle", help="crossed-set cohomology")
    p.add_argument("which", choices=["h1", "h2"])
    p.add_argument("--builtin", help="trivialN | dihedralN | zmod3")
    p.add_argument("--file", help="crossed set file")
    p.add_argument("--modulus", type=int, required=True)
    p.set_defaults(func=cmd_quandle)

    p = sub.add_parser("verify", help="operator identity suite")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--max-order", type=int, default=12)
    p.add_argument("--seed", type=int, default=20240)
    p.set_defaults(func=cmd_verify)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    _validate_options(args)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def _validate_options(args):
    # one least value per option: a verify run that checks no pair or no
    # identity proves nothing, relations start in degree 2, and cohomology
    # with Z/1 coefficients is trivial
    for name, least in (("max_degree", 0), ("degree", 2), ("modulus", 2),
                        ("count", 1), ("max_n", 1), ("max_order", 1)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            print(f"error: {name.replace('_', '-')} must be at least {least}",
                  file=sys.stderr)
            raise SystemExit(EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
