"""Text file formats: braided pairs and crossed sets, the two kinds of file
the command line reads.  A cochain is written only as the block that
follows the crossed set in a cocycle pair file, which ``load_pair``
parses.

All files are line oriented; blank lines and '#' comments are ignored.
Scalars use the whitespace-free token syntax of ``scalars.format_scalar``
(comma-joined num[/den]:exp terms at the file's conductor, bare integers
allowed).
"""

from math import lcm

from .scalars import format_scalar, parse_scalar
from . import pairs as _pairs
from . import quandles as _quandles


def _lines(text):
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _rows(lines, start, count):
    """Lines start .. start + count - 1; a file that ends before them is a
    parse error, not an IndexError."""
    if count < 0:
        raise ValueError(f"expected a nonnegative count, found {count}")
    rows = lines[start:start + count]
    if len(rows) < count:
        raise ValueError(f"file ends early: expected {count} lines from "
                         f"content line {start + 1}, found {len(rows)}")
    return rows


def _expect(lines, i, key):
    """The values after ``key`` on content line i."""
    line = _rows(lines, i, 1)[0]
    parts = line.split()
    if parts[0] != key or len(parts) < 2:
        raise ValueError(f"expected {key!r} and a value, found {line!r}")
    return parts[1:]


def _int_table(lines, start, size):
    """A size x size integer table on the lines from ``start``."""
    table = [[int(v) for v in line.split()]
             for line in _rows(lines, start, size)]
    if any(len(row) != size for row in table):
        raise ValueError(f"table rows need {size} entries each")
    return table


# ---------------------------------------------------------------------------
# braided pairs

# the scalar parameters of the kinds named after their constructors
_PARAMS = {"v3": ("q",), "v4": ("q", "alpha"),
           "two_by_two": ("q1", "q2", "eta1", "eta2", "beta1", "beta2")}


def dump_pair(bp):
    """The text of a pair file.  Every scalar is written at the file's
    conductor, the lcm of the braiding's and of each scalar's own (a
    parameter such as beta_1 of ``two_by_two`` enters the braiding only
    through its square), so the file reads back as the same pair."""
    kind, named, matrix = bp.kind, _PARAMS.get(bp.kind, ()), None
    if kind == "diagonal":
        matrix = _pairs.is_diagonal(bp)
    elif kind not in _PARAMS and kind != "cocycle":
        kind, matrix = "matrix", bp.matrix()
    values = [bp.params[name] for name in named]
    values += [v for row in matrix or () for v in row]
    conductor = lcm(bp.conductor, *(v.conductor for v in values))

    def token(v):
        return format_scalar(v.embed(conductor))

    lines = [f"kind {kind}", f"conductor {conductor}", f"dim {bp.dim}"]
    lines += [f"{name} {token(bp.params[name])}" for name in named]
    if matrix is not None:
        lines.append("matrix")
        lines += [" ".join(token(v) for v in row) for row in matrix]
    text = "\n".join(lines) + "\n"
    if kind == "cocycle":
        text += (dump_crossed_set(bp.params["xset"])
                 + dump_cochain(bp.params["cocycle"]))
    return text


def load_pair(text):
    """The pair of a pair file; ValueError when the file does not parse or
    its ``dim`` is not the dimension of the pair it describes."""
    lines = _lines(text)
    kind = _expect(lines, 0, "kind")[0]
    conductor = int(_expect(lines, 1, "conductor")[0])
    if conductor < 1:
        raise ValueError(f"conductor must be positive, found {conductor}")
    dim = int(_expect(lines, 2, "dim")[0])
    bp = _load_body(kind, conductor, dim, lines[3:])
    if bp.dim != dim:
        raise ValueError(f"the file says dim {dim}, but its {kind} pair has "
                         f"dimension {bp.dim}")
    return bp


def _load_body(kind, conductor, dim, body):
    """The pair of the lines after the header of a pair file."""
    if kind == "diagonal":
        if _rows(body, 0, 1)[0] != "matrix":
            raise ValueError("diagonal pair needs a matrix block")
        rows = [[parse_scalar(tok, conductor) for tok in line.split()]
                for line in _rows(body, 1, dim)]
        return _pairs.diagonal(rows)
    if kind in _PARAMS:
        return getattr(_pairs, kind)(*(
            parse_scalar(_expect(body, i, name)[0], conductor)
            for i, name in enumerate(_PARAMS[kind])))
    if kind == "cocycle":
        size = int(_expect(body, 0, "size")[0])
        table = _int_table(body, 1, size)
        modulus = int(_expect(body, 1 + size, "modulus")[0])
        expo = _int_table(body, 2 + size, size)
        xset = _quandles.CrossedSet(table)
        return _pairs.from_cocycle(xset, _quandles.Cochain2(modulus, expo))
    if kind == "matrix":
        if _rows(body, 0, 1)[0] != "matrix":
            raise ValueError("matrix pair needs a matrix block")
        n = dim * dim
        # the rows first: a short file must not size the map by its dim
        rows = _rows(body, 1, n)
        cmap = [[] for _ in range(n)]
        for r, line in enumerate(rows):
            toks = line.split()
            if len(toks) != n:
                raise ValueError("matrix block has the wrong width")
            for c, tok in enumerate(toks):
                v = parse_scalar(tok, conductor)
                if v:
                    cmap[c].append((r, v))
        return _pairs.BraidedPair(dim, cmap,
                                  _pairs._detect_grouplikes(dim, cmap))
    raise ValueError(f"unknown pair kind {kind!r}")


# ---------------------------------------------------------------------------
# crossed sets and cochains

def _dump_table(header, table):
    """A header line, then one line per row of an integer table: what
    ``_expect`` and ``_int_table`` read back."""
    lines = [header] + [" ".join(str(v) for v in row) for row in table]
    return "\n".join(lines) + "\n"


def dump_crossed_set(xset):
    return _dump_table(f"size {xset.size}", xset.table)


def load_crossed_set(text):
    lines = _lines(text)
    size = int(_expect(lines, 0, "size")[0])
    return _quandles.CrossedSet(_int_table(lines, 1, size))


def dump_cochain(cochain):
    return _dump_table(f"modulus {cochain.modulus}", cochain.exponents)

