"""Tracing for the per-layer run, done entirely from the benchmark's side.

``Tracer.install`` replaces public names of ``nichols`` modules by wrappers
that record a span (name, start, end, parent span, item id) around each
call, plus counts taken at the same boundary.  It also patches the names
``algebra`` imported from ``braids``/``linalg`` (and ``quandles`` from
``linalg``), and wraps the ``Cyc`` arithmetic dunders with counters and a
timer but no span, since they run millions of times.  Spans stay in
memory; ``write`` stores them when the run ends, and ``metrics`` derives
every per-layer number from them, self times included.
"""

from time import perf_counter

from nichols import (algebra, braids, cli, fileio, identities, linalg, pairs,
                     quandles, rank2, scalars)

# deterministic per-layer counts; two traced runs of one seed must agree
COUNTS = (
    "scalars.mul_calls", "scalars.add_calls", "scalars.inverse_calls",
    "braids.t1_apply_calls", "braids.sigma_pass_calls",
    "braids.sigma_pass_terms", "linalg.insert_calls", "linalg.reduce_calls",
    "linalg.row_nnz_max", "linalg.row_nnz_total", "linalg.snf_calls",
    "algebra.candidates_total", "algebra.rank_total", "quandles.delta_cells",
)

TIMES = (
    "scalars.op_s", "braids.t1_apply_s", "braids.apply_elt_s",
    "braids.verify_identity_s", "linalg.reduce_s", "linalg.rref_s",
    "linalg.nullspace_s", "linalg.snf_s", "algebra.basis_s",
    "algebra.self_s", "algebra.kernel_basis_s", "algebra.relations_s",
    "algebra.new_leading_words_s", "pairs.build_s", "pairs.transpose_s",
    "quandles.delta_matrix_s", "quandles.cohomology_s", "identities.build_s",
    "rank2.analyze_s", "fileio.load_s", "cli.self_s",
)

CLI_COMMANDS = ("quandle", "rank2", "verify")

# span name -> the metric holding its total time (outermost calls only)
SPAN_TIME = {
    "braids.t1_apply": "braids.t1_apply_s",
    "braids.apply_elt": "braids.apply_elt_s",
    "braids.verify_identity": "braids.verify_identity_s",
    "linalg.reduce": "linalg.reduce_s",
    "linalg.rref": "linalg.rref_s",
    "linalg.nullspace": "linalg.nullspace_s",
    "linalg.snf": "linalg.snf_s",
    "algebra.basis": "algebra.basis_s",
    "algebra.kernel_basis": "algebra.kernel_basis_s",
    "algebra.relations": "algebra.relations_s",
    "algebra.new_leading_words": "algebra.new_leading_words_s",
    "pairs.build": "pairs.build_s",
    "pairs.transpose": "pairs.transpose_s",
    "quandles.delta_matrix": "quandles.delta_matrix_s",
    "quandles.cohomology": "quandles.cohomology_s",
    "identities.build": "identities.build_s",
    "rank2.analyze": "rank2.analyze_s",
    "fileio.load": "fileio.load_s",
}


class Tracer:
    """The spans and counts of one traced child process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, item, outermost]
        self.stack = []
        self.active = {}     # span name -> open calls, to spot recursion
        self.item = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self.mixed = 0
        self.useful_inserts = 0
        self.op_s = 0.0

    # -- spans --------------------------------------------------------------

    def open(self, name):
        sid = len(self.spans)
        depth = self.active.get(name, 0)
        self.active[name] = depth + 1
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.item,
                           depth == 0])
        self.stack.append(sid)
        return sid

    def close(self, sid):
        span = self.spans[sid]
        span[2] = perf_counter()
        self.stack.pop()
        self.active[span[0]] -= 1

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` takes counts."""
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(args, result)
            return result
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        counts = self.counts
        wrap = self.wrap

        def bump(key):
            counts[key] += 1

        def on_sigma(args, result):
            counts["braids.sigma_pass_calls"] += 1
            counts["braids.sigma_pass_terms"] += len(args[3])

        def on_insert(args, result):
            counts["linalg.insert_calls"] += 1
            if result is not None:
                self.useful_inserts += 1
            if self.nearest_algebra_span() == "algebra.basis":
                counts["algebra.candidates_total"] += 1
                if result is not None:
                    counts["algebra.rank_total"] += 1

        def on_delta(args, result):
            counts["quandles.delta_cells"] += len(result) * len(result[0])

        t1 = wrap("braids.t1_apply", braids.t1_apply,
                  lambda a, r: bump("braids.t1_apply_calls"))
        sigma = wrap("braids.sigma_pass", braids.sigma_pass, on_sigma)
        apply_elt = wrap("braids.apply_elt", braids.apply_elt)
        for mod in (braids, algebra):
            mod.t1_apply, mod.sigma_pass, mod.apply_elt = t1, sigma, apply_elt
        braids.verify_identity = wrap("braids.verify_identity",
                                      braids.verify_identity)

        ech = linalg.Echelon
        ech.insert = wrap("linalg.insert", ech.insert, on_insert)
        ech.reduce = wrap("linalg.reduce", ech.reduce,
                          lambda a, r: bump("linalg.reduce_calls"))
        ech.rref = wrap("linalg.rref", ech.rref)
        ech.nullspace = wrap("linalg.nullspace", ech.nullspace)
        snf = wrap("linalg.snf", linalg.smith_normal_form,
                   lambda a, r: bump("linalg.snf_calls"))
        linalg.smith_normal_form = quandles.smith_normal_form = snf

        comp = algebra.GradedComputation
        comp.basis = wrap("algebra.basis", comp.basis)
        for name in ("kernel_basis", "relations", "new_leading_words"):
            setattr(algebra, name,
                    wrap(f"algebra.{name}", getattr(algebra, name)))

        for name in ("diagonal", "v3", "v4", "two_by_two", "direct_sum",
                     "from_cocycle"):
            setattr(pairs, name, wrap("pairs.build", getattr(pairs, name)))
        pairs.transpose = wrap("pairs.transpose", pairs.transpose)
        quandles.delta_matrix = wrap("quandles.delta_matrix",
                                     quandles.delta_matrix, on_delta)
        quandles.cohomology = wrap("quandles.cohomology", quandles.cohomology)
        for name in ("all_identities", "standard_suite"):
            setattr(identities, name,
                    wrap("identities.build", getattr(identities, name)))
        rank2.analyze = wrap("rank2.analyze", rank2.analyze)
        for name in ("load_pair", "load_crossed_set"):
            setattr(fileio, name, wrap("fileio.load", getattr(fileio, name)))
        main = cli.main

        def traced_main(argv):
            sid = self.open(f"cli.main.{argv[0]}")
            try:
                return main(argv)
            finally:
                self.close(sid)
        cli.main = traced_main
        self.install_scalars()

    def install_scalars(self):
        cyc = scalars.Cyc
        counts = self.counts
        tracer = self

        def binary(fn, key):
            def op(a, b):
                counts[key] += 1
                if isinstance(b, cyc) and a.m != b.m:
                    tracer.mixed += 1
                t0 = perf_counter()
                result = fn(a, b)
                tracer.op_s += perf_counter() - t0
                return result
            return op

        def inverse(fn):
            def op(a):
                counts["scalars.inverse_calls"] += 1
                t0 = perf_counter()
                result = fn(a)
                tracer.op_s += perf_counter() - t0
                return result
            return op

        cyc.__add__ = cyc.__radd__ = binary(cyc.__add__, "scalars.add_calls")
        cyc.__mul__ = cyc.__rmul__ = binary(cyc.__mul__, "scalars.mul_calls")
        cyc.inverse = inverse(cyc.inverse)

    def nearest_algebra_span(self):
        spans = self.spans
        for sid in reversed(self.stack):
            name = spans[sid][0]
            if name.startswith("algebra."):
                return name
        return None

    # -- item hooks ---------------------------------------------------------

    def record_fill(self, comps):
        """Echelon fill (nonzeros in the stored rows) of the bases of the
        computations an item used, read after the item."""
        counts = self.counts
        for comp in comps:
            for ech in comp.bases:
                for row in ech.rows.values():
                    counts["linalg.row_nnz_total"] += len(row)
                    if len(row) > counts["linalg.row_nnz_max"]:
                        counts["linalg.row_nnz_max"] = len(row)

    # -- results ------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\titem\n")
            for sid, (name, start, end, parent, item, _) in enumerate(
                    self.spans):
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}"
                         f"\t{item}\n")

    def metrics(self, item_names):
        """Every per-layer metric.  ``item_names[i]`` names the span of
        item i, as ``algebra.item`` or ``cli.item`` spans record it."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, item, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict(self.counts)
        for key in TIMES:
            out[key] = 0.0
        for cmd in CLI_COMMANDS:
            out[f"cli.main_s.{cmd}"] = 0.0
        for sid, (name, start, end, parent, item, outer) in enumerate(spans):
            dur = end - start
            if outer and name in SPAN_TIME:
                out[SPAN_TIME[name]] += dur
            if name == "algebra.basis":
                out["algebra.self_s"] += dur - child[sid]
            elif name.startswith("cli.main."):
                out[f"cli.main_s.{name[len('cli.main.'):]}"] += dur
                out["cli.self_s"] += dur - child[sid]
            elif name == "algebra.item":
                out[f"algebra.item_s.{item_names[item]}"] = dur
        out["scalars.op_s"] = self.op_s
        binary = out["scalars.add_calls"] + out["scalars.mul_calls"]
        out["scalars.mixed_conductor_frac"] = (self.mixed / binary
                                               if binary else 0.0)
        inserts = out["linalg.insert_calls"]
        out["linalg.insert_useful_frac"] = (self.useful_inserts / inserts
                                            if inserts else 0.0)
        return out
