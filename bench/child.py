"""One benchmark child process: set up a workload, then run its passes.

    python3 bench/child.py setup  WORKLOAD SEED T0
    python3 bench/child.py timed  WORKLOAD SEED T0 SECONDS
    python3 bench/child.py traced WORKLOAD SEED T0 SPANS_PATH

T0 is the parent's ``time.perf_counter()`` just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes,
so ``setup_s`` runs from process start through ``import nichols`` and the
building and validation of the workload's inputs.  ``timed`` then runs
passes for SECONDS (at least two); ``traced`` runs one pass under the
tracer.  The result is one JSON line on stdout.

Host speed.  On a shared 2-core host the same pass can take anywhere from
0.5x to 1.5x its usual time, changing within seconds, and process CPU time
moves with wall time.  So every timing is also reported in nominal
seconds: the raw time of a stretch of work times REF_NOMINAL_S over the
time the fixed ``reference`` loop took, sampled in the same process right
before and after that stretch.  Timed work is cut into segments of at
least SEGMENT_S between item calls, each scaled by the mean of the
samples at its two ends; a set-up time is scaled by the samples taken
right after it.
"""

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from math import gcd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REF_N = 40000           # iterations of the reference loop
REF_NOMINAL_S = 0.02    # its duration at the nominal host speed
SEGMENT_S = 0.4


def reference():
    """Seconds taken by a fixed piece of pure-Python work shaped like the
    library's inner loops (int-keyed dict traffic, integer arithmetic,
    small tuples), with the collector off so the library's heap cannot
    slow it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        acc = 0
        for i in range(REF_N):
            k = (i * 7919) % 1021
            prev = table.get(k)
            if prev is None:
                table[k] = (i, i * k)
            else:
                acc += gcd(prev[1] + 12, i * k + 18)
                if acc & 1:
                    del table[k]
        return time.perf_counter() - t0
    finally:
        gc.enable()


def settled_reference():
    return statistics.median(reference() for _ in range(3))


class NominalClock:
    """Sums timed work in nominal seconds, segment by segment."""

    def __init__(self, first_ref):
        self.last_ref = first_ref
        self.open = 0.0
        self.nominal = 0.0
        self.refs = [first_ref]

    def add(self, seconds):
        self.open += seconds
        if self.open >= SEGMENT_S:
            self.close()

    def close(self):
        """End the current segment; returns the nominal total so far."""
        if self.open:
            ref = reference()
            self.refs.append(ref)
            self.nominal += self.open * 2 * REF_NOMINAL_S / (self.last_ref
                                                              + ref)
            self.last_ref = ref
            self.open = 0.0
        return self.nominal


def run_pass(items, clock, tracer=None):
    """One pass over the items: (seconds summed over the timed calls,
    failure messages).  Checks and reference samples run outside the
    timed calls."""
    total = 0.0
    failures = []
    for idx, item in enumerate(items):
        if tracer is not None:
            tracer.item = idx
            sid = tracer.open(f"{item.layer}.item")
        t0 = time.perf_counter()
        try:
            answer, comps = item.run()
            error = None
        except Exception:  # a raising item counts as failed; the pass goes on
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        total += elapsed
        clock.add(elapsed)
        if tracer is not None:
            tracer.close(sid)
            if error is None:
                tracer.record_fill(comps)
        if error is None:
            error = item.check(answer)
        if error is not None:
            failures.append(f"{item.name}: {error}")
    return total, failures


def main(argv):
    mode, workload, seed, t0 = argv[0], argv[1], int(argv[2]), float(argv[3])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import nichols  # noqa: F401  (set-up includes the package import)
    tracer = None
    if mode == "traced":
        from spans import COUNTS, Tracer
        tracer = Tracer()
        tracer.install()
    import panel
    outdir = os.path.join(ROOT, "bench", "out")
    os.makedirs(outdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=outdir)
    try:
        items = panel.build(workload, seed, workdir)
        setup_s = time.perf_counter() - t0
        ref = settled_reference()
        result = {"setup_raw_s": setup_s,
                  "setup_s": setup_s * REF_NOMINAL_S / ref}
        if mode == "setup":
            print(json.dumps(result))
            return 0
        clock = NominalClock(ref)
        raw, nominal, failures = [], [], []
        start = time.perf_counter()
        while True:
            done = clock.nominal
            elapsed, failed = run_pass(items, clock, tracer)
            raw.append(elapsed)
            failures.extend(failed)
            nominal.append(clock.close() - done)
            if mode == "traced":
                break
            # stop before a pass that would end past SECONDS, once there
            # are two
            mean = (time.perf_counter() - start) / len(raw)
            if len(raw) >= 2 and (time.perf_counter() - start + mean
                                  > float(argv[4])):
                break
        result.update(passes_raw=raw, passes=nominal, refs=clock.refs,
                      attempted=len(raw) * len(items), failures=failures,
                      peak_rss_kib=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            tracer.write(argv[4])
            metrics = tracer.metrics([it.name for it in items])
            result["metrics"] = metrics
            result["counts"] = {k: metrics[k] for k in COUNTS}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
