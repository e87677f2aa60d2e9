"""The repository's benchmark: time to exact answers, per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``nichols`` from ``src/``
and exits with code 2, printing no result, when that is missing.  The four
workloads (``bench/panel.py`` says what each stresses and why) run one at a
time, each in fresh child processes (``bench/child.py``), one client in a
closed loop: the items of a pass run one after another with no threads.
The seed picks Galois conjugates, letter orders and the ``verify`` suite
seed; the library receives only the generated inputs.  Every item is
checked against its exact expected answer on every pass, and
``NICHOLS_CACHE_DIR`` is removed from the children's environment so the
on-disk Hilbert memo cannot answer a timed call.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

- ``wall_s``: median over passes of one pass's time, the timed calls
  only (not the answer checks); a child runs passes for ``--seconds``.
- ``setup_s``: median over ``SETUP_SAMPLES`` fresh processes of the time
  from process start to inputs built and validated.
- ``peak_rss_mib``: peak resident memory of the timed child.

Both times are in nominal seconds, scaled by a reference loop timed in the
same process around the work (``bench/child.py`` says how), because on a
shared 2-core host a repeated identical pass measured 0.49-1.06 s and was
bimodal, and process CPU time moved with wall time: the spread comes from
the host's CPU speed, not from scheduling, and pinning to one core did not
remove it.  The unscaled medians, the quartiles and the sample counts are
printed on the line before the result.

Items that give a wrong answer, raise, or exit non-zero are counted in
``failed`` of ``attempted``; their share is the workload's failed
fraction, which is not a metric because it is 0 on a correct build.

``--trace 1`` reports the per-layer metrics instead: one untraced pass,
then two traced children of the same seed (``bench/spans.py``).  Their
deterministic counts must be identical, or the run is marked incorrect.
``trace.wall_s`` is the first traced pass and ``trace.overhead_s`` that
minus the untraced pass, both in nominal seconds; the other per-layer
times are unscaled span times.
Spans are written to ``bench/out/``.  This mode runs fixed work, not
``--seconds``.

The deterministic counts of the traced run have no timing noise at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")
WORKLOADS = ("hilbert-finite", "hilbert-growth", "relations", "cli-mix")
SETUP_SAMPLES = 9
BUDGET_S = 170  # the whole run, so that it ends within 180 s


class BenchError(Exception):
    pass


DEADLINE = time.perf_counter() + BUDGET_S


def child(mode, workload, seed, *extra):
    """Run one child to completion and return its JSON result.  A child
    still running at the deadline is killed and waited for."""
    env = dict(os.environ)
    env.pop("NICHOLS_CACHE_DIR", None)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, CHILD, mode, workload, str(seed), repr(t0),
         *map(str, extra)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(DEADLINE - t0, 0.1))
    if proc.returncode != 0:
        raise BenchError(f"{mode} child failed ({proc.returncode}):\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def end_to_end(args):
    setups = [child("setup", args.workload, args.seed)
              for _ in range(SETUP_SAMPLES - 1)]
    timed = child("timed", args.workload, args.seed, args.seconds)
    setups.append(timed)
    q1, med, q3 = quartiles(timed["passes"])
    s1, smed, s3 = quartiles([s["setup_s"] for s in setups])
    raw = statistics.median(timed["passes_raw"])
    raw_setup = statistics.median(s["setup_raw_s"] for s in setups)
    print(f"{args.workload} seed {args.seed}: wall_s median {med:.4f} "
          f"q1 {q1:.4f} q3 {q3:.4f} over {len(timed['passes'])} passes; "
          f"setup_s median {smed:.4f} q1 {s1:.4f} q3 {s3:.4f} over "
          f"{len(setups)} processes; unscaled medians {raw:.4f} and "
          f"{raw_setup:.4f} s; {len(timed['refs'])} reference samples, "
          f"median {statistics.median(timed['refs']):.4f} s")
    values = {"wall_s": med, "setup_s": smed,
              "peak_rss_mib": timed["peak_rss_kib"] / 1024}
    return values, timed["attempted"], timed["failures"], True


def per_layer(args):
    base = child("timed", args.workload, args.seed, 0)
    runs = [child("traced", args.workload, args.seed,
                  os.path.join(ROOT, "bench", "out",
                               f"spans-{args.workload}-{k}.tsv"))
            for k in (1, 2)]
    attempted = base["attempted"] + sum(r["attempted"] for r in runs)
    failures = base["failures"] + [f for r in runs for f in r["failures"]]
    first, second = (r["counts"] for r in runs)
    differ = [k for k in first if first[k] != second.get(k)]
    for k in differ:
        print(f"count {k} differs between traced runs: {first[k]} vs "
              f"{second.get(k)}", file=sys.stderr)
    untraced = statistics.median(base["passes"])
    traced = runs[0]["passes"][0]
    values = dict(runs[0]["metrics"])
    values["trace.wall_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    print(f"{args.workload} seed {args.seed}: traced pass {traced:.4f} s, "
          f"untraced {untraced:.4f} s (nominal); counts "
          f"{'identical' if not differ else 'DIFFER'} across two traced runs")
    return values, attempted, failures, not differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nichols", "__init__.py")):
        print("error: src/nichols not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        if args.trace:
            values, attempted, failures, consistent = per_layer(args)
        else:
            values, attempted, failures, consistent = end_to_end(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.startswith("algebra.item_s."):
            value = 0.0  # an item of another workload
        else:
            print(f"error: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": not failures and consistent,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
