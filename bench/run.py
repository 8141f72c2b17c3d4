"""cdse benchmark runner.

One run of a workload (the form the benchmark contract calls):

    python3 bench/run.py --workload hopf --seed 0 --seconds 38 --trace 0

starts a fresh worker process per pass over the workload's jobs, so every
pass is cold, as every `cdse` call is, and repeats passes (one in flight)
until the next would overrun --seconds.  It also times a few import-only
processes for setup_s.  Every job's output is checked against
bench/expected.json.  The last line of stdout is the JSON result; the
lines before it give each metric with its unit, sample count and quartiles.

With --trace 1, passes alternate untraced and traced; the traced ones run
under bench/tracer.py and give the per-layer metrics, and the difference of
the median walls is reported as trace_overhead_s.

Other modes:

    python3 bench/run.py --workload all --runs 10 --out bench_results/base.json
        runs every workload --runs times, interleaved (seed = --seed + run
        index), records /proc/loadavg beside each run, prints a table of
        medians and checks that work counters repeat exactly (with --trace 1)
    python3 bench/run.py --compare BASE.json NEW.json
        one row per workload: each metric's median, quartiles and ratio
    python3 bench/run.py --freeze
        rewrites bench/expected.json from the current code at seed 0
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402

SETUP_PROBES = 12       # import-only processes per run, besides each pass
RUN_LIMIT = 170         # seconds; a pass that would end later fails its jobs

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
WORK_COUNTERS = ("trees.enumerated", "solver.trees_kept", "hopf.tensor_terms",
                 "linalg.cells", "solver.slices")


def _layer_units():
    units = {}
    for name in tracer.LAYERS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
        for counter in tracer.COUNTERS.get(name, ()):
            units[f"{name}.{counter}"] = "count"
        if name in tracer.CACHED:
            units[f"{name}.cache_entries"] = "count"
    units["solver.keep_ratio"] = "ratio"
    units["trace_overhead_s"] = "s"
    return units


def _worker(*args, timeout=RUN_LIMIT):
    # imports read bytecode cached under src/, as an installed package does,
    # whatever the caller's environment says
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    proc = subprocess.run([sys.executable, WORKER, SRC, *map(str, args)],
                          capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(map(str, args))} failed:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4)


def run_workload(workload, seed, seconds, trace):
    """One benchmark run; returns a record with metrics and details."""
    expected = verify.load_expected()
    limit = time.perf_counter() + RUN_LIMIT
    load_before = loadavg()
    _worker("--setup")  # untimed: the first import may write the bytecode
    setup = [_worker("--setup")["setup_s"] for _ in range(SETUP_PROBES)]
    passes = {False: [], True: []}
    attempted = failed = 0
    start = time.perf_counter()
    longest = 0.0
    traced = False
    while True:
        t = time.perf_counter()
        try:
            out = _worker(workload, seed, int(traced),
                          timeout=max(limit - t, 1))
        except subprocess.TimeoutExpired:
            n = len(jobs.roster(workload, seed))
            attempted += n
            failed += n
            break
        longest = max(longest, time.perf_counter() - t)
        setup.append(out["setup_s"])
        attempted += len(out["jobs"])
        failed += verify.count_failed(out["jobs"], expected)
        passes[traced].append(out)
        if trace:
            traced = not traced
        elapsed = time.perf_counter() - start
        if elapsed + longest > seconds and (not trace or passes[True]):
            break
    plain, traced_passes = passes[False], passes[True]
    samples = {"wall_s": [p["wall_s"] for p in plain],
               "setup_s": setup,
               "peak_rss_mb": [p["peak_rss_mb"] for p in plain]}
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "attempted": attempted, "failed": failed,
              "loadavg": [load_before, loadavg()],
              "samples": samples, "metrics": {}, "layers": {}}
    for name, values in samples.items():
        if values:
            record["metrics"][name] = statistics.median(values)
    if traced_passes:
        layer_samples = {}
        for p in traced_passes:
            for name, value in p["layers"].items():
                layer_samples.setdefault(name, []).append(value)
        record["layer_samples"] = layer_samples
        # median_low keeps counters whole numbers with an even sample count
        record["layers"] = {name: statistics.median_low(v)
                            for name, v in layer_samples.items()}
        if plain:
            record["layers"]["trace_overhead_s"] = (
                statistics.median(p["wall_s"] for p in traced_passes)
                - record["metrics"]["wall_s"])
    return record


def result_line(record):
    if record["trace"]:
        units = _layer_units()
        values = record["layers"]
    else:
        units = END_TO_END
        values = record["metrics"]
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def describe(record):
    """Human lines: each metric with its unit, sample count and quartiles."""
    lines = [f"workload {record['workload']} seed {record['seed']} "
             f"trace {record['trace']} loadavg {record['loadavg'][0]} -> "
             f"{record['loadavg'][1]}"]
    for name, unit in END_TO_END.items():
        values = record["samples"][name]
        if values:
            q1, med, q3 = quartiles(values)
            lines.append(f"  {name:<24} {med:14.4f} {unit:<5} median of "
                         f"{len(values)} (q1 {q1:.4f}, q3 {q3:.4f})")
    lines.append(f"  {'fail_frac':<24} "
                 f"{record['failed'] / record['attempted']:14.4f} "
                 f"{'':<5} {record['failed']} of {record['attempted']} jobs")
    if record["layers"]:
        units = _layer_units()
        n = len(record["layer_samples"]["spans"])
        for name, unit in units.items():
            value = record["layers"].get(name, 0)
            lines.append(f"  {name:<24} {value:14.4f} {unit:<5} median of {n}"
                         if isinstance(value, float) else
                         f"  {name:<24} {value:14d} {unit:<5} median of {n}")
        for problem in nondeterminism([record]):
            lines.append(f"  NONDETERMINISTIC {problem}")
    return "\n".join(lines)


# ------------------------------------------------------------------ series

def series(workloads, runs, seed, seconds, trace, out_path):
    """Interleaved runs: workload order rotates, so no workload runs many
    times in a row and slow spells of the host spread over all of them."""
    records = []
    for r in range(runs):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for workload in order:
            record = run_workload(workload, seed + r, seconds, trace)
            print(describe(record), flush=True)
            records.append(record)
    if out_path:
        os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"python": sys.version.split()[0], "seconds": seconds,
                       "runs": records}, fh, indent=1)
    print(summary(records))


def _by_workload(records):
    groups = {}
    for rec in records:
        groups.setdefault(rec["workload"], []).append(rec)
    return groups


def _run_values(recs, name):
    return [rec["metrics"].get(name, rec["layers"].get(name)) for rec in recs
            if name in rec["metrics"] or name in rec["layers"]]


def summary(records):
    """Median over runs of each end-to-end metric, per workload, with the
    quartile spread as a share of the median, and the determinism check."""
    lines = ["", f"{'workload':<8} {'metric':<12} {'median':>10} {'unit':<4} "
                 f"{'runs':>4} {'q1':>10} {'q3':>10} {'spread':>7}"]
    for workload, recs in _by_workload(records).items():
        for name, unit in END_TO_END.items():
            values = _run_values(recs, name)
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            lines.append(f"{workload:<8} {name:<12} {med:10.4f} {unit:<4} "
                         f"{len(values):4d} {q1:10.4f} {q3:10.4f} "
                         f"{(q3 - q1) / med:7.2%}")
        attempted = sum(rec["attempted"] for rec in recs)
        failed = sum(rec["failed"] for rec in recs)
        lines.append(f"{workload:<8} {'fail_frac':<12} "
                     f"{failed / attempted:10.4f} {'':<4} {len(recs):4d}   "
                     f"{failed} of {attempted} jobs failed")
        for problem in nondeterminism(recs):
            lines.append(f"{workload:<8} NONDETERMINISTIC {problem}")
    return "\n".join(lines)


def nondeterminism(recs):
    """Work counters that differ between traced passes of one commit.

    The sampled suites draw their cases from the seed, so their counters
    are compared only between runs with the same seed."""
    sampled = any(job.sampled for job in jobs.roster(recs[0]["workload"], 0))
    groups = {}
    for rec in recs:
        for name in WORK_COUNTERS:
            for value in rec.get("layer_samples", {}).get(name, ()):
                key = (name, rec["seed"] if sampled else None)
                groups.setdefault(key, set()).add(value)
    return [f"{name} (seed {seed}): {sorted(values)}" if sampled else
            f"{name}: {sorted(values)}"
            for (name, seed), values in sorted(groups.items(), key=str)
            if len(values) > 1]


# ----------------------------------------------------------------- compare

def compare(base_path, new_path):
    """One row per workload: for each metric, base and new medians with
    their quartiles, and the ratio new / base."""
    with open(base_path, encoding="utf-8") as fh:
        base = _by_workload(json.load(fh)["runs"])
    with open(new_path, encoding="utf-8") as fh:
        new = _by_workload(json.load(fh)["runs"])
    rows = []
    for workload in base:
        if workload not in new:
            continue
        names = list(END_TO_END) + sorted(
            {n for rec in base[workload] + new[workload] for n in rec["layers"]})
        cells = []
        for name in names:
            b, n = _run_values(base[workload], name), _run_values(new[workload], name)
            if not b or not n:
                continue
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            ratio = f"x{nmed / bmed:.3f} of {bmed:.4g}" if bmed else "base 0"
            cells.append(f"{name} {bmed:.4g} [{bq1:.4g}, {bq3:.4g}] -> "
                         f"{nmed:.4g} [{nq1:.4g}, {nq3:.4g}] {ratio}")
        rows.append(f"{workload}: " + " | ".join(cells))
    return "\n".join(rows)


# ------------------------------------------------------------------ freeze

def freeze():
    """Write each job's exit code and report, one cold pass per workload."""
    frozen = {}
    for workload in jobs.WORKLOADS:
        out = _worker(workload, 0, 0)
        for done in out["jobs"]:
            if "error" in done:
                raise SystemExit(f"{done['job']}: {done['error']}")
            frozen[done["job"]] = {"code": done["code"],
                                   "report": done["report"]}
    with open(verify.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    help=f"one of {', '.join(jobs.WORKLOADS)}, a comma list, "
                         f"or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=None,
                    help="series mode: runs per workload, interleaved")
    ap.add_argument("--out", help="series mode: write the records here")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--freeze", action="store_true")
    args = ap.parse_args(argv)

    if args.compare:
        print(compare(*args.compare))
        return 0
    if not os.path.isfile(os.path.join(SRC, "cdse", "__init__.py")):
        print(f"error: no cdse package under {SRC}", file=sys.stderr)
        return 2
    if args.freeze:
        freeze()
        return 0
    workloads = (list(jobs.WORKLOADS) if args.workload == "all"
                 else args.workload.split(","))
    unknown = [w for w in workloads if w not in jobs.WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}")
    if args.runs is not None or len(workloads) > 1:
        series(workloads, args.runs or 1, args.seed, args.seconds,
               args.trace, args.out)
        return 0
    record = run_workload(workloads[0], args.seed, args.seconds, args.trace)
    print(describe(record))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
