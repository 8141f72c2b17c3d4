"""The benchmark's own checks: the output check is real, and the tracer
survives refactors that remove the functions it wraps."""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402

import cdse  # noqa: E402
import cdse.cli  # noqa: E402

EXPECTED = verify.load_expected()


def frozen(workload):
    """The frozen records of a workload, as a worker would report them."""
    return [{"job": job.name, **EXPECTED[job.name]}
            for job in jobs.roster(workload, 0)]


def with_report(records, name, edit):
    out = [dict(r) for r in records]
    for r in out:
        if r["job"] == name:
            r["report"] = edit(r["report"])
    return out


def test_frozen_results_pass():
    for workload in jobs.WORKLOADS:
        assert verify.count_failed(frozen(workload), EXPECTED) == 0


def test_one_altered_coefficient_fails():
    name = "solve LADDER -N 14"
    altered = with_report(frozen("solve"), name, lambda rep: rep.replace(
        "component 1 3 | 1 *", "component 1 3 | 2 *"))
    assert altered != frozen("solve")
    assert verify.count_failed(altered, EXPECTED) == 1


def test_witness_lines_do_not_count():
    name = "check-hopf NOT_HOPF -N 6"

    def rewrite_witnesses(rep):
        lines = []
        for line in rep.splitlines():
            if line.startswith("witness "):
                line = "witness 7 | (1.1:) | (1.2:)"
            elif line.startswith("failure "):
                line = line.rsplit(" pairing ", 1)[0] + " pairing 3"
            lines.append(line)
        return "\n".join(lines[:5] + lines[:4:-1]) + "\n"

    records = with_report(frozen("hopf"), name, rewrite_witnesses)
    assert verify.count_failed(records, EXPECTED) == 0


@pytest.mark.parametrize("edit", [
    lambda rep: rep.replace("checks 15", "checks 14"),
    lambda rep: rep.replace("failure eq 1 degree 4 left 2",
                            "failure eq 1 degree 4 left 3"),
    lambda rep: rep.replace("verdict not-hopf", "verdict hopf"),
])
def test_check_hopf_verdict_checks_and_failing_slices_stay_exact(edit):
    records = with_report(frozen("hopf"), "check-hopf NOT_HOPF -N 6", edit)
    assert verify.count_failed(records, EXPECTED) == 1


def test_exit_code_and_crash_fail():
    records = frozen("suites")
    records[2] = dict(records[2], code=1)
    records[3] = {"job": records[3]["job"], "code": None, "error": "boom"}
    assert verify.count_failed(records, EXPECTED) == 2


def test_sampled_suites_ignore_the_seed_but_not_the_counts():
    name = "prelie-verify -N 4"
    reseeded = with_report(frozen("suites"), name,
                           lambda rep: rep.replace("seed 0", "seed 9"))
    assert verify.count_failed(reseeded, EXPECTED) == 0
    recount = with_report(frozen("suites"), name,
                          lambda rep: rep.replace("| 400", "| 399"))
    assert verify.count_failed(recount, EXPECTED) == 1


def traced(layers, argv):
    t = tracer.Tracer(layers).install()
    try:
        with redirect_stdout(io.StringIO()) as out:
            code = cdse.cli.main(argv)
    finally:
        t.uninstall()
    return t, code, out.getvalue()


HOPF_ARGV = ["check-hopf", jobs.NOT_HOPF, "-N", "4", "--format", "structured"]


def test_tracer_counts_and_self_times():
    t, code, _ = traced(None, HOPF_ARGV)
    assert code == 1
    m = t.metrics()
    assert m["linalg.cells"] > 0 and m["hopf.tensor_terms"] > 0
    assert m["solver.slices"] == 6 and m["cli.calls"] == 1
    # self times partition the top-level spans
    roots = sum(e - s for s, e, p in zip(t.start, t.end, t.parent) if p < 0)
    assert sum(t.self_ns()) == roots
    assert all(ns >= 0 for ns in t.self_ns())
    # uninstall restored every patched name
    assert cdse.cli.main.__module__ == "cdse.cli"
    assert not hasattr(cdse.solver.coproduct, "__wrapped__")


def test_tracer_survives_removed_functions(monkeypatch):
    # the sparse Hopf test removes linalg; the suite registry moves loops
    # out of cli.py: both must read as zero layers, not crash
    monkeypatch.delattr(cdse.hopf, "coproduct")
    layers = dict(tracer.LAYERS)
    layers["linalg"] = dict(layers["linalg"], module="cdse.no_such_module")
    layers["cli"] = dict(layers["cli"], functions=("main", "_no_such_loop"))
    t, code, report = traced(layers, HOPF_ARGV)
    assert code == 1 and "verdict not-hopf" in report
    m = t.metrics()
    assert m["linalg.self_s"] == 0 and m["linalg.cells"] == 0
    assert m["hopf.tensor_terms"] == 0
    assert m["solver.slices"] == 6


def test_nondeterministic_counters_are_flagged():
    def rec(seed, enumerated):
        return {"workload": "solve", "seed": seed,
                "layer_samples": {"trees.enumerated": [enumerated]}}
    assert run.nondeterminism([rec(0, 5), rec(1, 5)]) == []
    assert run.nondeterminism([rec(0, 5), rec(1, 6)]) != []
    # the sampled suites compare counters only within one seed
    suites = [dict(rec(0, 5), workload="suites"),
              dict(rec(1, 6), workload="suites")]
    assert run.nondeterminism(suites) == []


def test_result_line_matches_benchmark_json():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    record = {"trace": 0, "failed": 0, "attempted": 3, "metrics": {},
              "layers": {}}
    got = json.loads(run.result_line(record))
    assert set(got) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in got["metrics"].items()} == \
        {m["name"]: m["unit"] for m in bench["end_to_end"]}
    got = json.loads(run.result_line(dict(record, trace=1)))
    assert {k: v["unit"] for k, v in got["metrics"].items()} == \
        {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)
