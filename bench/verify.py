"""Compare job outputs with the results frozen in expected.json.

Reports are compared line by line after one normalisation each:

* check-hopf: witness records are dropped, and a failure record keeps only
  its (eq, degree, left) key, compared as a set.  The verdict and the
  checks count stay exact.  The witness form may change; the acceptance
  tests verify witnesses on their own.
* sampled suites (prelie-verify, selftest): the seed record is dropped, so
  any seed must give every suite a pass with the frozen check counts.
"""

import json
import os

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")


def load_expected(path=EXPECTED):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def canonical(job, report):
    lines = report.splitlines()
    if job.startswith("check-hopf"):
        failing = {" ".join(line.split()[:7])
                   for line in lines if line.startswith("failure ")}
        return [line for line in lines
                if not line.startswith(("witness ", "failure "))] + sorted(failing)
    if job.startswith(("prelie-verify", "selftest")):
        return [line for line in lines if not line.startswith("seed ")]
    return lines


def job_ok(done, expected):
    """True when one job's record matches its frozen result."""
    want = expected.get(done["job"])
    if want is None or "error" in done or done["code"] != want["code"]:
        return False
    return canonical(done["job"], done["report"]) == canonical(done["job"],
                                                               want["report"])


def count_failed(jobs, expected):
    return sum(not job_ok(done, expected) for done in jobs)
