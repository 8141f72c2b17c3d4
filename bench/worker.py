"""One cold pass over a workload's jobs, in a fresh process.

    python3 bench/worker.py SRC WORKLOAD SEED TRACE     run the jobs
    python3 bench/worker.py SRC --setup                 only time the import

SRC is the directory that holds the cdse package.  Prints one JSON object:
setup_s (time to import cdse and the modules the jobs use), wall_s (first
job start to last job end), peak_rss_mb, and each job's exit code and
report.  With TRACE 1 the jobs run under the layer tracer and the object
also carries the per-layer metrics.
"""

import sys
import time

if __name__ == "__main__":
    src = sys.argv[1]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import cdse
    import cdse.cli
    setup_s = time.perf_counter() - t0

    import contextlib
    import io
    import json
    import os
    import resource

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import jobs

    result = {"setup_s": setup_s}
    if sys.argv[2] != "--setup":
        workload, seed, trace = sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
        spans = None
        if trace:
            import tracer
            spans = tracer.Tracer().install()
        done = []
        start = time.perf_counter()
        for job in jobs.roster(workload, seed):
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    if job.fn is not None:
                        code, report = 0, job.fn(cdse)
                    else:
                        code = cdse.cli.main(job.argv + ["--format",
                                                         "structured"])
                        report = out.getvalue()
                done.append({"job": job.name, "code": code, "report": report})
            except (Exception, SystemExit) as exc:  # a crash fails the job
                done.append({"job": job.name, "code": None,
                             "error": f"{type(exc).__name__}: {exc}"})
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024)
        result["jobs"] = done
        if spans is not None:
            spans.uninstall()
            result["layers"] = spans.metrics()
    sys.stdout.write(json.dumps(result) + "\n")
