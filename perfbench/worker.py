"""Child interpreter for the benchmark: runs fullgraph and records its peak RSS.

Usage:
    python3 worker.py JOB.json RESULT.json

The job runs a list of operations in this one interpreter.  It names the
package's source directory, whether to trace, and the operations:
``{"kind": "cli", "argv": [...], "stdout": PATH}`` calls
``fullgraph.cli.main`` with its stdout written to PATH, as ``python -m
fullgraph`` would print it, and ``{"kind": "f_exact", "patterns": "K3,E3",
"lower": L, "upper": U, "cache_dir": D}`` calls ``f_exact`` directly.  The
result holds the monotonic clock before the first operation and, per
operation, its exit code (and the answer, for ``f_exact``) and the clock
when it finished, each clock with the time spent in speed samples so far,
plus the trace summary when tracing was on.  Traced or
not, every operation takes the same path.

At exit the process writes its peak resident set (VmHWM, in kB) to the file
named by ``PERFBENCH_HWM``.  The parent cannot take it from wait4(): a
child's maximum RSS there includes the parent's own size at fork time.

The result also holds ``speed``: timings of fixed reference kernels taken
in this process when it starts, every ``SAMPLE_INTERVAL_S`` while it works
(untraced jobs only, from a SIGALRM handler), and when it ends, with the
total time they took.  The parent scales the process's wall time, less
that total, by them (see ``speed.py``).
"""

from __future__ import annotations

import atexit
import contextlib
import json
import os
import sys
import time

from speed import Sampler

SAMPLE_INTERVAL_S = 0.4


def _record_hwm() -> None:
    path = os.environ.get("PERFBENCH_HWM")
    if not path:
        return
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                with open(path, "w") as out:
                    out.write(line.split()[1])
                return


def run_job(job_path: str, result_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)
    # spans of a traced job would count the handler's time as their own
    sampler = Sampler(None if job.get("trace") else SAMPLE_INTERVAL_S)
    sampler.start()
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import fullgraph

    if not os.path.abspath(fullgraph.__file__).startswith(src + os.sep):
        print(f"fullgraph imported from {fullgraph.__file__}, not from {src}", file=sys.stderr)
        return 2
    from fullgraph import cli, oracle
    from fullgraph.patterns import parse_pattern_list

    done = []
    t0, spent0 = time.monotonic(), sampler.spent_s
    for op in job["ops"]:
        if op["kind"] == "cli":
            with open(op["stdout"], "w") as out, contextlib.redirect_stdout(out):
                rc = cli.main(op["argv"])
            done.append({"rc": rc, "t": time.monotonic(), "spent": sampler.spent_s})
        else:
            result = oracle.f_exact(
                parse_pattern_list(op["patterns"]),
                lower_hint=op.get("lower"),
                upper_hint=op.get("upper"),
                cache_dir=op["cache_dir"],
            )
            done.append({"rc": 0, "result": result.to_dict(), "t": time.monotonic(),
                         "spent": sampler.spent_s})
    sampler.stop()
    out = {"t0": t0, "spent0": spent0, "ops": done, "speed": sampler.summary()}
    if tracer is not None:
        out["trace"] = tracer.summary()
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


def main(argv: list[str]) -> int:
    atexit.register(_record_hwm)
    if len(argv) == 2:
        return run_job(argv[0], argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
