"""One pass of a workload in a fresh interpreter.

    python3 worker.py PLAN_JSON RESULT_JSON

The plan names the source directory, the warm-up argv, the op argvs and
whether to trace.  The worker runs in the pass directory, so the
relative paths in the argvs resolve there.  Set-up time is the import of
hilbtrunc plus the warm-up op; the ops then run back to back, one
closed-loop client, each timed on its own.  Outputs are checked later by
the parent, outside the timed region.

Before each op, after the last one and, in untraced passes, every
PROBE_INTERVAL_S during an op (from a SIGALRM handler), the worker times
`reference()`, a fixed piece of work that does not touch hilbtrunc.  The
machines this runs on are shared, and their speed drifts by up to 1.5x
within seconds as other tenants load them; the reference times let the
parent rescale each op by how fast the machine ran while it did.  Probe
time taken inside an op is subtracted from its latency.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback

REFERENCE_ITERATIONS = 500
PROBE_INTERVAL_S = 0.1


def reference():
    """Interpreter work plus small numpy calls, the mix hilbtrunc's ops make."""
    import numpy as np  # imported by hilbtrunc first, so set-up time counts it

    table = {}
    a = np.zeros(8, dtype=complex)
    total = 0.0
    for i in range(REFERENCE_ITERATIONS):
        b = a + i
        total += abs(complex(np.vdot(b[:4], b[:4])))
        table[(i, 0.5)] = total
    return total


def timed_reference():
    t = time.perf_counter()
    reference()
    return time.perf_counter() - t


def bracket_reference():
    """timed_reference() with the probe's signal held off until it ends."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        return timed_reference()
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class SpeedProbe:
    """Times reference() every `interval` seconds of wall time (SIGALRM).

    With `interval` None it samples nothing: traced passes leave it off so
    that no probe time lands in the spans.
    """

    def __init__(self, interval):
        self.interval = interval
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(timed_reference())

    def __enter__(self):
        if self.interval is not None:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def call(main, argv):
    """Run one CLI call; returns (exit code or None, stdout, error text)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = main(list(argv))
        return rc, out.getvalue(), None
    except SystemExit as exc:  # argparse rejects the argv
        return exc.code, out.getvalue(), f"SystemExit({exc.code!r})"
    except Exception:  # an op that raises is counted as failed, not fatal
        return None, out.getvalue(), traceback.format_exc()


def main(plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)

    t0 = time.perf_counter()
    sys.path.insert(0, plan["src"])
    import hilbtrunc
    import hilbtrunc.cli

    rc, _, err = call(hilbtrunc.cli.main, plan["warmup"])
    setup_s = time.perf_counter() - t0
    if rc != 0:
        sys.stderr.write(f"warm-up op failed (exit {rc}):\n{err or ''}")
        return 1
    setup_reference_s = [timed_reference() for _ in range(5)]

    tracer = None
    if plan["trace"]:
        from tracer import Tracer  # beside this script, on sys.path

        tracer = Tracer()
        tracer.install()

    ops = []
    reference_s = []
    with SpeedProbe(None if tracer else PROBE_INTERVAL_S) as probe:
        for i, argv in enumerate(plan["ops"]):
            reference_s.append(bracket_reference())
            if tracer is not None:
                tracer.begin_op(i)
            first = len(probe.samples)
            t = time.perf_counter()
            rc, out, err = call(hilbtrunc.cli.main, argv)
            latency = time.perf_counter() - t
            inside = probe.samples[first:]
            if tracer is not None:
                tracer.end_op()
            ops.append({"rc": rc, "latency_s": latency - sum(inside),
                        "probe_s": inside, "stdout": out, "error": err})
        reference_s.append(bracket_reference())

    spans = None
    if tracer is not None:
        tracer.uninstall()
        tracer.close()
        spans = [s.as_dict() for s in tracer.spans]

    result = {
        "module": hilbtrunc.__file__,
        "setup_s": setup_s,
        "setup_reference_s": setup_reference_s,
        "reference_s": reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "spans": spans,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
