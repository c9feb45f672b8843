"""One benchmark sample, run in a fresh interpreter.

Usage: python3 -I child.py SRC ALGEBRA TRACE [TORSLAB_ARGV...]

SRC is the directory holding the torslab package, ALGEBRA the algebra
file, TRACE 1 to wrap the entry points first (see tracer.py) or 0.  With
no torslab command line the child measures set-up only.  The child prints
one JSON line: set-up seconds and the host speed probed right after set-up
(reference.py), and for a command its wall seconds, the wall seconds net of
the probe's ticks, the host speed the ticks saw, peak RSS, exit code, the
type of any exception it raised, the summary, SHA-256 and length of the
report, and with tracing the per-layer metrics and the calls seen per entry
point.  Traced commands run without ticks.  It exits 0 whatever the
command did.
"""

# Set-up time is that of a fresh interpreter, so nothing that torslab might
# import is imported before it is measured; os and sys are loaded at start-up.
import os
import sys
import time


def main():
    src, algebra, trace, argv = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
    src = os.path.realpath(src)
    sys.path.insert(0, src)
    start = time.perf_counter()
    import torslab
    from torslab import cli

    with open(algebra) as fh:
        torslab.load_algebra(fh.read())
    out = {"setup_s": time.perf_counter() - start}
    if not os.path.realpath(torslab.__file__).startswith(src + os.sep):
        raise SystemExit("torslab imported from %s, not from %s" % (torslab.__file__, src))
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    from reference import TICK_EVERY_S, speed, tick_s

    out["setup_speed"] = speed([tick_s() for _ in range(100)])
    if not argv:
        return out
    import contextlib
    import hashlib
    import io
    import resource
    import signal

    from workloads import summarize

    tracer = None
    ticks = []
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(tick_s()))
    report = io.StringIO()
    code = error = None
    start = time.perf_counter()
    if not trace:
        signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)
    try:
        with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        error = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["net_s"] = wall - sum(ticks)
    out["speed"] = speed(ticks) if ticks else out["setup_speed"]
    text = report.getvalue().encode()
    out.update(
        wall_s=wall,
        peak_rss_mb=rss_mb,
        exit=code,
        error=error,
        summary=summarize(text, code) if error is None else None,
        sha256=hashlib.sha256(text).hexdigest(),
        bytes=len(text),
    )
    if tracer is not None:
        out["layers"] = tracer.metrics(wall)
        out["calls"] = tracer.calls
    return out


if __name__ == "__main__":
    result = main()
    import json

    sys.stdout.write(json.dumps(result) + "\n")
