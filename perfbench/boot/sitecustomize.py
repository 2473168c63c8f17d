"""Tracing bootstrap for the daemon under the benchmark's traced run.

The benchmark puts this directory on ``PYTHONPATH`` only for a traced
daemon; Python imports ``sitecustomize`` at start-up, and shard workers
inherit the environment, so the router and every worker load it too.
With ``PERFBENCH_TRACE_DIR`` set it wraps the daemon's layers in spans
(see ``tracing.py``) and writes them to that directory when the process
exits.  SIGTERM, which the shard router sends its workers, is turned
into the same orderly exit as Ctrl-C so the spans get written.  With
``PERFBENCH_ALLOC=1`` it also runs ``tracemalloc``, and each SIGUSR1
notes the live traced block count; the benchmark sends one at each end
of its allocation window while the load is paused.
"""

import os

_TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")

if _TRACE_DIR:
    import atexit
    import signal
    import sys

    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    import tracing

    _tracer = tracing.Tracer()
    tracing.install_service(_tracer)
    atexit.register(_tracer.dump, _TRACE_DIR, "spans")
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    if os.environ.get("PERFBENCH_ALLOC") == "1":
        import gc
        import tracemalloc

        tracemalloc.start()

        def _mark(signum, frame):
            gc.collect()  # count what is kept, not garbage awaiting a sweep
            _tracer.mark(len(tracemalloc.take_snapshot().traces))

        signal.signal(signal.SIGUSR1, _mark)
