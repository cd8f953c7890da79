"""One measured operation in a fresh interpreter; started by run.py.

Usage: python3 worker.py WORKLOAD SEED OUT_DIR MODE
MODE is ``setup`` (stop when ready), ``plain`` or ``traced``.

Set-up (imports of kslab, numpy and scipy; input generation; config parse)
ends at the "ready" time stamp, taken on the system-wide monotonic clock so
that run.py can subtract the time it started this process.  The last line of
standard output is one JSON object.  Exit code 3 means set-up failed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv) -> int:
    workload, seed, out, mode = argv[0], int(argv[1]), Path(argv[2]), argv[3]
    try:
        import kslab
        import numpy
        import scipy

        import gate
        import workloads

        if not Path(kslab.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"kslab imported from {kslab.__file__}, not from {SRC}")
        pool = json.loads((HERE / "reference.json").read_text())[workload]
        entries = gate.choose(workload, seed, pool)
        inputs = workloads.prepare(workload, entries, pool, out)
    except Exception as exc:
        print(f"set-up failed: {exc!r}", file=sys.stderr)
        return 3
    ready = time.monotonic()
    record = {
        "ready": ready,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "kslab": kslab.__version__,
        },
    }
    if mode != "setup":
        record.update(measure(workload, inputs, traced=mode == "traced"))
    print(json.dumps(record))
    return 0


def measure(workload: str, inputs: dict, traced: bool) -> dict:
    import workloads

    tracer = None
    if traced:
        import tracing

        before = tracing.originals()
        tracer = tracing.Tracer()
        tracing.install(tracer)
    error = None
    t0 = time.perf_counter()
    try:
        raw = workloads.execute(workload, inputs)
    except Exception as exc:  # a failed operation is counted, not fatal
        raw, error = None, repr(exc)
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"wall": wall, "rss_mb": rss_mb, "error": error, "results": None}
    if tracer is not None:
        tracer.restore()
        out["restored"] = tracing.originals() == before
        out["layers"] = tracing.layer_metrics(tracer, wall)
    if raw is not None:
        try:
            out["results"] = workloads.collect(workload, inputs, raw)
        except Exception as exc:
            out["error"] = f"reading outputs: {exc!r}"
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
