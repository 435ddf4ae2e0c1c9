"""One iteration of one workload, in a fresh interpreter.

Usage (from the root of a checkout; ``run.py`` is the normal entry)::

    python3 perfbench/child.py WORKLOAD SEED MODE

``MODE`` is ``run`` (untraced, on the workload's parallel path),
``inline`` (untraced and in one process, timing only each sweep task)
or ``traced`` (in one process, every layer traced, spans written to
``perfbench/out/``). The last line of standard output is the
iteration's result as JSON. Timestamps are ``time.perf_counter``
values, which on Linux read the system-wide monotonic clock, so the
parent can subtract its own spawn time from ``ready``.
"""

import json
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from workloads import PINNED_SEED, REFERENCE_COUNTS, WORKLOADS  # noqa: E402

MODES = ("run", "inline", "traced")


def fingerprint() -> dict:
    """Python, numpy and the wire codecs this interpreter can use."""
    from repro.experiments.backends import protocol
    codecs = getattr(protocol, "available_codecs", tuple)()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "codecs": list(codecs)}


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in WORKLOADS or argv[2] not in MODES:
        print(f"usage: child.py {{{','.join(WORKLOADS)}}} SEED "
              f"{{{','.join(MODES)}}}", file=sys.stderr)
        return 2
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    tracer = None
    if mode != "run":
        tracer = Tracer()
        install(tracer, only=("experiments.task",) if mode == "inline"
                else ())
    result = WORKLOADS[workload](seed, mode, tracer)
    counts = result["counts"]
    if mode == "traced":
        counts["core.advance_calls"] = tracer.get("core.advance").calls
    if seed == PINNED_SEED:
        ref = REFERENCE_COUNTS.get(workload, {})
        result["count_notes"] = [
            f"{k} = {counts[k]}, recorded {v}"
            for k, v in ref.items() if k in counts and counts[k] != v]
    result["fingerprint"] = fingerprint()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The largest reaped descendant: a pool or fabric worker.
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (own + workers) / 1024.0
    if tracer is not None:
        result["spans"] = {name: vars(st) for name, st in
                           tracer.stats.items()}
        result["span_self_s"] = tracer.self_total_s()
        result["n_spans"] = tracer.n_spans
        result["missing"] = tracer.missing
        if mode == "traced":
            out = ROOT / "perfbench" / "out" / f"spans-{workload}-{seed}.npz"
            tracer.write(out)
            result["spans_file"] = str(out.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
