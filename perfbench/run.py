"""CloudFog benchmark: host time of the simulator at fixed inputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \\
        --trace 0|1

Workloads (see ``workloads.py`` for why each was chosen):

* ``scale-outage-100k``: the cohort kernel, 100k players, region outage;
* ``launch-day-100k``: the dynamics kernel, churn + flash crowd +
  mobility + diurnal load on 100k player slots;
* ``paper-sweep``: every paper figure at scale 0.05 on the process pool;
* ``fabric-sweep``: the small-task figures on 2 loopback remote workers.

Every iteration runs in a fresh interpreter (``child.py``) with no
result cache, so nothing warm skips the timed work. With ``--trace 0``
iterations repeat, each a new set-up, while the next one still ends
within ``--seconds`` (at least two run, so that exact counts can be
compared). The end-to-end metrics are medians over them, scaled to a
reference machine speed by a calibration unit timed between
iterations (see ``CAL_REF_S``). With ``--trace 1`` the workload runs
once untraced and once with every layer's public functions traced in
one process; sweeps also run once inline and untraced, which is the
traced run's baseline. The per-layer metrics come from those runs and
are not scaled.

Every number scored is host time. Simulated outputs are checked
(pinned digests at seed 0, invariants on every seed) and never scored.
The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}`` as JSON; the full result, with a machine
fingerprint, is also written to ``perfbench/out/``. The exit code is 0
only if every check passed.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"

WORKLOADS = ("scale-outage-100k", "launch-day-100k", "paper-sweep",
             "fabric-sweep")
SWEEPS = ("paper-sweep", "fabric-sweep")

#: Iterations of an untraced run, whatever ``--seconds`` says: exact
#: counts are compared between them.
MIN_ITERATIONS = 2
#: A run must end within 180 s; leave room for reporting.
HARD_LIMIT_S = 170.0
#: What the fabric worker's SIGTERM handler prints at teardown: a known
#: defect, reported but neither suppressed nor counted as a failure.
TEARDOWN_DEFECT = "SystemExit: 143"

#: Machine-speed calibration. On a shared 2-core Xeon VM (2.1 GHz) the
#: host speed moved by up to 2x within minutes, and every workload
#: moved with it alike. The end-to-end times are therefore
#: scaled by CAL_REF_S over the median time of a fixed calibration
#: unit, measured before the first iteration and after each one: they
#: read as host seconds at the reference speed. The unit is benchmark
#: code that imports nothing from repro, so no change to the simulator
#: moves it.
CAL_REF_S = 0.035
CAL_REPEATS = 7


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One iteration in a fresh interpreter; its parsed result."""
    t_spawn = time.perf_counter()
    timeout = deadline - t_spawn
    if timeout <= 0:
        raise BenchError("out of time before the next iteration")
    # A session of its own, so that a timeout also stops the workers.
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), workload, str(seed), mode],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        sys.stderr.write(err)
        raise BenchError(f"{workload} ({mode}) timed out") from None
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} ({mode}) exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} ({mode}) printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - t_spawn
    result["teardown_defects"] = err.count(TEARDOWN_DEFECT)
    return result


def _calibration_unit() -> None:
    """Interpreter work like the event loop, then numpy gathers and
    scatters like the cohort kernel's."""
    heap: list = []
    for i in range(20_000):
        heapq.heappush(heap, ((i * 7919) % 10_007, i))
    acc: dict = {}
    while heap:
        key, i = heapq.heappop(heap)
        acc[key] = acc.get(key, 0) + i
    idx = (np.arange(200_000) * 7919) % 200_000
    values = np.zeros(200_000)
    for _ in range(20):
        values[idx] = values[idx] + 1.0


def calibrate() -> float:
    """Median seconds of the calibration unit, measured now."""
    times = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        _calibration_unit()
        times.append(time.perf_counter() - t0)
    return median(times)


def median(values) -> float:
    return float(statistics.median(values))


def consistency(results: list[dict]) -> list[str]:
    """Exact counts and digests must repeat across runs of one seed."""
    problems = []
    first = results[0]
    for r in results[1:]:
        differ = {k: (v, r["counts"][k]) for k, v in first["counts"].items()
                  if k in r["counts"] and r["counts"][k] != v}
        if differ:
            problems.append(f"exact counts differ between runs: {differ}")
        if r["digests"] != first["digests"]:
            problems.append("simulated-output digests differ between runs")
    return problems


def end_to_end(workload: str, seed: int, seconds: int) -> tuple:
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    results: list[dict] = []
    cal = [calibrate()]
    while True:
        results.append(run_child(workload, seed, "run", deadline))
        cal.append(calibrate())
        now = time.perf_counter()
        next_s = (now - start) / len(results)
        if now + next_s > deadline or (
                len(results) >= MIN_ITERATIONS
                and now + next_s > start + seconds):
            break
    speed = CAL_REF_S / median(cal)

    def rate(key: str) -> float:
        return median([n / s for r in results
                       for n, s in zip(r[key], r["run_s"])]) / speed

    values = {
        "setup_s": speed * median([r["setup_s"] for r in results]),
        "run_s": speed * median([x for r in results for x in r["run_s"]]),
        "player_ticks_per_s": rate("player_ticks"),
        "tasks_per_s": rate("tasks"),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
    }
    calibration = {"calibration_s": cal, "speed": speed}
    return values, results, consistency(results), calibration


def per_layer(workload: str, seed: int) -> tuple:
    deadline = time.perf_counter() + HARD_LIMIT_S
    untraced = run_child(workload, seed, "run", deadline)
    inline = (run_child(workload, seed, "inline", deadline)
              if workload in SWEEPS else None)
    traced = run_child(workload, seed, "traced", deadline)
    results = [r for r in (untraced, inline, traced) if r is not None]

    def span(name: str, field: str, result: dict = traced) -> float:
        return result["spans"].get(name, {}).get(field, 0)

    def layer(name: str) -> float:
        return traced["layer"].get(name, 0)

    run_s = median(untraced["run_s"])
    events = layer("sim.events")
    sim_self = span("sim.run", "self_s")
    values = {
        "sim.events": events,
        "sim.self_s": sim_self,
        "sim.us_per_event": 1e6 * sim_self / events if events else 0.0,
        "core.advance_calls": span("core.advance", "calls"),
        "core.advance_players": span("core.advance", "weight"),
        "core.advance_self_s": span("core.advance", "self_s"),
        "core.materialisations": layer("core.materialisations"),
        "core.reabsorptions": layer("core.reabsorptions"),
        "core.session_build_s": span("core.session_build", "total_s"),
        "core.sched_calls": span("core.sched", "calls"),
        "core.sched_self_s": span("core.sched", "self_s"),
        "core.adapt_self_s": span("core.adapt", "self_s"),
        "core.packets_dropped": layer("core.packets_dropped"),
        "network.gather_calls": span("network.gather", "calls"),
        "network.gather_self_s": span("network.gather", "self_s"),
        "network.rtt_matrix_self_s": span("network.rtt_matrix", "self_s"),
        "network.uplink_self_s": span("network.uplink", "self_s"),
        "streaming.encode_self_s": span("streaming.encode", "self_s"),
        "streaming.playback_self_s": span("streaming.playback", "self_s"),
        "streaming.fifo_self_s": span("streaming.fifo", "self_s"),
        "streaming.segments": span("streaming.encode", "calls"),
        "workload.population_builds": span("workload.build", "calls"),
        "workload.build_self_s": (span("workload.build", "self_s")
                                  + span("workload.access", "self_s")),
        "dynamics.compile_s": span("dynamics.compile", "total_s"),
        "obs.probe_calls": span("obs.probe", "calls"),
        "obs.probe_self_s": span("obs.probe", "self_s"),
        "obs.snapshot_self_s": span("obs.snapshot", "self_s"),
        "experiments.tasks": untraced["layer"].get("experiments.tasks", 0),
        "experiments.merge_self_s": span("experiments.merge", "self_s"),
        "sender.segments_enqueued": layer("sender.segments_enqueued"),
        "server.segments_sent": layer("server.segments_sent"),
        # The traced run's baseline is the untraced run in the same
        # shape: inline for the sweeps, the kernel itself otherwise.
        "trace.overhead_s": (median(traced["run_s"])
                             - median((inline or untraced)["run_s"])),
        "trace.unattributed_s": traced["call_s"] - traced["span_self_s"],
        "trace.spans": traced["n_spans"],
    }
    for key in ("dynamics.joins", "dynamics.leaves", "dynamics.moves",
                "dynamics.refused", "dynamics.shed", "fabric.setup_s",
                "fabric.wire_bytes_sent", "fabric.wire_bytes_recv",
                "fabric.bytes_per_task"):
        values[key] = untraced["layer"].get(key, 0)
    busy = 0.0
    if inline is not None:
        # Busy time from the inline run, whose only spans are tasks;
        # the harness overhead is what the parallel run adds to it.
        busy = span("experiments.task", "total_s", inline)
        workers = untraced["workers"]
        values["experiments.overhead_s"] = run_s - busy / workers
        values["experiments.parallel_efficiency"] = busy / (workers * run_s)
    else:
        values["experiments.overhead_s"] = 0.0
        values["experiments.parallel_efficiency"] = 0.0
    values["experiments.task_busy_s"] = busy
    return values, results, consistency(results), {}


def load_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(workload: str, seed: int, seconds: int,
                 trace: bool) -> dict:
    metrics = load_metrics(trace)
    if trace:
        values, results, problems, calibration = per_layer(workload, seed)
    else:
        values, results, problems, calibration = end_to_end(
            workload, seed, seconds)
    attempted = sum(r["attempted"] for r in results)
    # Counts or digests that differ between runs fail the run too.
    failed = sum(r["failed"] for r in results) + len(problems)
    problems = [p for r in results for p in r["problems"]] + problems
    correct = not problems and failed == 0
    defects = sum(r["teardown_defects"] for r in results)
    info = dict(results[0]["fingerprint"], cores=os.cpu_count())

    print(f"perfbench {workload}  seed={seed}  trace={int(trace)}  "
          f"runs={len(results)} (fresh interpreter each)")
    for m in metrics:
        print(f"  {m['name']:<34} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"  {'failed_fraction':<34} {failed / max(attempted, 1):>16.6g} "
          f"({failed} of {attempted} operations)")
    if calibration:
        raw = median([x for r in results for x in r["run_s"]])
        print(f"  times above are scaled to the reference speed: factor "
              f"{calibration['speed']:.4f}, unscaled run_s {raw:.6g} s")
    print(f"  exact counts: {json.dumps(results[-1]['counts'])}")
    for r in results:
        for note in r.get("count_notes", []):
            print(f"  count moved: {note}")
    for p in problems:
        print(f"  FAILED CHECK: {p}")
    missing = sorted({m for r in results for m in r.get("missing", [])})
    if missing:
        print(f"  trace targets not found: {', '.join(missing)}")
    if defects:
        print(f"  known defect: fabric teardown printed "
              f"'{TEARDOWN_DEFECT}' {defects} time(s) (not a failed task)")
    print(f"  machine: {json.dumps(info, sort_keys=True)}")

    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "trace": trace,
                    "fingerprint": info, "values": values, **calibration,
                    "problems": problems, "teardown_defects": defects,
                    "iterations": results}, indent=1) + "\n")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            summary = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace))
        except (BenchError, OSError, ValueError, KeyError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(summary))
        ok = ok and summary["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
