"""The benchmark's one command; README.md in this directory defines everything it prints.

    python3 bench_e2e/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                             [--smoke] [--aa PAIRS] [--json OUT]

Every workload runs in a fresh subprocess of its own with ``PYTHONHASHSEED=0``
(inherited by the worker daemons).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when an answer was wrong or a window was lost.
"""

import time

PROCESS_STARTED = time.perf_counter()  # set-up time counts from the first statement, before ``import repro``

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
#: Set-up is timed this many times per run (fresh process each); the median is reported.
SETUP_SAMPLES = 5
SMOKE_SCALE = 1 / 20
#: The traced pass covers the saturation segments of the first this many of the
#: run's 8 measured rounds (the first third of the measured saturation stream),
#: without paced slices; the untraced pass before it keeps them, at a third of
#: their length.
TRACED_ROUNDS = 3
UNTRACED_PACED_SCALE = 1 / 3


# --------------------------------------------------------------------------- #
# Inside the workload's own process.  These functions import ``repro`` (and the
# benchmark's modules, which do) themselves: the import is part of the set-up
# time, and the driver process never needs it.
# --------------------------------------------------------------------------- #
def probe_setup(workload_name: str, seed: int) -> dict:
    """Set up once, up to the first window's result, and report how long it took."""
    from bench_e2e.workloads import WORKLOADS, Deployment

    deployment = Deployment(WORKLOADS[workload_name])
    try:
        deployment.first_answer(seed)
        return {"setup_s": time.perf_counter() - PROCESS_STARTED}
    finally:
        deployment.close()


def measure(workload_name: str, seed: int, scale: float) -> dict:
    """The timed run: set-up, the rounds, verification."""
    from bench_e2e import harness
    from bench_e2e.oracle import check_run
    from bench_e2e.workloads import WORKLOADS, Deployment

    workload = WORKLOADS[workload_name]
    deployment = Deployment(workload)
    try:
        deployment.first_answer(seed)
        setup_s = time.perf_counter() - PROCESS_STARTED
        calibration = [harness.calibration_ms()]
        run = harness.run_rounds(deployment, seed, scale)
        calibration.append(harness.calibration_ms())
        peak_rss_mb = harness.peak_rss_mb() + deployment.worker_peak_rss_mb()
    finally:
        deployment.close()

    verdict = check_run(workload, seed, run.record)  # after the peak was read: it regenerates the stream
    return {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": len(verdict.failed),
        "metrics": {
            "setup_s": (setup_s, "s"),
            "throughput_triples_per_s": (run.throughput, "triples/s"),
            "lag_ms_p50": (run.lag_ms_p50, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
        "notes": {
            "segment_throughputs": [round(value, 1) for value in run.segment_throughputs],
            "slice_lag_ms_p50": [round(statistics.median(lags), 2) for lags in run.slice_lags_ms if lags],
            "lag_ms_p95": round(run.lag_ms_p95, 2),  # a per-layer metric (session.lag_ms_p95): see README.md
            "lag_samples": len(run.record.lag_ms),
            "generator_late_ms_p95": harness.percentile(run.generator_late_ms, 0.95),
            "backlog": run.backlog,
            "calibration_ms": [round(value, 3) for value in calibration],
        },
    }


def measure_traced(workload_name: str, seed: int, scale: float) -> dict:
    """The traced run: per-layer metrics, never end-to-end ones."""
    from bench_e2e import harness, streams
    from bench_e2e.layers import layer_metrics
    from bench_e2e.oracle import check_run
    from bench_e2e.trace import Tracer
    from bench_e2e.workloads import WORKLOADS, Deployment

    workload = WORKLOADS[workload_name]
    calibration = [harness.calibration_ms()]

    # 1. A whole run untraced (paced slices at a third of their length): the
    #    baseline of the overhead ratio, and the run the host-level counters describe.
    deployment = Deployment(workload)
    try:
        deployment.first_answer(seed)
        with harness.GcWatch() as gc_watch:
            untraced = harness.run_rounds(
                deployment, seed, scale, paced_scale=UNTRACED_PACED_SCALE, count_live_objects=True
            )
        worker_rss = deployment.worker_peak_rss_mb()
    finally:
        deployment.close()
    calibration.append(harness.calibration_ms())
    if scale >= 1.0 and not workload.tcp_workers:
        streams.assert_steady_state(workload, untraced.live_objects_mid, untraced.live_objects_end)

    # 2. The saturation segments of its first rounds again, on a fresh
    #    deployment, with the wrappers on.
    tracer = Tracer()
    deployment = Deployment(workload)
    try:
        deployment.first_answer(seed)
        traced = harness.run_rounds(
            deployment, seed, scale, rounds=TRACED_ROUNDS, paced_scale=0, around_segment=tracer.installed
        )
        counters = {
            name: value if name.endswith("high_water") else value - traced.warm_up_counters[name]
            for name, value in deployment.counters().items()
        }
    finally:
        deployment.close()
    calibration.append(harness.calibration_ms())
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    tracer.dump(results / f"trace_{workload_name}.json", workload=workload_name, seed=seed, scale=scale)

    segment_len = traced.record.layout[0][2]
    traced_wall = sum(segment_len / throughput for throughput in traced.segment_throughputs)
    metrics = layer_metrics(tracer, traced.record.metrics[traced.warm_up_windows :], counters, traced_wall)
    metrics.update(
        {
            "session.lag_ms_p95": (untraced.lag_ms_p95, "ms"),
            "worker.cpu_s": (untraced.segment_worker_cpu_seconds, "s"),
            "worker.peak_rss_mb": (worker_rss, "MB"),
            "host.gc_gen2_collections": (gc_watch.gen2_collections, "count"),
            "host.gc_pause_ms_total": (gc_watch.pause_ms_total, "ms"),
            "host.live_objects_end": (untraced.live_objects_end, "count"),
            "host.live_objects_growth": (untraced.live_objects_end / untraced.live_objects_mid, "ratio"),
            "host.cpu_s_per_ktriple": (
                (untraced.segment_cpu_seconds + untraced.segment_worker_cpu_seconds)
                / (len(untraced.segment_throughputs) * untraced.record.layout[0][2] / 1000.0),
                "s/ktriple",
            ),
            "host.calibration_ms": (statistics.median(calibration), "ms"),
            "host.generator_late_ms_p95": (harness.percentile(untraced.generator_late_ms, 0.95), "ms"),
            "trace.overhead_ratio": (
                traced.throughput_over(TRACED_ROUNDS) / untraced.throughput_over(TRACED_ROUNDS),
                "ratio",
            ),
        }
    )
    verdicts = [check_run(workload, seed, untraced.record), check_run(workload, seed, traced.record)]
    return {
        "correct": all(verdict.correct for verdict in verdicts),
        "attempted": sum(verdict.attempted for verdict in verdicts),
        "failed": sum(len(verdict.failed) for verdict in verdicts),
        "metrics": metrics,
        "notes": {
            "calibration_ms": [round(value, 3) for value in calibration],
            "layer_share_of_traced_wall": {
                layer: round(seconds / traced_wall, 4) for layer, seconds in sorted(tracer.layer_self_seconds().items())
            },
        },
    }


# --------------------------------------------------------------------------- #
# The driver process
# --------------------------------------------------------------------------- #
def run_child(role: str, workload: str, seed: int, seconds: float, timeout: float) -> dict:
    """Run one role in a fresh interpreter and parse the JSON on its last output line."""
    command = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
    ]  # fmt: skip
    environment = dict(os.environ, PYTHONHASHSEED="0")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=environment, start_new_session=True)
    try:
        output, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # the child and any worker daemon it spawned
        child.wait()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"{role} of {workload} exited with code {child.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, setup_samples: int) -> dict:
    """One workload, end to end; the set-up time is the median over fresh processes."""
    if trace:
        return run_child("trace", workload, seed, seconds, timeout=150)
    # Warm the file cache (and the bytecode cache) once, so no set-up sample reads cold files.
    subprocess.run([sys.executable, "-c", "import repro"], check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    # Half of the probes before the measuring process and half after it, so that
    # the samples do not all meet the host in one state.
    probes = setup_samples - 1
    setups = [run_child("probe", workload, seed, seconds, timeout=60)["setup_s"] for _ in range(probes // 2)]
    result = run_child("measure", workload, seed, seconds, timeout=150)
    setups.append(result["metrics"]["setup_s"][0])
    setups += [run_child("probe", workload, seed, seconds, timeout=60)["setup_s"] for _ in range(probes - probes // 2)]
    result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    result["notes"]["setup_samples_s"] = [round(value, 4) for value in setups]
    return result


def report(workload: str, result: dict) -> None:
    print(f"== {workload}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:34s} {value:14.4f} {unit}")
    print(f"{'windows_attempted':34s} {result['attempted']:14d} count")
    print(f"{'windows_failed':34s} {result['failed']:14d} count")
    for name, value in result["notes"].items():
        print(f"  # {name}: {value}")
    calibration = result["notes"]["calibration_ms"]
    if max(calibration) > 1.15 * min(calibration):
        print(f"  # WARNING: the host moved by {max(calibration) / min(calibration) - 1:.0%} under this run")


def contract_line(results: dict) -> str:
    """The closing JSON object; metric names carry the workload when there are several."""
    single = len(results) == 1
    return json.dumps(
        {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                (name if single else f"{workload}/{name}"): {"value": value, "unit": unit}
                for workload, result in results.items()
                for name, (value, unit) in result["metrics"].items()
            },
        }
    )


def run_set(workloads, seed: int, seconds: float, trace: bool, setup_samples: int) -> dict:
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, seed, seconds, trace, setup_samples)
        report(workload, results[workload])
    return results


def run_aa(pairs: int, workloads, seed: int, seconds: float) -> bool:
    """Run the same checkout 2 x PAIRS times, alternately labelled A and B, and compare medians."""
    sets = {"A": [], "B": []}
    for index in range(2 * pairs):
        label = "AB"[index % 2]
        print(f"#### set {index + 1} of {2 * pairs}, labelled {label}")
        sets[label].append(run_set(workloads, seed, seconds, False, SETUP_SAMPLES))
    agreed = True
    print(f"{'workload':16s} {'metric':26s} {'median A':>12s} {'median B':>12s} {'diff':>7s} {'bound':>6s}")
    for workload in workloads:
        for metric in SPEC["end_to_end"]:
            medians = [
                statistics.median(run[workload]["metrics"][metric["name"]][0] for run in sets[label]) for label in "AB"
            ]
            difference = abs(medians[1] - medians[0]) / medians[0]
            verdict = "" if difference <= metric["bound"] else "  EXCEEDS BOUND"
            agreed = agreed and not verdict
            print(
                f"{workload:16s} {metric['name']:26s} {medians[0]:12.4f} {medians[1]:12.4f} "
                f"{difference:7.1%} {metric['bound']:6.0%}{verdict}"
            )
    return agreed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all of them, one after the other")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]), help="scales both phases")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="every workload at 1/20 of its length")
    parser.add_argument("--aa", type=int, metavar="PAIRS", help="A/A check over 2 x PAIRS full sets")
    parser.add_argument("--json", metavar="OUT", help="also write the results to this file")
    parser.add_argument("--role", choices=("probe", "measure", "trace"), help=argparse.SUPPRESS)
    arguments = parser.parse_args()

    if arguments.role:
        scale = arguments.seconds / SPEC["run_seconds"]
        if arguments.role == "probe":
            result = probe_setup(arguments.workload, arguments.seed)
        elif arguments.role == "measure":
            result = measure(arguments.workload, arguments.seed, scale)
        else:
            result = measure_traced(arguments.workload, arguments.seed, scale)
        print(json.dumps(result))
        return 0

    workloads = [arguments.workload] if arguments.workload else WORKLOAD_NAMES
    seconds = SPEC["run_seconds"] * SMOKE_SCALE if arguments.smoke else arguments.seconds
    if arguments.aa:
        return 0 if run_aa(arguments.aa, workloads, arguments.seed, seconds) else 1
    results = run_set(workloads, arguments.seed, seconds, bool(arguments.trace), 1 if arguments.smoke else SETUP_SAMPLES)
    if arguments.json:
        Path(arguments.json).write_text(json.dumps(results, indent=1))
    print(contract_line(results))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
