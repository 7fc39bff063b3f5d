"""Layer-by-layer benchmark of the temporal partitioner.

Run from the repository root::

    python3 perfbench/run.py --workload paper_cases --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that reports the per-layer
metrics and writes the spans, the run record and the per-request
verdict signature to ``perfbench/out/``.  ``--inject-delay
LAYER=SECONDS`` is for sensitivity checks only (see README.md).  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh processes timed from start to ready, per run (set-up time).
SETUP_REPEATS = 3
#: Samples the tail percentile must leave beyond it, per round.
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "design_latency_ns": "ns",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="import the program, build the inputs and exit (set-up timing)",
    )
    parser.add_argument(
        "--inject-delay", action="append", default=[],
        metavar="LAYER=SECONDS",
        help="sleep inside one layer's wrapper (sensitivity checks only)",
    )
    return parser.parse_args(argv)


def import_program():
    """Import the package from this checkout's ``src`` or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child's peak.

    Linux reports ``ru_maxrss`` in KiB; for children it is the peak of
    the largest single descendant (a pool worker or the manager).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(requests_per_round: int) -> int:
    """The highest whole percentile leaving ``TAIL_BEYOND`` samples of
    one round beyond it."""
    return math.floor(100 * (1 - TAIL_BEYOND / requests_per_round))


def setup_probe(args) -> float:
    """Seconds from a fresh process's start until its inputs are ready."""
    began = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-probe"],
        check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - began


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()

    import workloads
    from checks import Checker, compare_warm, window_kinds
    from layers import DELAY_LAYERS, Recorder, install, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    delays = {}
    for item in args.inject_delay:
        layer, _, seconds = item.partition("=")
        if layer not in DELAY_LAYERS:
            sys.exit(f"perfbench: no delay point in layer {layer!r}; "
                     f"known: {', '.join(DELAY_LAYERS)}")
        delays[layer] = float(seconds)

    service = args.workload.startswith("service")
    if args.workload == "paper_cases":
        cases = workloads.paper_cases(args.seed)
    else:
        settings = workloads.SolverSettings.fast() if service else None
        cases = workloads.synthetic_cases(args.seed, settings)
    if args.setup_probe:
        return 0
    imported = time.perf_counter() - STARTED

    OUT.mkdir(exist_ok=True)
    recorder = Recorder(bool(args.trace), OUT, delays)
    for stale in OUT.glob("worker-*.jsonl"):
        stale.unlink()
    if args.trace or delays:
        install(recorder)
    setup_s = 0.0

    registry = None
    if args.trace and service:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    cache_dir = OUT / "cache"
    filled = None
    if args.workload == "service_warm":
        # Set-up fills the disk cache with one cold pass of the batch;
        # every warm replay is compared with its outcomes.
        recorder.tracing = False
        began = time.perf_counter()
        base = workloads.fresh_cache(cache_dir, "filled")
        _wall, filled = workloads.run_service(cases, base)
        setup_s += time.perf_counter() - began
        recorder.tracing = bool(args.trace)

    checker = Checker()
    walls, seconds, latencies, problems, warm_differs = [], [], [], [], []
    attempted = failed = 0
    correct = True
    rounds = 0
    measured = 0.0
    cpu = 0.0
    last_results = []
    while rounds == 0 or measured < args.seconds:
        if args.workload == "service_cold":
            path = workloads.fresh_cache(cache_dir, "cold")
        elif args.workload == "service_warm":
            path = workloads.copy_cache(base, cache_dir, "warm")
        cpu_before = cpu_seconds()
        if service:
            wall, results = workloads.run_service(cases, path, registry)
        else:
            wall, results = workloads.run_in_process(cases, recorder)
        cpu += cpu_seconds() - cpu_before
        rounds += 1
        measured += wall
        walls.append(wall)
        # Checks run outside the timed region.
        for index, result in enumerate(results):
            attempted += 1
            errors = checker.check(result)
            if not errors and filled is not None:
                errors, differs = compare_warm(result, filled[index])
                if differs:
                    warm_differs.append(result.case.name)
            if errors:
                failed += 1
                if result.error is None and result.outcome is not None \
                        and result.outcome.design is not None:
                    correct = False
                problems.append(f"{result.case.name}: {'; '.join(errors)}")
                continue
            seconds.append(result.seconds)
            latencies.append(result.outcome.total_latency)
        last_results = results

    for line in problems[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    # Read before the set-up probes run: their peaks would count as the
    # largest child's.
    peak_rss = peak_rss_mb()
    setup_s += statistics.median(
        setup_probe(args) for _ in range(SETUP_REPEATS)
    )

    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "request_p50_s": statistics.median(seconds) if seconds else 0.0,
        "request_tail_s": (
            nearest_rank(seconds, tail_percentile(len(cases)))
            if seconds else 0.0
        ),
        "design_latency_ns": (
            math.exp(statistics.fmean(math.log(v) for v in latencies))
            if latencies else 0.0
        ),
        "peak_rss_mb": peak_rss,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inject_delay": delays,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "scipy": __import__("scipy").__version__,
        "nproc": os.cpu_count(),
        "ready_s": imported,
        "requests_per_round": len(cases),
        "rounds": rounds,
        "round_walls_s": walls,
        "tail_percentile": tail_percentile(len(cases)),
        "end_to_end": e2e,
        "failures": problems,
        "warm_differs_from_cold": warm_differs,
    }
    if args.trace:
        spans = recorder.local_spans() + recorder.collect_workers()
        metrics = per_layer(layer_metrics(spans), registry, cpu, rounds)
        record["per_layer"] = metrics
        tag = f"{args.workload}-seed{args.seed}"
        with (OUT / f"spans-{tag}.jsonl").open("w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        verdicts = [
            {
                "request": r.case.name,
                "latency": None if r.outcome is None
                else r.outcome.total_latency,
                "partitions": None if r.outcome is None
                else r.outcome.num_partitions,
                "windows": None if r.outcome is None
                else window_kinds(r.outcome),
            }
            for r in sorted(last_results, key=lambda r: r.case.name)
        ]
        (OUT / f"signature-{tag}.json").write_text(
            json.dumps(verdicts, indent=1) + "\n", encoding="utf-8"
        )
        (OUT / f"record-{tag}-trace.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8"
        )
        reported = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in metrics.items()
        }
    else:
        (OUT / f"record-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8"
        )
        reported = {
            name: {"value": value, "unit": E2E_UNITS[name]}
            for name, value in e2e.items()
        }
    emit({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    })
    return 0


def per_layer(metrics: dict, registry, cpu: float, rounds: int) -> dict:
    """Per-layer metrics, per round (the hit ratio is a ratio)."""
    queue_wait = request = 0.0
    if registry is not None:
        snapshot = registry.snapshot()
        queue_wait = snapshot.histogram_stats(
            "repro_service_queue_wait_seconds")[1]
        request = snapshot.histogram_stats(
            "repro_service_request_seconds")[1]
    metrics["service.queue_wait_s"] = queue_wait
    metrics["service.request_s"] = request
    metrics["process.cpu_s"] = cpu
    return {
        name: value if name.endswith("_ratio") else value / rounds
        for name, value in sorted(metrics.items())
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def emit(payload: dict) -> None:
    """Write the result line to the real standard output."""
    sys.stdout.flush()
    os.dup2(REAL_STDOUT, 1)
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    # The program and HiGHS may print to standard output; route all of
    # it to standard error so the result stays the last stdout line.
    REAL_STDOUT = os.dup(1)
    os.dup2(2, 1)
    sys.exit(main())
