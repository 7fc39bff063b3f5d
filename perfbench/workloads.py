"""The benchmark's request sets and the client that drives them.

Every request set is a pure function of the workload seed.  Rounds
replay the whole set; the run repeats rounds until it has measured for
``--seconds`` seconds.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from repro import (
    PartitionerConfig,
    PartitionRequest,
    PartitionService,
    RefinementConfig,
    SolverSettings,
    TemporalPartitioner,
)
from repro.arch.processor import ReconfigurableProcessor
from repro.core.formulation import FormulationOptions
from repro.taskgraph import ar_filter, dct_4x4
from repro.taskgraph.generators import (
    fork_join_graph,
    layered_graph,
    random_dag,
    series_parallel_graph,
)

WORKLOADS = ("paper_cases", "synthetic_small", "service_cold", "service_warm")

#: Table 1's device (R_max, M_max, C_T) and tolerance, and the variants
#: around it: every combination below is one AR-filter request.
AR_R_MAX = (300.0, 400.0, 500.0, 600.0)
AR_M_MAX = (32.0, 128.0)
AR_C_T = (20.0, 200.0)
AR_DELTA = (10.0, 50.0)

#: Tables 3-8: (R_max, C_T, delta, alpha); gamma = 1, M_max = 2048.
DCT_TUPLES = (
    (576.0, 30.0, 200.0, 0),
    (576.0, 10e6, 200.0, 0),
    (1024.0, 30.0, 800.0, 1),
    (1024.0, 10e6, 800.0, 0),
    (1024.0, 30.0, 100.0, 1),
    (1024.0, 10e6, 100.0, 0),
)
#: Runs into a 30 s window timeout today: its time would measure the
#: solver budget, not the code (see README.md).
DCT_OMITTED = (2, (576.0, 30.0, 200.0, 0))

#: The device and search parameters of the synthetic batch.
SYNTHETIC_DEVICE = (800.0, 2048.0, 100.0)    # R_max, M_max, C_T
SYNTHETIC_DELTA_FRACTION = 0.1
SYNTHETIC_COUNT = 100
SYNTHETIC_SIZES = (4, 5, 6)

SERVICE_WORKERS = 2


@dataclass(frozen=True)
class Case:
    """One request plus what the output checks need to know about it."""

    name: str
    request: PartitionRequest
    family: str               # "ar", "dct" or "synthetic"
    delta: float | None       # the request's explicit tolerance


def _device(r_max, m_max, c_t, name) -> ReconfigurableProcessor:
    return ReconfigurableProcessor(
        resource_capacity=r_max,
        memory_capacity=m_max,
        reconfiguration_time=c_t,
        name=name,
    )


def paper_cases(seed: int) -> list[Case]:
    """The AR filter under Table 1-style variants and the DCT under the
    Table 3-8 tuples, in a seeded order.

    The seed also jitters each AR device's ``C_T`` by up to 5%, so the
    designs (not the work) differ between seeds.
    """
    rng = random.Random(seed)
    cases: list[Case] = []
    ar = ar_filter()
    for r_max in AR_R_MAX:
        for m_max in AR_M_MAX:
            for c_t in AR_C_T:
                for delta in AR_DELTA:
                    c_t_seeded = round(c_t * rng.uniform(0.95, 1.05), 3)
                    name = f"ar_R{r_max:g}_M{m_max:g}_CT{c_t_seeded:g}_d{delta:g}"
                    config = PartitionerConfig(
                        search=RefinementConfig(alpha=0, gamma=1, delta=delta)
                    )
                    cases.append(Case(
                        name,
                        PartitionRequest(
                            graph=ar,
                            processor=_device(r_max, m_max, c_t_seeded, name),
                            config=config,
                        ),
                        "ar",
                        delta,
                    ))
    # The tables' own formulation: symmetry breaking over the DCT's
    # interchangeable tasks (it changes no latency).
    options = FormulationOptions(symmetry_breaking=True)
    for rows in (1, 2):
        graph = dct_4x4(rows=rows)
        for r_max, c_t, delta, alpha in DCT_TUPLES:
            if (rows, (r_max, c_t, delta, alpha)) == DCT_OMITTED:
                continue
            name = f"dct_rows{rows}_R{r_max:g}_CT{c_t:g}_d{delta:g}"
            config = PartitionerConfig(
                search=RefinementConfig(alpha=alpha, gamma=1, delta=delta),
                formulation=options,
            )
            cases.append(Case(
                name,
                PartitionRequest(
                    graph=graph,
                    processor=_device(r_max, 2048.0, c_t, name),
                    config=config,
                ),
                "dct",
                delta,
            ))
    rng.shuffle(cases)
    return cases


def _small_graph(family: int, size: int, rng: random.Random):
    """One 4-6 task graph; resampled until it has exactly ``size`` tasks
    (series-parallel graphs come in even sizes: 5 becomes 6)."""
    if family == 2:
        size += size % 2
    while True:
        seed = rng.randrange(1 << 30)
        if family == 0:
            graph = (
                layered_graph(2, size // 2, seed=seed)
                if size % 2 == 0
                else layered_graph(size, 1, seed=seed)
            )
        elif family == 1:
            graph = fork_join_graph(size - 2, 1, seed=seed)
        elif family == 2:
            graph = series_parallel_graph(2, seed=seed)
        else:
            graph = random_dag(size, seed=seed, edge_probability=0.4)
        if len(graph.task_names) == size:
            return graph


def synthetic_cases(seed: int, settings: SolverSettings | None = None):
    """``SYNTHETIC_COUNT`` seeded small graphs: layered, fork-join,
    series-parallel and random DAGs in turn, 4-6 tasks each."""
    rng = random.Random(seed)
    processor = _device(*SYNTHETIC_DEVICE, "synthetic_device")
    config = PartitionerConfig(
        search=RefinementConfig(delta_fraction=SYNTHETIC_DELTA_FRACTION),
        solver=settings or SolverSettings(),
    )
    cases = []
    for index in range(SYNTHETIC_COUNT):
        size = SYNTHETIC_SIZES[(index // 4) % len(SYNTHETIC_SIZES)]
        graph = _small_graph(index % 4, size, rng)
        cases.append(Case(
            graph.name,
            PartitionRequest(graph=graph, processor=processor, config=config),
            "synthetic",
            None,
        ))
    return cases


# -- rounds -----------------------------------------------------------------


@dataclass
class Result:
    """What one request returned, and how long it took."""

    case: Case
    seconds: float
    outcome: object = None
    error: str | None = None


def run_in_process(cases: list[Case], recorder) -> tuple[float, list[Result]]:
    """Closed loop, one client: the next request after the last answer.

    Returns the round's wall time (first submission to last outcome).
    """
    results = []
    start = time.perf_counter()
    for case in cases:
        if recorder.tracing:
            recorder.bind(None, case.name)
        began = time.perf_counter()
        try:
            partitioner = TemporalPartitioner(case.request.processor)
            outcome = partitioner.solve(case.request)
        except Exception as exc:  # noqa: BLE001 - a failed request
            results.append(Result(
                case, time.perf_counter() - began,
                error=f"{type(exc).__name__}: {exc}",
            ))
            continue
        results.append(Result(case, time.perf_counter() - began, outcome))
    return time.perf_counter() - start, results


def run_service(
    cases: list[Case], cache_path: Path, metrics=None
) -> tuple[float, list[Result]]:
    """The whole batch submitted at once to a fresh two-worker service.

    Each request's time runs from its submission to its outcome.
    """
    results: list[Result | None] = [None] * len(cases)
    with PartitionService(
        max_workers=SERVICE_WORKERS,
        cache_path=str(cache_path),
        metrics=metrics,
    ) as service:
        start = time.perf_counter()
        futures = []
        for index, case in enumerate(cases):
            future = service.submit(case.request)
            began = time.perf_counter()

            def done(fut, index=index, began=began):
                # Runs on the coordinator thread the moment the outcome
                # exists, so queueing behind other answers is not counted.
                seconds = time.perf_counter() - began
                exc = fut.exception()
                if exc is not None:
                    results[index] = Result(
                        cases[index], seconds,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                else:
                    results[index] = Result(cases[index], seconds, fut.result())

            future.add_done_callback(done)
            futures.append(future)
        for future in futures:
            future.exception()
        wall = time.perf_counter() - start
    return wall, results


def fresh_cache(directory: Path, name: str) -> Path:
    """An empty directory holding nothing but a future cache file."""
    target = directory / name
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    return target / "solves.sqlite"


def copy_cache(source: Path, directory: Path, name: str) -> Path:
    """A private copy of a filled cache (SQLite file and its sidecars)."""
    target = fresh_cache(directory, name)
    for sibling in source.parent.iterdir():
        if sibling.name.startswith(source.name):
            shutil.copy2(sibling, target.parent / sibling.name)
    return target
