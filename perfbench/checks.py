"""Output checks that share no code with the program under test.

Each design is recomputed from the graph data (tasks, design points,
edges, host I/O volumes) and the placement alone: precedence order,
area per partition against ``R_max``, live data at every partition
boundary against ``M_max``, design-point membership, and the total
latency ``sum(d_p) + eta * C_T`` with ``d_p`` the longest dependent
chain inside partition ``p`` and ``eta`` the highest partition used.
Nothing here calls the program's ``audit`` or ``total_latency``.
"""

from __future__ import annotations

import math

TOLERANCE = 1e-6


def _topological(names, edges) -> list[str]:
    indegree = {name: 0 for name in names}
    successors: dict[str, list[str]] = {name: [] for name in names}
    for src, dst, _volume in edges:
        indegree[dst] += 1
        successors[src].append(dst)
    ready = [name for name in names if indegree[name] == 0]
    order = []
    while ready:
        name = ready.pop()
        order.append(name)
        for nxt in successors[name]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return order


class GraphData:
    """The plain numbers of one task graph."""

    def __init__(self, graph) -> None:
        self.names = list(graph.task_names)
        self.points = {
            name: [
                (dp.area, dp.latency, dp.name)
                for dp in graph.task(name).design_points
            ]
            for name in self.names
        }
        self.edges = [(s, d, float(v)) for s, d, v in graph.edges]
        self.env_in = dict(graph.env_inputs)
        self.env_out = dict(graph.env_outputs)
        self.order = _topological(self.names, self.edges)
        self.preds = {name: [] for name in self.names}
        for src, dst, _volume in self.edges:
            self.preds[dst].append(src)

    def latency(self, part: dict, lat: dict, c_t: float) -> float:
        """``sum(d_p) + eta * C_T`` for a placement."""
        finish: dict[str, float] = {}
        longest: dict[int, float] = {}
        for name in self.order:
            p = part[name]
            arrival = max(
                (finish[q] for q in self.preds[name] if part[q] == p),
                default=0.0,
            )
            finish[name] = arrival + lat[name]
            longest[p] = max(longest.get(p, 0.0), finish[name])
        return sum(longest.values()) + max(part.values()) * c_t

    def memory(self, part: dict, boundary: int) -> float:
        """Live data while ``boundary`` is resident (host I/O included)."""
        total = sum(
            v for s, d, v in self.edges if part[s] < boundary <= part[d]
        )
        total += sum(v for n, v in self.env_in.items() if part[n] >= boundary)
        total += sum(v for n, v in self.env_out.items() if part[n] < boundary)
        return total

    def critical_path_fastest(self) -> float:
        finish: dict[str, float] = {}
        for name in self.order:
            finish[name] = max(
                (finish[q] for q in self.preds[name]), default=0.0
            ) + min(lat for _a, lat, _n in self.points[name])
        return max(finish.values())

    def min_area(self) -> float:
        return sum(min(a for a, _l, _n in pts) for pts in self.points.values())


def check_design(data: GraphData, outcome, processor) -> list[str]:
    """Recompute one design; returns what is wrong with it."""
    r_max = processor.resource_capacity
    m_max = processor.memory_capacity
    c_t = processor.reconfiguration_time
    design = outcome.design
    placed = design.placements
    if set(placed) != set(data.names):
        return ["placement does not cover exactly the graph's tasks"]
    errors = []
    part = {name: placed[name].partition for name in data.names}
    lat = {}
    area = {}
    for name in data.names:
        dp = placed[name].design_point
        if (dp.area, dp.latency, dp.name) not in data.points[name]:
            errors.append(f"{name}: design point not one of the task's")
        lat[name] = dp.latency
        area[part[name]] = area.get(part[name], 0.0) + dp.area
        if part[name] < 1:
            errors.append(f"{name}: partition {part[name]} < 1")
    for src, dst, _volume in data.edges:
        if part[src] > part[dst]:
            errors.append(f"edge {src}->{dst} runs backwards")
    for p, used in area.items():
        if used > r_max + TOLERANCE:
            errors.append(f"partition {p}: area {used:g} > R_max {r_max:g}")
    for boundary in range(1, max(part.values()) + 1):
        live = data.memory(part, boundary)
        if live > m_max + TOLERANCE:
            errors.append(f"boundary {boundary}: {live:g} > M_max {m_max:g}")
    latency = data.latency(part, lat, c_t)
    reported = outcome.total_latency
    if not math.isclose(latency, reported, rel_tol=1e-9, abs_tol=TOLERANCE):
        errors.append(f"reported latency {reported} != recomputed {latency}")
    floor = (
        data.critical_path_fastest()
        + math.ceil(data.min_area() / r_max - 1e-9) * c_t
    )
    if latency < floor - TOLERANCE:
        errors.append(f"latency {latency} below the lower bound {floor}")
    return errors


def exhaustive_optimum(data: GraphData, processor, max_partitions: int):
    """Least total latency over every placement into ``1..max_partitions``
    partitions and every design-point choice (``None`` if none fits)."""
    r_max = processor.resource_capacity
    m_max = processor.memory_capacity
    c_t = processor.reconfiguration_time
    best = math.inf
    part: dict[str, int] = {}
    lat: dict[str, float] = {}
    area = [0.0] * (max_partitions + 1)

    def place(index: int) -> None:
        nonlocal best
        if index == len(data.order):
            eta = max(part.values())
            if any(
                data.memory(part, b) > m_max + TOLERANCE
                for b in range(1, eta + 1)
            ):
                return
            best = min(best, data.latency(part, lat, c_t))
            return
        name = data.order[index]
        first = max((part[q] for q in data.preds[name]), default=1)
        for p in range(first, max_partitions + 1):
            for a, latency, _label in data.points[name]:
                if area[p] + a > r_max + TOLERANCE:
                    continue
                area[p] += a
                part[name] = p
                lat[name] = latency
                place(index + 1)
                area[p] -= a
        part.pop(name, None)
        lat.pop(name, None)

    place(0)
    return None if math.isinf(best) else best


def signature(outcome) -> tuple:
    """Latency and placement: what a warm replay should reproduce."""
    placements = tuple(sorted(
        (name, pl.partition, pl.design_point.name)
        for name, pl in outcome.design.placements.items()
    ))
    return (outcome.total_latency, placements)


def compare_warm(warm, cold) -> tuple[list[str], bool]:
    """Compare a warm replay with the cold outcome that filled its cache.

    Returns ``(errors, differs)``.  A latency outside the cold run's
    ``delta`` band is an error.  A different design inside the band is
    only reported (``differs``): which shards run depends on worker
    timing, so two sharded runs of one request can end on different
    designs within ``delta`` of each other (see CHANGES.md, FOUND).
    """
    if cold.outcome is None or cold.outcome.design is None:
        return ["the cold pass returned no design"], False
    gap = abs(warm.outcome.total_latency - cold.outcome.total_latency)
    if gap > cold.outcome.delta + TOLERANCE:
        return [
            f"warm latency {warm.outcome.total_latency} is more than "
            f"delta={cold.outcome.delta:g} from the cold "
            f"{cold.outcome.total_latency}"
        ], True
    return [], signature(warm.outcome) != signature(cold.outcome)


def window_kinds(outcome) -> str:
    """One letter per window question: sat, proven empty, or timeout.

    A window a pre-solve bound pruned counts as proven empty; a window
    the greedy fallback answered after every backend ran out of budget
    counts as a timeout.
    """
    kinds = []
    for record in outcome.trace:
        if record.degraded:
            kinds.append("T")
        elif record.achieved is not None:
            kinds.append("S")
        else:
            kinds.append("E")
    return "".join(kinds)


class Checker:
    """Checks each result; caches graph data and exhaustive optima."""

    def __init__(self) -> None:
        self._data: dict[int, GraphData] = {}
        self._optima: dict[tuple, float | None] = {}

    def data(self, graph) -> GraphData:
        key = id(graph)
        if key not in self._data:
            self._data[key] = GraphData(graph)
        return self._data[key]

    def check(self, result) -> list[str]:
        if result.error is not None:
            return [result.error]
        outcome = result.outcome
        if outcome.design is None:
            return ["no design"]
        if outcome.degraded:
            return ["degraded outcome"]
        request = result.case.request
        data = self.data(request.graph)
        errors = check_design(data, outcome, request.processor)
        if result.case.family == "ar" and not errors:
            processor = request.processor
            stop = outcome.partition_range.stop
            key = (
                processor.resource_capacity,
                processor.memory_capacity,
                processor.reconfiguration_time,
                stop,
            )
            if key not in self._optima:
                self._optima[key] = exhaustive_optimum(data, processor, stop)
            optimum = self._optima[key]
            latency = outcome.total_latency
            if optimum is None or latency < optimum - TOLERANCE:
                errors.append(f"latency {latency} beats the enumeration")
            elif latency > optimum + result.case.delta + TOLERANCE:
                errors.append(
                    f"latency {latency} more than delta="
                    f"{result.case.delta:g} above the optimum {optimum}"
                )
        return errors
