"""Unified metrics registry: counters and histograms under one namespace.

The simulator's statistics live in several places — :class:`SimStats` counters,
:class:`PredictorStatistics` on the value predictor, TAGE/BTB rates, per-cache and
DRAM statistics, structure peak occupancies.  This module folds them into one flat,
introspectable namespace (``sim.*``, ``vp.*``, ``bpu.*``, ``cache.*``, ``dram.*``,
``iq.*`` …) and adds *registered* metrics: histograms and counters that only exist
when ``REPRO_METRICS=1`` opts in (IQ occupancy, wake-up list depths, scheduler skip
distances, squash depths and causes).

The registry follows the repo's kill-switch discipline: with ``REPRO_METRICS``
unset, :func:`maybe_sim_metrics` returns None, every hook site is a single
``is not None`` check, and simulation results are byte-identical to before this
module existed.  When enabled, the drained payload rides in
``SimulationResult.extra["metrics"]`` and round-trips through the JSONL result
store like any other field.
"""

from __future__ import annotations

import os

#: Environment variable enabling registered metrics collection (default off).
METRICS_ENV_VAR = "REPRO_METRICS"


def metrics_enabled() -> bool:
    """True when ``REPRO_METRICS`` explicitly enables metrics collection."""
    return os.environ.get(METRICS_ENV_VAR, "0").lower() in ("1", "on", "true")


def maybe_sim_metrics() -> "MetricsRegistry | None":
    """A fresh registry when metrics are enabled, else None (the hot default)."""
    return MetricsRegistry() if metrics_enabled() else None


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """A named integer-valued histogram with exact or power-of-two buckets.

    ``power_of_two=True`` buckets each sample by its highest set bit (1, 2, 4, 8,
    …) — the right shape for long-tailed quantities such as scheduler skip
    distances and squash depths; exact buckets suit bounded ones (IQ occupancy).
    """

    __slots__ = ("name", "power_of_two", "buckets", "count", "total")

    def __init__(self, name: str, power_of_two: bool = False) -> None:
        self.name = name
        self.power_of_two = power_of_two
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0

    def record(self, value: int, weight: int = 1) -> None:
        if self.power_of_two and value > 1:
            key = 1 << (value.bit_length() - 1)
        else:
            key = value
        self.buckets[key] = self.buckets.get(key, 0) + weight
        self.count += weight
        self.total += value * weight

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.total / self.count if self.count else 0.0,
            "buckets": {str(key): self.buckets[key] for key in sorted(self.buckets)},
        }


class MetricsRegistry:
    """Create-or-return registry of named counters and histograms."""

    __slots__ = ("_counters", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str, power_of_two: bool = False) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, power_of_two)
        return histogram

    def to_dict(self) -> dict:
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "histograms": {
                name: self._histograms[name].to_dict() for name in sorted(self._histograms)
            },
        }


# ------------------------------------------------------------------ unified drain
def unified_metrics(sim) -> dict:
    """One flat scalar namespace over every statistics source of a simulator.

    Duck-typed on purpose (``sim`` is any object with ``stats``/``predictor``/
    ``bpu``/``hierarchy``/``iq``/``rob``/``lsq``) so this module never imports the
    pipeline package — the simulator imports *us*.
    """
    out: dict[str, float] = {}
    stats = sim.stats.to_dict()
    for name in sorted(stats):
        out[f"sim.{name}"] = stats[name]
    cycles = stats.get("cycles", 0)
    out["sim.ipc"] = stats.get("committed_uops", 0) / cycles if cycles else 0.0

    predictor = getattr(sim, "predictor", None)
    if predictor is not None:
        vp = predictor.stats
        out["vp.lookups"] = vp.lookups
        out["vp.confident_predictions"] = vp.confident_predictions
        out["vp.correct_used"] = vp.correct_used
        out["vp.incorrect_used"] = vp.incorrect_used
        out["vp.unused_correct"] = vp.unused_correct
        out["vp.coverage"] = vp.coverage
        out["vp.accuracy"] = vp.accuracy
        if vp.confident_predictions:
            out[f"vp.component.{predictor.name}"] = vp.confident_predictions

    bpu = getattr(sim, "bpu", None)
    if bpu is not None:
        out["bpu.tage.misprediction_rate"] = bpu.tage.misprediction_rate
        out["bpu.tage.high_confidence_misprediction_rate"] = (
            bpu.tage.high_confidence_misprediction_rate
        )
        out["bpu.btb.hit_rate"] = bpu.btb.hit_rate

    hierarchy = getattr(sim, "hierarchy", None)
    if hierarchy is not None:
        for level in ("l1i", "l1d", "l2"):
            cache = getattr(hierarchy, level)
            out[f"cache.{level}.accesses"] = cache.stats.accesses
            out[f"cache.{level}.hits"] = cache.stats.hits
            out[f"cache.{level}.misses"] = cache.stats.misses
            out[f"cache.{level}.hit_rate"] = cache.stats.hit_rate
        dram = hierarchy.dram.stats
        out["dram.reads"] = dram.reads
        out["dram.row_hits"] = dram.row_hits
        out["dram.row_conflicts"] = dram.row_conflicts
        out["dram.queueing_cycles"] = dram.queueing_cycles

    iq = getattr(sim, "iq", None)
    if iq is not None:
        out["iq.peak_occupancy"] = iq.peak_occupancy
    rob = getattr(sim, "rob", None)
    if rob is not None:
        out["rob.peak_occupancy"] = rob.peak_occupancy
    lsq = getattr(sim, "lsq", None)
    if lsq is not None:
        out["lsq.peak_lq_occupancy"] = lsq.peak_lq_occupancy
        out["lsq.peak_sq_occupancy"] = lsq.peak_sq_occupancy
    pool = getattr(sim, "pool", None)
    if pool is not None:
        # Structure occupancy of the in-flight record pool.
        out["pool.allocated"] = pool.allocated
        out["pool.free"] = pool.free_count
        out["pool.deferred"] = pool.deferred_count
    return out


def drain_simulator_metrics(sim) -> dict:
    """The full metrics payload for ``SimulationResult.extra["metrics"]``."""
    payload = {"scalars": unified_metrics(sim)}
    registry = getattr(sim, "metrics", None)
    if registry is not None:
        payload.update(registry.to_dict())
    return payload


def metrics_report(payload: dict) -> str:
    """A ``repro-report``-style text dump of a drained metrics payload."""
    lines: list[str] = []
    scalars = payload.get("scalars", {})
    if scalars:
        lines.append("scalars")
        width = max(len(name) for name in scalars)
        for name in sorted(scalars):
            value = scalars[name]
            rendered = f"{value:.6g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<{width}}  {rendered}")
    counters = payload.get("counters", {})
    if counters:
        lines.append("counters")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]}")
    histograms = payload.get("histograms", {})
    if histograms:
        lines.append("histograms")
        for name in sorted(histograms):
            hist = histograms[name]
            lines.append(
                f"  {name}  count={hist['count']} sum={hist['sum']} mean={hist['mean']:.3g}"
            )
            buckets = hist.get("buckets", {})
            for key in sorted(buckets, key=lambda k: int(k)):
                lines.append(f"    {key:>10}  {buckets[key]}")
    return "\n".join(lines)
