"""Simulation statistics and results.

:class:`SimStats` is a flat record of event counters filled in by the simulator.
Measurement windows (warm-up vs. region of interest, Section 4.3) are implemented by
snapshotting the counters when warm-up ends and reporting the difference.
:class:`SimulationResult` packages the windowed statistics together with the derived
metrics used by the experiments (IPC, Early/Late-Execution shares, predictor coverage).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace


@dataclass(slots=True)
class SimStats:
    """Raw event counters of one simulation (slotted: the simulator increments these
    counters millions of times per run)."""

    cycles: int = 0
    fetched_uops: int = 0
    committed_uops: int = 0
    committed_branches: int = 0
    committed_cond_branches: int = 0
    committed_loads: int = 0
    committed_stores: int = 0
    committed_vp_eligible: int = 0
    # EOLE offload.
    early_executed: int = 0
    late_executed_alu: int = 0
    late_resolved_branches: int = 0
    dispatched_to_iq: int = 0
    # Value prediction.
    predictions_used: int = 0
    value_mispredictions: int = 0
    flag_only_mispredictions: int = 0
    # Branch prediction.
    branch_mispredictions: int = 0
    high_confidence_branch_mispredictions: int = 0
    decode_redirects: int = 0
    # Memory.
    memory_order_violations: int = 0
    forwarded_loads: int = 0
    # Recovery.
    pipeline_squashes: int = 0
    squashed_uops: int = 0
    # Dispatch stalls (counted in stall-causing µ-op slots).
    rob_full_stalls: int = 0
    iq_full_stalls: int = 0
    lsq_full_stalls: int = 0
    prf_bank_stalls: int = 0
    ee_write_port_stalls: int = 0
    levt_port_stalls: int = 0
    late_alu_stalls: int = 0

    def copy(self) -> "SimStats":
        """Shallow copy (all fields are ints)."""
        return replace(self)

    def to_dict(self) -> dict:
        """Field name → counter value (JSON-safe)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        """Rebuild from :meth:`to_dict` output; unknown keys are ignored (forward compat)."""
        known = {f.name for f in fields(cls)}
        return cls(**{name: value for name, value in data.items() if name in known})

    def delta(self, earlier: "SimStats") -> "SimStats":
        """Counter-wise difference ``self - earlier`` (measurement window extraction)."""
        values = {
            f.name: getattr(self, f.name) - getattr(earlier, f.name) for f in fields(self)
        }
        return SimStats(**values)

    @property
    def ipc(self) -> float:
        """Committed µ-ops per cycle."""
        return self.committed_uops / self.cycles if self.cycles else 0.0

    @property
    def early_executed_ratio(self) -> float:
        """Fraction of committed µ-ops that were early-executed (Fig. 2)."""
        return self.early_executed / self.committed_uops if self.committed_uops else 0.0

    @property
    def late_executed_ratio(self) -> float:
        """Fraction of committed µ-ops late-executed or late-resolved (Fig. 4)."""
        late = self.late_executed_alu + self.late_resolved_branches
        return late / self.committed_uops if self.committed_uops else 0.0

    @property
    def offload_ratio(self) -> float:
        """Fraction of committed µ-ops that bypassed the OoO engine (Section 3.4)."""
        return self.early_executed_ratio + self.late_executed_ratio

    @property
    def prediction_used_ratio(self) -> float:
        """Fraction of committed µ-ops whose result was taken from the value predictor."""
        return self.predictions_used / self.committed_uops if self.committed_uops else 0.0


@dataclass
class SimulationResult:
    """Everything a study needs to know about one simulation run."""

    config_name: str
    workload_name: str
    stats: SimStats
    full_stats: SimStats
    warmup_uops: int = 0
    predictor_coverage: float = 0.0
    predictor_accuracy: float = 0.0
    tage_misprediction_rate: float = 0.0
    tage_high_confidence_misprediction_rate: float = 0.0
    l1d_miss_rate: float = 0.0
    l2_miss_rate: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """IPC over the measurement window."""
        return self.stats.ipc

    def to_dict(self) -> dict:
        """JSON-safe dict form, so results survive pickling boundaries and sessions.

        Used by the campaign subsystem to ship results from worker processes and to
        persist them in the on-disk result store; :meth:`from_dict` inverts it exactly.
        """
        return {
            "config_name": self.config_name,
            "workload_name": self.workload_name,
            "stats": self.stats.to_dict(),
            "full_stats": self.full_stats.to_dict(),
            "warmup_uops": self.warmup_uops,
            "predictor_coverage": self.predictor_coverage,
            "predictor_accuracy": self.predictor_accuracy,
            "tage_misprediction_rate": self.tage_misprediction_rate,
            "tage_high_confidence_misprediction_rate": (
                self.tage_high_confidence_misprediction_rate
            ),
            "l1d_miss_rate": self.l1d_miss_rate,
            "l2_miss_rate": self.l2_miss_rate,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            config_name=data["config_name"],
            workload_name=data["workload_name"],
            stats=SimStats.from_dict(data["stats"]),
            full_stats=SimStats.from_dict(data["full_stats"]),
            warmup_uops=data.get("warmup_uops", 0),
            predictor_coverage=data.get("predictor_coverage", 0.0),
            predictor_accuracy=data.get("predictor_accuracy", 0.0),
            tage_misprediction_rate=data.get("tage_misprediction_rate", 0.0),
            tage_high_confidence_misprediction_rate=data.get(
                "tage_high_confidence_misprediction_rate", 0.0
            ),
            l1d_miss_rate=data.get("l1d_miss_rate", 0.0),
            l2_miss_rate=data.get("l2_miss_rate", 0.0),
            extra=dict(data.get("extra", {})),
        )

    def summary(self) -> str:
        """One-line human readable summary."""
        return (
            f"{self.workload_name:>14s} @ {self.config_name:<24s} "
            f"IPC={self.ipc:5.3f}  offload={self.stats.offload_ratio:5.1%}  "
            f"EE={self.stats.early_executed_ratio:5.1%}  LE={self.stats.late_executed_ratio:5.1%}  "
            f"VP-used={self.stats.prediction_used_ratio:5.1%}"
        )
