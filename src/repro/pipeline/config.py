"""Pipeline configurations, including every named machine evaluated in the paper.

The defaults follow Table 1: an aggressive 8-wide fetch/rename/retire, 6-issue,
64-entry-IQ, 192-entry-ROB superscalar with a 15-cycle in-order front-end and a
3-cycle in-order back-end (19-cycle fetch-to-commit), a TAGE branch predictor, Store
Sets memory-dependence prediction and the Table 1 memory hierarchy.  Value prediction
adds the pre-commit LE/VT stage (fetch-to-commit becomes 20 cycles and the minimum value
misprediction penalty 21 cycles), exactly as described in Section 4.1.

Named configurations reproduce the paper's labels: ``Baseline_6_64``,
``Baseline_VP_6_64``, ``Baseline_VP_4_64``, ``Baseline_VP_6_48``, ``EOLE_6_64``,
``EOLE_4_64``, ``EOLE_6_48``, ``EOLE_4_64_4ports_4banks``, ``OLE_4_64`` and
``EOE_4_64``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from repro.core.eole import EOLEConfig, EOLEVariant, eole_config
from repro.errors import ConfigurationError
from repro.mem.hierarchy import MemoryHierarchyConfig
from repro.ooo.functional_units import FunctionalUnitConfig
from repro.vp.confidence import SCALED_FPC_VECTOR
from repro.vp.fcm import FCMPredictor
from repro.vp.hybrid import VTAGE2DStrideHybrid, default_paper_predictor
from repro.vp.last_value import LastValuePredictor
from repro.vp.stride import StridePredictor, TwoDeltaStridePredictor
from repro.vp.vtage import VTAGEPredictor

#: Registry of value-predictor factories selectable by name in a configuration.
#: Each factory takes ``(seed, fpc_vector)``.
PREDICTOR_FACTORIES = {
    "vtage-2dstride": lambda seed, vector: default_paper_predictor(seed=seed, fpc_vector=vector),
    "vtage": lambda seed, vector: VTAGEPredictor(seed=seed, fpc_vector=vector),
    "2dstride": lambda seed, vector: TwoDeltaStridePredictor(seed=seed, fpc_vector=vector),
    "stride": lambda seed, vector: StridePredictor(seed=seed, fpc_vector=vector),
    "lvp": lambda seed, vector: LastValuePredictor(seed=seed, fpc_vector=vector),
    "fcm": lambda seed, vector: FCMPredictor(seed=seed, fpc_vector=vector),
    "hybrid-small": lambda seed, vector: VTAGE2DStrideHybrid(
        vtage=VTAGEPredictor(
            base_entries=2048, tagged_entries=256, fpc_vector=vector, seed=seed ^ 0x1
        ),
        stride=TwoDeltaStridePredictor(entries=2048, fpc_vector=vector, seed=seed ^ 0x2),
        seed=seed,
    ),
}


@dataclass
class PipelineConfig:
    """Complete description of one simulated machine."""

    name: str = "Baseline_6_64"
    # Widths (all in µ-ops, as in the paper's gem5 setup).
    fetch_width: int = 8
    rename_width: int = 8
    commit_width: int = 8
    issue_width: int = 6
    max_taken_branches_per_cycle: int = 2
    # Window sizes.
    iq_size: int = 64
    rob_size: int = 192
    lq_size: int = 48
    sq_size: int = 48
    # Pipeline depths / latencies (cycles).
    fetch_to_dispatch_latency: int = 15
    dispatch_to_issue_latency: int = 1
    writeback_to_commit_latency: int = 2
    decode_redirect_penalty: int = 5
    branch_resolution_extra: int = 2
    # Value prediction.
    value_prediction: bool = False
    predictor_name: str = "vtage-2dstride"
    predictor_seed: int = 0xE01E
    fpc_vector: tuple[Fraction, ...] = SCALED_FPC_VECTOR
    # EOLE.
    eole: EOLEConfig = field(default_factory=EOLEConfig)
    # Physical register file.
    prf_banks: int = 1
    prf_registers: int = 512
    levt_read_ports_per_bank: int | None = None
    ee_write_ports_per_bank: int | None = None
    # Substrates.
    functional_units: FunctionalUnitConfig = field(default_factory=FunctionalUnitConfig)
    memory: MemoryHierarchyConfig = field(default_factory=MemoryHierarchyConfig)
    # Branch predictor sizing.
    tage_bimodal_entries: int = 8192
    tage_tagged_entries: int = 1024
    tage_components: int = 12
    btb_entries: int = 4096
    ras_entries: int = 32
    # Store sets.
    store_sets_ssit: int = 1024
    store_sets_lfst: int = 1024

    def __post_init__(self) -> None:
        if self.issue_width <= 0 or self.fetch_width <= 0 or self.commit_width <= 0:
            raise ConfigurationError("pipeline widths must be positive")
        if self.iq_size <= 0 or self.rob_size <= 0:
            raise ConfigurationError("window sizes must be positive")
        if self.eole.enabled and not self.value_prediction:
            raise ConfigurationError(
                "EOLE requires value prediction with validation at commit (Section 3.1)"
            )
        if self.predictor_name not in PREDICTOR_FACTORIES:
            raise ConfigurationError(f"unknown value predictor {self.predictor_name!r}")

    # ------------------------------------------------------------------ derived helpers
    @property
    def has_levt_stage(self) -> bool:
        """True when the pre-commit LE/VT stage exists (any VP-enabled machine)."""
        return self.value_prediction

    @property
    def frontend_capacity(self) -> int:
        """Maximum number of fetched-but-not-dispatched µ-ops the front-end can hold."""
        return self.fetch_to_dispatch_latency * self.fetch_width

    def make_predictor(self):
        """Instantiate the value predictor named by this configuration."""
        return PREDICTOR_FACTORIES[self.predictor_name](self.predictor_seed, self.fpc_vector)

    def derive(self, **overrides) -> "PipelineConfig":
        """Copy this configuration with ``overrides`` applied (dataclass replace)."""
        return replace(self, **overrides)


# ---------------------------------------------------------------------- named machines
def baseline_6_64() -> PipelineConfig:
    """The paper's ``Baseline_6_64``: 6-issue, 64-entry IQ, no value prediction."""
    return PipelineConfig(name="Baseline_6_64")


def baseline_vp_6_64() -> PipelineConfig:
    """``Baseline_VP_6_64``: the 6-issue baseline plus VTAGE-2DStride value prediction."""
    return PipelineConfig(name="Baseline_VP_6_64", value_prediction=True)


def baseline_vp_4_64() -> PipelineConfig:
    """``Baseline_VP_4_64``: value prediction with the issue width shrunk to 4."""
    return PipelineConfig(name="Baseline_VP_4_64", value_prediction=True, issue_width=4)


def baseline_vp_6_48() -> PipelineConfig:
    """``Baseline_VP_6_48``: value prediction with the IQ shrunk to 48 entries."""
    return PipelineConfig(name="Baseline_VP_6_48", value_prediction=True, iq_size=48)


def _eole(name: str, issue_width: int, iq_size: int, variant: EOLEVariant) -> PipelineConfig:
    return PipelineConfig(
        name=name,
        value_prediction=True,
        issue_width=issue_width,
        iq_size=iq_size,
        eole=eole_config(variant=variant),
    )


def eole_6_64() -> PipelineConfig:
    """``EOLE_6_64``: Early + Late Execution on top of the 6-issue VP baseline."""
    return _eole("EOLE_6_64", issue_width=6, iq_size=64, variant=EOLEVariant.EOLE)


def eole_4_64() -> PipelineConfig:
    """``EOLE_4_64``: EOLE with the OoO issue width reduced to 4."""
    return _eole("EOLE_4_64", issue_width=4, iq_size=64, variant=EOLEVariant.EOLE)


def eole_6_48() -> PipelineConfig:
    """``EOLE_6_48``: EOLE with the IQ reduced to 48 entries."""
    return _eole("EOLE_6_48", issue_width=6, iq_size=48, variant=EOLEVariant.EOLE)


def eole_4_48() -> PipelineConfig:
    """EOLE with both the issue width (4) and the IQ (48) reduced (Section 7 headline)."""
    return _eole("EOLE_4_48", issue_width=4, iq_size=48, variant=EOLEVariant.EOLE)


def eole_4_64_banked(
    banks: int = 4,
    levt_ports_per_bank: int | None = 4,
    ee_write_ports_per_bank: int | None = 2,
) -> PipelineConfig:
    """``EOLE_4_64`` with a banked PRF and limited LE/VT read ports (Figs. 10-12)."""
    config = eole_4_64()
    ports = "inf" if levt_ports_per_bank is None else str(levt_ports_per_bank)
    return config.derive(
        name=f"EOLE_4_64_{ports}ports_{banks}banks",
        prf_banks=banks,
        levt_read_ports_per_bank=levt_ports_per_bank,
        ee_write_ports_per_bank=ee_write_ports_per_bank,
    )


def eole_4_64_4ports_4banks() -> PipelineConfig:
    """The paper's recommended realistic design point (Fig. 12)."""
    return eole_4_64_banked(banks=4, levt_ports_per_bank=4, ee_write_ports_per_bank=2)


def ole_4_64() -> PipelineConfig:
    """``OLE_4_64``: Late Execution only (Fig. 13), 4-bank PRF with 4 LE/VT ports."""
    return _eole(
        "OLE_4_64", issue_width=4, iq_size=64, variant=EOLEVariant.OLE
    ).derive(prf_banks=4, levt_read_ports_per_bank=4, ee_write_ports_per_bank=2)


def eoe_4_64() -> PipelineConfig:
    """``EOE_4_64``: Early Execution only (Fig. 13), 4-bank PRF with 4 LE/VT ports."""
    return _eole(
        "EOE_4_64", issue_width=4, iq_size=64, variant=EOLEVariant.EOE
    ).derive(prf_banks=4, levt_read_ports_per_bank=4, ee_write_ports_per_bank=2)


def baseline_8_64() -> PipelineConfig:
    """An 8-issue machine (footnote 7: only marginal speedup over 6-issue)."""
    return PipelineConfig(name="Baseline_8_64", issue_width=8)


#: All named configurations, keyed by their paper label.
NAMED_CONFIGS = {
    "Baseline_6_64": baseline_6_64,
    "Baseline_8_64": baseline_8_64,
    "Baseline_VP_6_64": baseline_vp_6_64,
    "Baseline_VP_4_64": baseline_vp_4_64,
    "Baseline_VP_6_48": baseline_vp_6_48,
    "EOLE_6_64": eole_6_64,
    "EOLE_4_64": eole_4_64,
    "EOLE_6_48": eole_6_48,
    "EOLE_4_48": eole_4_48,
    "EOLE_4_64_4ports_4banks": eole_4_64_4ports_4banks,
    "OLE_4_64": ole_4_64,
    "EOE_4_64": eoe_4_64,
}


def named_config(name: str) -> PipelineConfig:
    """Instantiate a named configuration by its paper label."""
    if name not in NAMED_CONFIGS:
        raise ConfigurationError(f"unknown named configuration {name!r}")
    return NAMED_CONFIGS[name]()
