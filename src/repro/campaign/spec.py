"""Campaign specifications: (configuration × workload × run-length) grids.

A :class:`Campaign` names the full cartesian grid that one study needs — every figure
of the paper is such a grid — and expands it into :class:`CampaignCell`\\ s, the unit of
work of the executor (:mod:`repro.campaign.executor`) and the unit of persistence of
the result store (:mod:`repro.campaign.store`).

Workload selections follow the SPEC-harness convention of *named sets*
(:data:`WORKLOAD_SETS`): ``all`` (the 19-benchmark suite), ``int``/``fp`` (the Table 3
categories), ``subset`` (the fast representative six) and ``bench`` (the eight-workload
subset the benchmark harness defaults to).  Arbitrary comma-separated workload names
are accepted wherever a set name is.

Every cell carries a *fingerprint*: a SHA-256 digest over the complete configuration
dataclass, the workload name and the run lengths.  Two cells share a fingerprint iff
re-running one would reproduce the other, so the fingerprint is the result store's key —
changing any machine parameter (not just the configuration's display name) invalidates
the stored result automatically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import get_args, get_origin, get_type_hints

from repro.errors import ConfigurationError
from repro.pipeline.config import PipelineConfig, named_config
from repro.workloads.suite import FAST_SUBSET, SUITE_ORDER, all_workloads

#: The eight-workload subset exercised by the benchmark harness (``conftest.py``):
#: strong-VP, EE-friendly, IQ-hungry, offload-heavy, low-coverage and memory-bound
#: behaviours are all present.
BENCH_SUBSET: tuple[str, ...] = (
    "wupwise",
    "applu",
    "bzip2",
    "crafty",
    "hmmer",
    "namd",
    "gcc",
    "milc",
)


def _category_names(category: str) -> tuple[str, ...]:
    return tuple(wl.name for wl in all_workloads() if wl.spec.category == category)


#: SPEC-style named workload sets accepted by :func:`resolve_workload_names`.
WORKLOAD_SETS: dict[str, tuple[str, ...]] = {
    "all": SUITE_ORDER,
    "int": _category_names("INT"),
    "fp": _category_names("FP"),
    "subset": FAST_SUBSET,
    "bench": BENCH_SUBSET,
}


def resolve_workload_names(selector: str) -> tuple[str, ...]:
    """Expand ``selector`` — a named set or comma-separated workload names.

    ``"all"`` → the full suite; ``"int"``/``"fp"`` → Table 3 categories; ``"subset"``
    → :data:`~repro.workloads.suite.FAST_SUBSET`; ``"bench"`` → :data:`BENCH_SUBSET`;
    anything else is split on commas and validated against the suite.
    """
    selector = selector.strip()
    if selector.lower() in WORKLOAD_SETS:
        return WORKLOAD_SETS[selector.lower()]
    names = tuple(part.strip() for part in selector.split(",") if part.strip())
    if not names:
        raise ConfigurationError(f"empty workload selector {selector!r}")
    unknown = [name for name in names if name not in SUITE_ORDER]
    if unknown:
        raise ConfigurationError(
            f"unknown workloads {unknown}; known sets: {sorted(WORKLOAD_SETS)}, "
            f"known workloads: {list(SUITE_ORDER)}"
        )
    return names


def resolve_config_names(selector: str) -> tuple[str, ...]:
    """Split a comma-separated list of named configurations (validated lazily)."""
    names = tuple(part.strip() for part in selector.split(",") if part.strip())
    if not names:
        raise ConfigurationError(f"empty configuration selector {selector!r}")
    return names


def config_fingerprint_payload(config: PipelineConfig) -> str:
    """Canonical JSON of every field of ``config`` (enums stringified, keys sorted)."""
    return json.dumps(asdict(config), sort_keys=True, default=str)


def config_from_payload(payload: str) -> PipelineConfig:
    """Rebuild the configuration :func:`config_fingerprint_payload` encoded.

    The exact inverse: the rebuilt config compares equal to the original, so its
    cells hash to the same fingerprints.  Field annotations drive the decoding —
    nested dataclasses recurse, enums and ``Fraction``\\ s are rebuilt from their
    string form, lists become tuples.
    """
    return _decode(PipelineConfig, json.loads(payload))


def _decode(kind, value):
    if is_dataclass(kind):
        hints = get_type_hints(kind)
        return kind(**{f.name: _decode(hints[f.name], value[f.name]) for f in fields(kind)})
    if get_origin(kind) is tuple:
        return tuple(_decode(get_args(kind)[0], item) for item in value)
    if isinstance(value, str) and isinstance(kind, type) and issubclass(kind, (Enum, Fraction)):
        return kind(value)
    return value


def derive_seed(base_seed: int, config_name: str, workload_name: str) -> int:
    """A deterministic 31-bit per-cell seed mixed from the campaign seed and cell id."""
    payload = f"{base_seed}/{config_name}/{workload_name}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:4], "big") & 0x7FFFFFFF


@dataclass(frozen=True)
class CampaignCell:
    """One unit of work: simulate ``workload_name`` on ``config`` for the given window."""

    config: PipelineConfig
    workload_name: str
    max_uops: int
    warmup_uops: int

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 over the full configuration + workload + lengths (the store key)."""
        payload = json.dumps(
            {
                "config": json.loads(config_fingerprint_payload(self.config)),
                "workload": self.workload_name,
                "max_uops": self.max_uops,
                "warmup_uops": self.warmup_uops,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def describe(self) -> str:
        """Short human-readable cell id, e.g. ``EOLE_4_64/mcf``."""
        return f"{self.config.name}/{self.workload_name}"


@dataclass
class Campaign:
    """A (configurations × workloads) grid simulated at fixed run lengths.

    ``seed`` is optional: when ``None`` (the default) every cell runs with its
    configuration's own ``predictor_seed``, which makes campaign results bit-identical
    to the serial :func:`repro.analysis.runner.run_suite` path.  When set, each cell
    gets a deterministic per-run seed mixed from the campaign seed and the cell
    identity (:func:`derive_seed`), so seed-sensitivity studies shard reproducibly
    across any number of workers.
    """

    name: str
    configs: tuple[PipelineConfig, ...]
    workload_names: tuple[str, ...]
    max_uops: int
    warmup_uops: int
    seed: int | None = None
    _cells: list[CampaignCell] = field(default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.configs:
            raise ConfigurationError(f"campaign {self.name!r} has no configurations")
        if not self.workload_names:
            raise ConfigurationError(f"campaign {self.name!r} has no workloads")
        unknown = [name for name in self.workload_names if name not in SUITE_ORDER]
        if unknown:
            raise ConfigurationError(f"campaign {self.name!r}: unknown workloads {unknown}")
        config_names = [config.name for config in self.configs]
        if len(set(config_names)) != len(config_names):
            raise ConfigurationError(
                f"campaign {self.name!r}: duplicate configuration names {config_names}"
            )
        if len(set(self.workload_names)) != len(self.workload_names):
            raise ConfigurationError(
                f"campaign {self.name!r}: duplicate workloads {list(self.workload_names)}"
            )
        if self.max_uops <= self.warmup_uops:
            raise ConfigurationError(
                f"campaign {self.name!r}: max_uops ({self.max_uops}) must exceed "
                f"warmup_uops ({self.warmup_uops})"
            )

    @classmethod
    def from_names(
        cls,
        config_names: tuple[str, ...] | list[str] | str,
        workload_selector: str = "all",
        max_uops: int = 12000,
        warmup_uops: int = 3000,
        seed: int | None = None,
        name: str = "campaign",
    ) -> "Campaign":
        """Build a campaign from named configurations and a workload selector."""
        if isinstance(config_names, str):
            config_names = resolve_config_names(config_names)
        configs = tuple(named_config(cfg) for cfg in config_names)
        return cls(
            name=name,
            configs=configs,
            workload_names=resolve_workload_names(workload_selector)
            if isinstance(workload_selector, str)
            else tuple(workload_selector),
            max_uops=max_uops,
            warmup_uops=warmup_uops,
            seed=seed,
        )

    def _cell_config(self, config: PipelineConfig, workload_name: str) -> PipelineConfig:
        if self.seed is None:
            return config
        return config.derive(
            predictor_seed=derive_seed(self.seed, config.name, workload_name)
        )

    def to_spec_dict(self) -> dict:
        """A JSON-serialisable grid spec for the distributed coordinator.

        Each configuration travels as its canonical fingerprint payload
        (:func:`config_fingerprint_payload`), so any grid — named, derived or
        hand-built configurations alike — reaches the fleet and rebuilds into
        cells with identical fingerprints (:func:`config_from_payload`).  Seeded
        campaigns serialise the base configs plus the seed; every worker
        re-derives identical per-cell seeds (:func:`derive_seed`).
        """
        return {
            "name": self.name,
            "configs": [config_fingerprint_payload(config) for config in self.configs],
            "workloads": list(self.workload_names),
            "max_uops": self.max_uops,
            "warmup_uops": self.warmup_uops,
            "seed": self.seed,
        }

    @classmethod
    def from_spec_dict(cls, spec: dict) -> "Campaign":
        """Rebuild a grid submitted with :meth:`to_spec_dict` (the worker side)."""
        return cls(
            name=spec.get("name", "campaign"),
            configs=tuple(config_from_payload(payload) for payload in spec["configs"]),
            workload_names=tuple(spec["workloads"]),
            max_uops=spec["max_uops"],
            warmup_uops=spec["warmup_uops"],
            seed=spec.get("seed"),
        )

    def cells(self) -> list[CampaignCell]:
        """The expanded grid, row-major (configuration outer, workload inner)."""
        if self._cells is None:
            self._cells = [
                CampaignCell(
                    config=self._cell_config(config, workload_name),
                    workload_name=workload_name,
                    max_uops=self.max_uops,
                    warmup_uops=self.warmup_uops,
                )
                for config in self.configs
                for workload_name in self.workload_names
            ]
        return list(self._cells)

    def __len__(self) -> int:
        return len(self.configs) * len(self.workload_names)
