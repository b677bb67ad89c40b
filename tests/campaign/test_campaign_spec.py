"""Tests for campaign grid specs, named workload sets and cell fingerprints."""

import contextlib

import pytest

from repro.campaign.spec import (
    BENCH_SUBSET,
    WORKLOAD_SETS,
    Campaign,
    CampaignCell,
    config_fingerprint_payload,
    config_from_payload,
    derive_seed,
    resolve_workload_names,
)
from repro.errors import ConfigurationError
from repro.pipeline.config import NAMED_CONFIGS, PipelineConfig, baseline_6_64, baseline_vp_6_64
from repro.vp.confidence import PAPER_FPC_VECTOR
from repro.workloads.suite import FAST_SUBSET, SUITE_ORDER


def _experiment_configs(monkeypatch) -> list[PipelineConfig]:
    """Every configuration the experiment registry submits (its grids intercepted)."""
    import repro.analysis.experiments as experiments

    class Intercepted(Exception):
        pass

    captured: list[PipelineConfig] = []

    def intercept(configs, *args, **kwargs):
        captured.extend(configs)
        raise Intercepted

    monkeypatch.setattr(experiments, "run_grid", intercept)
    for build in experiments.EXPERIMENTS.values():
        with contextlib.suppress(Intercepted):
            build(workloads=[])
    return captured


class TestConfigPayload:
    """The fleet ships configurations as their canonical fingerprint payload."""

    def test_decode_inverts_encode_for_every_named_and_experiment_config(self, monkeypatch):
        experiment_configs = _experiment_configs(monkeypatch)
        assert {"EOLE_4_64_8banks", "EOLE_4_64_2P_4B", "EOLE_6_64_ee2"} <= {
            config.name for config in experiment_configs
        }
        custom = PipelineConfig(
            name="custom",
            value_prediction=True,
            predictor_name="hybrid-small",
            fpc_vector=PAPER_FPC_VECTOR,
        )
        configs = [build() for build in NAMED_CONFIGS.values()] + experiment_configs + [custom]
        for config in configs:
            payload = config_fingerprint_payload(config)
            decoded = config_from_payload(payload)
            assert decoded == config, config.name
            assert config_fingerprint_payload(decoded) == payload
            assert (
                CampaignCell(decoded, "gcc", 1000, 100).fingerprint
                == CampaignCell(config, "gcc", 1000, 100).fingerprint
            )


class TestWorkloadSets:
    def test_named_sets_resolve(self):
        assert resolve_workload_names("all") == SUITE_ORDER
        assert resolve_workload_names("subset") == FAST_SUBSET
        assert resolve_workload_names("bench") == BENCH_SUBSET

    def test_int_fp_partition_the_suite(self):
        assert sorted(WORKLOAD_SETS["int"] + WORKLOAD_SETS["fp"]) == sorted(SUITE_ORDER)
        assert len(WORKLOAD_SETS["int"]) == 12
        assert len(WORKLOAD_SETS["fp"]) == 7

    def test_comma_separated_names(self):
        assert resolve_workload_names("mcf, namd") == ("mcf", "namd")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workload_names("mcf,doom")

    def test_empty_selector_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workload_names(" , ")


class TestCampaign:
    def test_cells_cover_the_grid_row_major(self):
        campaign = Campaign(
            name="grid",
            configs=(baseline_6_64(), baseline_vp_6_64()),
            workload_names=("mcf", "namd"),
            max_uops=1000,
            warmup_uops=200,
        )
        assert len(campaign) == 4
        ids = [cell.describe() for cell in campaign.cells()]
        assert ids == [
            "Baseline_6_64/mcf",
            "Baseline_6_64/namd",
            "Baseline_VP_6_64/mcf",
            "Baseline_VP_6_64/namd",
        ]

    def test_from_names_builds_named_configs(self):
        campaign = Campaign.from_names(
            "Baseline_6_64,EOLE_4_64", "subset", max_uops=1000, warmup_uops=0
        )
        assert [config.name for config in campaign.configs] == ["Baseline_6_64", "EOLE_4_64"]
        assert campaign.workload_names == FAST_SUBSET

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Campaign(
                name="bad",
                configs=(baseline_6_64(), baseline_6_64()),
                workload_names=("mcf",),
                max_uops=1000,
                warmup_uops=0,
            )
        with pytest.raises(ConfigurationError):
            Campaign(
                name="bad",
                configs=(baseline_6_64(),),
                workload_names=("doom",),
                max_uops=1000,
                warmup_uops=0,
            )
        with pytest.raises(ConfigurationError):
            Campaign(
                name="bad",
                configs=(baseline_6_64(),),
                workload_names=("mcf",),
                max_uops=100,
                warmup_uops=100,
            )


class TestFingerprints:
    def test_fingerprint_is_stable(self):
        a = CampaignCell(baseline_6_64(), "mcf", 1000, 200)
        b = CampaignCell(baseline_6_64(), "mcf", 1000, 200)
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_varies_with_lengths_and_workload(self):
        base = CampaignCell(baseline_6_64(), "mcf", 1000, 200)
        assert base.fingerprint != CampaignCell(baseline_6_64(), "mcf", 2000, 200).fingerprint
        assert base.fingerprint != CampaignCell(baseline_6_64(), "namd", 1000, 200).fingerprint

    def test_fingerprint_sees_config_parameters_not_just_the_name(self):
        renamed = baseline_vp_6_64().derive(name="Baseline_6_64")
        a = CampaignCell(baseline_6_64(), "mcf", 1000, 200)
        b = CampaignCell(renamed, "mcf", 1000, 200)
        assert a.config.name == b.config.name  # same display name and lengths…
        assert a.fingerprint != b.fingerprint  # …but different machines


class TestSeeds:
    def test_no_campaign_seed_keeps_config_seeds(self):
        campaign = Campaign(
            name="grid",
            configs=(baseline_vp_6_64(),),
            workload_names=("mcf",),
            max_uops=1000,
            warmup_uops=0,
        )
        assert campaign.cells()[0].config.predictor_seed == baseline_vp_6_64().predictor_seed

    def test_campaign_seed_derives_distinct_deterministic_cell_seeds(self):
        campaign = Campaign(
            name="grid",
            configs=(baseline_vp_6_64(),),
            workload_names=("mcf", "namd"),
            max_uops=1000,
            warmup_uops=0,
            seed=7,
        )
        seeds = [cell.config.predictor_seed for cell in campaign.cells()]
        assert seeds[0] != seeds[1]
        assert seeds == [cell.config.predictor_seed for cell in campaign.cells()]
        assert seeds[0] == derive_seed(7, "Baseline_VP_6_64", "mcf")
