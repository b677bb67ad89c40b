"""Figure 2: proportion of committed µ-ops early-executable with 1 or 2 ALU stages.

Also serves as the Early-Execution-depth ablation (1/2/3 stages), since the paper's
conclusion — one stage captures nearly all the benefit — is a design decision DESIGN.md §4
calls out.
"""

from benchmarks.conftest import record_result
from repro.analysis.experiments import fig2_early_execution_share


def test_fig02_early_execution_share(benchmark, bench_workloads, bench_lengths):
    max_uops, warmup = bench_lengths

    def run():
        return fig2_early_execution_share(
            bench_workloads, max_uops, warmup, depths=(1, 2, 3)
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + record_result(result))

    one = result.series_by_label("1 ALU stage")
    two = result.series_by_label("2 ALU stages")
    three = result.series_by_label("3 ALU stages")
    for name in one.values:
        # Shares are valid proportions and grow (weakly) with depth.
        assert 0.0 <= one.values[name] <= 1.0
        assert one.values[name] - 1e-9 <= two.values[name] <= three.values[name] + 1e-9
    # Paper's conclusion: the second stage adds little over the first.
    assert two.summary("mean") - one.summary("mean") < 0.10
    # Early execution captures a visible fraction of committed µ-ops somewhere.
    assert max(one.values.values()) > 0.05
