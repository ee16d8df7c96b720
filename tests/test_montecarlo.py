"""Sampled traces against the analytic covariance engine."""

import numpy as np
import pytest

from cvgec.channel import ChannelModel, NoiseSource, standard_two_channel
from cvgec.montecarlo import (
    STAGES,
    TraceRecord,
    sample_run,
    write_trace_csv,
)
from cvgec.protocol import optimal_splitting_for

from montecarlo_oracle import analytic_stage_moments, empirical_covariance, sample_by_hand
from trace_reference import write_trace_csv_per_cell


def config(eps_snu, g_ratio=1.0, eta=1.0, xi=0.0):
    """The flags' two-channel model and its noise-cancelling splitter pair."""
    model = standard_two_channel(eps_snu, g_ratio, eta, xi)
    return model, optimal_splitting_for(model)


def by_stage(records):
    return {(r.stage, r.quadrature): r for r in records}


class TestSampleRun:
    def test_deterministic_in_seed(self):
        cfg = config(10.0)
        a = sample_run(*cfg, 500, seed=7)
        b = sample_run(*cfg, 500, seed=7)
        for ra, rb in zip(a, b):
            assert ra.stage == rb.stage and ra.quadrature == rb.quadrature
            assert np.array_equal(ra.samples, rb.samples)
        c = sample_run(*cfg, 500, seed=8)
        assert not np.array_equal(a[0].samples, c[0].samples)

    def test_negative_modulation_period_rejected(self):
        with pytest.raises(ValueError, match="modulation_period"):
            sample_run(*config(5.0), 10, seed=1, modulation_period=-5)

    def test_all_stages_present(self):
        records = sample_run(*config(5.0), 10, seed=1)
        assert {r.stage for r in records} == set(STAGES)
        assert {r.quadrature for r in records} == {"X", "P"}
        assert all(r.samples.size == 10 for r in records)

    def test_vacuum_only_variances(self):
        n = 100_000
        records = by_stage(sample_run(*config(0.0), n, seed=2, amplitude=(0.0, 0.0)))
        se = 0.5 * np.sqrt(2.0 / (n - 1))
        for stage in ("input", "corrected"):
            var = records[(stage, "X")].samples.var(ddof=1)
            assert abs(var - 0.5) < 5 * se

    def test_noisy_channel_stage_variances(self):
        # eps = 25 SNU symmetric: channel variance 0.5 + 12.5, corrected 0.5
        n = 100_000
        records = by_stage(sample_run(*config(25.0), n, seed=3))
        ch = records[("channel_1", "X")].samples.var(ddof=1)
        assert abs(ch - 13.0) < 5 * 13.0 * np.sqrt(2.0 / (n - 1))
        corr = records[("corrected", "P")].samples.var(ddof=1)
        assert abs(corr - 0.5) < 5 * 0.5 * np.sqrt(2.0 / (n - 1))
        disc = records[("discarded", "X")].samples.var(ddof=1)
        assert disc > 20.0

    def test_classical_scaling_is_quadratic(self):
        # doubling the source standard deviation quadruples its variance share
        n = 200_000
        var1 = by_stage(sample_run(*config(10.0), n, seed=4))[("channel_1", "X")]
        var2 = by_stage(sample_run(*config(40.0), n, seed=4))[("channel_1", "X")]
        classical1 = var1.samples.var(ddof=1) - 0.5
        classical2 = var2.samples.var(ddof=1) - 0.5
        ratio = classical2 / classical1
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            sample_run(*config(1.0), 0, seed=1)


class TestAgainstHandRelations:
    """The trace samples the engine's maps; the oracle writes the protocol
    out as amplitude relations on the same streams, so they agree sample by
    sample, to rounding."""

    THERMAL = ChannelModel(2, [0.9, 0.75], 0.3, (NoiseSource([1.3, -0.7], 4.0),), 0.05)
    CASES = {
        "xi 0": (standard_two_channel(25.0, 0.7, 0.8, 0.0), {}),
        "xi 0.1": (standard_two_channel(12.0, 1.6, 0.9, 0.1), {}),
        "thermal, unequal eta, anti-correlated": (THERMAL, {"amplitude": (0.5, -1.0)}),
        "modulated": (
            standard_two_channel(8.0, 0.3, 0.95, 0.02),
            {"amplitude": (-3.0, 1.5), "modulation_period": 7},
        ),
        # the benchmark's xi = 0 trace of seed 1
        "benchmark": (
            standard_two_channel(20.694530016629518, 0.8091019395781757, 0.7679996517568769),
            {"amplitude": (-1.337859739841209, 1.9314756497900323)},
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_every_record_matches_per_sample(self, case):
        model, kwargs = self.CASES[case]
        pair = optimal_splitting_for(model)
        records = sample_run(model, pair, 2000, 14368707, **kwargs)
        expected = sample_by_hand(model, pair, 2000, 14368707, **kwargs)
        assert [(r.stage, r.quadrature) for r in records] == list(expected)
        for r in records:
            want = expected[r.stage, r.quadrature]
            scale = np.max(np.abs(want))
            assert np.max(np.abs(r.samples - want)) <= 1e-14 * scale, (r.stage, r.quadrature)

    def test_input_records_are_the_first_streams_plus_the_mean(self):
        model, _ = self.CASES["xi 0"]
        records = sample_run(model, optimal_splitting_for(model), 50, 3, amplitude=(1.5, -2.0))
        for k, (r, a) in enumerate(zip(records[:2], (1.5, -2.0))):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((3, k))))
            assert np.array_equal(r.samples, a + rng.normal(0.0, np.sqrt(0.5), 50))


@pytest.mark.parametrize("samples", [np.ones((2, 3)), np.float64(1.0), [[1.0]]])
def test_trace_record_refuses_samples_that_are_not_a_vector(samples):
    with pytest.raises(ValueError, match="^trace samples must be one-dimensional$"):
        TraceRecord("input", "X", samples)


class TestEmpiricalCovariance:
    def test_constant_samples(self):
        rec = TraceRecord("input", "X", np.ones(50))
        cov, se = empirical_covariance([rec])
        assert cov[0, 0] == 0.0

    def test_insufficient_samples(self):
        with pytest.raises(ValueError):
            empirical_covariance([TraceRecord("input", "X", np.ones(1))])

    def test_unequal_lengths(self):
        records = [TraceRecord("input", q, np.ones(n)) for q, n in (("X", 5), ("P", 6))]
        with pytest.raises(ValueError, match="^records must all have the same number of samples$"):
            empirical_covariance(records)

    def test_vacuum_diagonal(self):
        n = 100_000
        records = sample_run(*config(0.0), n, seed=6, amplitude=(0.0, 0.0))
        cov, se = empirical_covariance(records)
        assert np.all(np.abs(np.diag(cov) - 0.5) < 5 * np.diag(se))

    def test_matches_analytic_engine(self):
        rng = np.random.default_rng(44)
        n = 100_000
        for _ in range(5):
            eps = rng.uniform(0.0, 40.0)
            ratio = rng.uniform(0.3, 2.0)
            eta = rng.uniform(0.5, 1.0)
            xi = rng.choice([0.0, 0.02, 0.1])
            cfg = config(eps, ratio, eta, xi)
            amp = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            records = by_stage(sample_run(*cfg, n, seed=rng.integers(1 << 30), amplitude=amp))
            predicted = analytic_stage_moments(*cfg, amp)
            for stage in STAGES:
                pair = [records[(stage, "X")], records[(stage, "P")]]
                cov, se = empirical_covariance(pair)
                mean_pred, cov_pred = predicted[stage]
                assert np.all(np.abs(cov - cov_pred) <= 5 * se + 1e-12)
            joint = [
                records[("corrected", "X")],
                records[("corrected", "P")],
                records[("discarded", "X")],
                records[("discarded", "P")],
            ]
            cov, se = empirical_covariance(joint)
            _, cov_pred = predicted["corrected+discarded"]
            assert np.all(np.abs(cov - cov_pred) <= 5 * se + 1e-12)


class TestTraceCsv:
    def test_format(self, tmp_path):
        import io

        records = sample_run(*config(1.0), 3, seed=9)
        buf = io.StringIO()
        write_trace_csv(records, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "stage,quadrature,index,value"
        assert len(lines) == 1 + 10 * 3
        stage, quad, idx, value = lines[1].split(",")
        assert stage == "input" and quad == "X" and idx == "0"
        float(value)

    @pytest.mark.parametrize(
        "n, kwargs",
        [
            (1, {}),
            (2, {}),
            (3, {}),
            (1000, {}),
            (1000, {"modulation_period": 37}),
            (1000, {"amplitude": (0.0, 0.0)}),
            (1000, {"amplitude": (-3.0, 1.5), "modulation_period": 5}),
        ],
    )
    def test_bytes_match_per_cell_reference(self, n, kwargs):
        import io

        records = sample_run(*config(12.0, g_ratio=0.7, eta=0.8, xi=0.02), n, seed=21, **kwargs)
        new, ref = io.StringIO(), io.StringIO()
        write_trace_csv(records, new)
        write_trace_csv_per_cell(records, ref)
        assert new.getvalue() == ref.getvalue()

    def test_bytes_match_per_cell_reference_on_edge_values(self):
        import io

        values = [-0.0, 5e-324, 1e-300, 1e300, 0.1, -1.0 / 3.0, 2.0**53 + 2.0]
        records = [
            TraceRecord("input", "X", values),
            TraceRecord("100%", "%d", values[::-1]),
            TraceRecord("corrected", "P", values[:1]),
        ]
        new, ref = io.StringIO(), io.StringIO()
        write_trace_csv(records, new)
        write_trace_csv_per_cell(records, ref)
        assert new.getvalue() == ref.getvalue()
        assert "input,X,0,-0\n" in new.getvalue()

