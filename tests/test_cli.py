"""Command-line interface: outputs, manifests, exit codes, atomicity."""

import hashlib
import json
import pathlib
import re

import numpy as np
import pytest

from cvgec.cli import main
from cvgec.patterns import mirror

from network_oracle import read_plan
from splitting_oracle import pi_flip


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def trace_stage(path, stage, quadrature):
    """The samples of one (stage, quadrature) record of a trace CSV."""
    import csv

    with open(path) as fh:
        rows = csv.DictReader(fh)
        key = (stage, quadrature)
        return np.array([float(r["value"]) for r in rows if (r["stage"], r["quadrature"]) == key])


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    columns = {name: np.array([float(row[k]) for row in rows]) for k, name in enumerate(header)}
    return header, columns


class TestSweepCoherent:
    def test_reference_run(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        code = main(
            [
                "sweep-coherent", "--g-ratio", "0.61", "--eta", "1", "--xi", "0.01",
                "--eps-max", "40", "--eps-steps", "41", "--out", str(out),
            ]
        )
        assert code == 0
        header, cols = read_csv(out)
        assert len(cols["eps_snu"]) == 41
        assert header[0] == "eps_snu"
        manifest = json.loads((tmp_path / "fig3.csv.manifest.json").read_text())
        assert manifest["command"] == "sweep-coherent"
        assert manifest["parameters"]["g_ratio"] == 0.61
        assert "noise_axis" in manifest["conventions"]
        assert manifest["outputs"] == ["fig3.csv", "fig3.csv.aux.csv"]
        assert "uncorrected_channel_2" not in manifest["extras"]["metadata"]

    def test_sidecar_holds_the_aux_series(self, tmp_path):
        from cvgec.analysis import AUX_COLUMNS, coherent_sweep
        from test_analysis import unit_model

        out = tmp_path / "s.csv"
        argv = ["sweep-coherent", "--g-ratio", "0.7", "--eta", "0.9", "--xi", "0.02"]
        assert main(argv + ["--eps-steps", "6", "--out", str(out)]) == 0
        header, cols = read_csv(tmp_path / "s.csv.aux.csv")
        assert tuple(header) == AUX_COLUMNS
        res = coherent_sweep(unit_model(0.7, 0.9, 0.02), (2.0, 0.0), np.linspace(0, 40, 6))
        assert list(cols["eps_snu"]) == list(np.linspace(0, 40, 6))
        for name in AUX_COLUMNS[1:]:
            assert list(cols[name]) == list(res.series[name])

    @pytest.mark.filterwarnings("error")
    def test_top_of_finite_range_keeps_manifest_valid_json(self, tmp_path):
        out = tmp_path / "top.csv"
        argv = ["sweep-coherent", "--eps-max", "1.7e308", "--eps-steps", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        manifest = strict_json((tmp_path / "top.csv.manifest.json").read_text())
        # the sweep runs the default flags' model at 1 SNU of channel-1 noise
        assert manifest["extras"]["metadata"]["channel"] == [
            "n_channels 2",
            "eta 1 1",
            "thermal 0 0",
            "mismatch 0",
            "source correlated 0.81967213114754101 0.78102496759066542 1",
        ]
        header, cols = read_csv(out)
        assert all(np.all(np.isfinite(cols[name])) for name in header if "insep" not in name)
        _, aux = read_csv(tmp_path / "top.csv.aux.csv")
        # channel 2 carries eps / 0.61, beyond the double range
        assert aux["var_x_uncorr2_snu"][1] == np.inf
        assert 0.0 <= aux["fid_uncorr2"][1] < 1e-300

    @pytest.mark.filterwarnings("error")
    def test_infinite_channel_2_variance_has_fidelity_zero(self, tmp_path):
        out = tmp_path / "far.csv"
        argv = ["sweep-coherent", "--eps-max", "1e300", "--eps-steps", "3", "--g-ratio", "1e-10"]
        assert main(argv + ["--out", str(out)]) == 0
        header, cols = read_csv(out)
        assert all(np.all(np.isfinite(cols[name])) for name in header if "insep" not in name)
        _, aux = read_csv(tmp_path / "far.csv.aux.csv")
        # channel 2 carries eps / 1e-10, beyond the double range at eps > 0
        assert list(aux["var_x_uncorr2_snu"]) == [1.0, np.inf, np.inf]
        assert list(aux["fid_uncorr2"]) == [1.0, 0.0, 0.0]

    @pytest.mark.filterwarnings("error")
    def test_corrected_variance_beyond_the_float_range_is_refused(self, tmp_path, capsys):
        # the mismatch leaves 2 xi eps / (1 + g) SNU on the corrected mode
        argv = ["sweep-coherent", "--eps-max", "1.7e308", "--xi", "0.9", "--g-ratio", "1e-10"]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: the corrected variance in SNU is beyond the float range\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_large_finite_noise_gives_finite_fidelities(self, tmp_path):
        out = tmp_path / "loud.csv"
        argv = ["sweep-coherent", "--eps-max", "1e200", "--eps-steps", "3", "--xi", "0.01"]
        assert main(argv + ["--out", str(out)]) == 0
        _, cols = read_csv(out)
        for name in ("fid_corr", "fid_uncorr", "fid_incoh"):
            assert np.all((cols[name] >= 0.0) & (cols[name] <= 1.0))
            assert np.all(cols[name][1:] < 1e-190)
        # exact pin of the protected-mode encoder's bytes; the transmissivity
        # splitters wrote 1 here
        assert cols["fid_corr"][0] == 0.99999999999999978

    def test_zero_steps_is_usage_error(self, tmp_path, capsys):
        code = main(["sweep-coherent", "--eps-steps", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "eps-steps" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_ideal_channel_keeps_unit_fidelity(self, tmp_path):
        out = tmp_path / "ideal.csv"
        assert main(["sweep-coherent", "--xi", "0", "--eta", "1", "--out", str(out)]) == 0
        _, cols = read_csv(out)
        assert np.allclose(cols["fid_corr"], 1.0, atol=1e-10)

    def test_pinned_bytes(self, tmp_path):
        out = tmp_path / "c.csv"
        argv = ["sweep-coherent", "--g-ratio", "0.61", "--eta", "0.9", "--xi", "0"]
        argv += ["--amplitude", "1.5", "-0.5", "--eps-steps", "21", "--out", str(out)]
        assert main(argv) == 0
        assert sha256(out) == "b4afb2550f2c14d3b77f7d2f7cd01ff89bf18a4a3c57afaac0290a3b5d4079f2"
        aux = tmp_path / "c.csv.aux.csv"
        assert sha256(aux) == "32161712532690a5e36c79567b9a1c3ec71a0e21b7cfba03ea2aab0cca894d27"

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep-coherent", "--eps-steps", "11", "--out"]
        assert main(argv + [str(a)]) == 0
        assert main(argv + [str(b)]) == 0
        assert sha256(a) == sha256(b)

    def test_channel_config_round_trip(self, tmp_path):
        dump = tmp_path / "channel.cfg"
        out1 = tmp_path / "one.csv"
        assert main(
            [
                "sweep-coherent", "--g-ratio", "0.8", "--xi", "0.02",
                "--eps-steps", "5", "--out", str(out1), "--dump-config", str(dump),
            ]
        ) == 0
        # reloading the dumped config and dumping again is byte-stable
        dump2 = tmp_path / "channel2.cfg"
        out2 = tmp_path / "two.csv"
        assert main(
            [
                "sweep-coherent", "--channel-config", str(dump),
                "--eps-steps", "5", "--out", str(out2), "--dump-config", str(dump2),
            ]
        ) == 0
        assert sha256(dump) == sha256(dump2)
        _, cols1 = read_csv(out1)
        _, cols2 = read_csv(out2)
        for name in cols1:
            assert np.allclose(cols1[name], cols2[name], rtol=1e-12, atol=1e-12, equal_nan=True)


    def test_non_finite_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "nan.csv"
        with pytest.raises(SystemExit) as err:
            main(["sweep-coherent", "--eps-max", "nan", "--eps-steps", "3", "--out", str(out)])
        assert err.value.code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestChannelConfigInSweeps:
    """The sweeps run a loaded config as written, its source variance scaled
    so that the noise axis is channel 1's excess noise in SNU."""

    UNEQUAL_ETA_THERMAL = "n_channels 2\neta 0.9 0.5\nthermal 0.3 0.3\nmismatch 0\nsource s 0.5 1 1\n"

    def test_unequal_eta_and_thermal_config_accepted(self, tmp_path):
        import csv

        cfg = tmp_path / "channel.cfg"
        cfg.write_text(self.UNEQUAL_ETA_THERMAL)
        out = tmp_path / "out.csv"
        argv = ["sweep-coherent", "--channel-config", str(cfg), "--eps-steps", "5"]
        assert main(argv + ["--out", str(out)]) == 0
        _, cols = read_csv(out)
        # the signal port mixes the two channels' loss and thermal noise with
        # weights T and 1 - T; the correlated noise cancels at every eps
        t, eta1, eta2, n1, n2 = 0.5, 0.9, 0.5, 0.3, 0.3
        expected = 0.5 * (t * eta1 + (1 - t) * eta2)
        expected += t * (1 - eta1) * (0.5 + n1) + (1 - t) * (1 - eta2) * (0.5 + n2)
        for q in ("x", "p"):
            natural = 0.5 * cols[f"var_{q}_corr_snu"]
            assert np.ptp(natural) < 1e-12
            assert np.all(np.abs(natural - expected) < 1e-12)
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["extras"]["metadata"]["channel"][1:3] == [
            "eta 0.90000000000000002 0.5",
            "thermal 0.29999999999999999 0.29999999999999999",
        ]
        # the sampled corrected stage of trace, on the same config, agrees
        n = 20_000
        trace = tmp_path / "t.csv"
        argv = ["trace", "--channel-config", str(cfg), "--n", str(n), "--seed", "5"]
        assert main(argv + ["--out", str(trace)]) == 0
        with open(trace) as fh:
            samples = [
                float(row["value"]) for row in csv.DictReader(fh)
                if row["stage"] == "corrected" and row["quadrature"] == "X"
            ]
        se = expected * np.sqrt(2.0 / (n - 1))
        assert abs(np.var(samples, ddof=1) - expected) < 5 * se

    def test_entangle_accepts_the_config(self, tmp_path, capsys):
        cfg = tmp_path / "channel.cfg"
        cfg.write_text(self.UNEQUAL_ETA_THERMAL)
        out = tmp_path / "out.csv"
        argv = ["sweep-entangle", "--channel-config", str(cfg), "--eps-steps", "5"]
        assert main(argv + ["--out", str(out)]) == 0
        assert "uncorrected breaking point" in capsys.readouterr().out
        _, cols = read_csv(out)
        assert np.ptp(cols["insep_corr"]) < 1e-12

    THREE_CHANNELS = "n_channels 3\nsource s 5 1 1 1\n"
    QUIET_CHANNEL_2 = "n_channels 2\nsource s 5 1 0\n"
    ANTI_CORRELATED = "n_channels 2\neta 0.8 0.8\nsource s 1 1 -0.7\n"

    @pytest.mark.parametrize(
        "command, text, code",
        [
            *(
                (command, text, code)
                for command in ("sweep-coherent", "sweep-entangle")
                for text, code in (
                    # no channel-1 noise to scale the axis by
                    ("n_channels 2\nsource s 5 0 1\n", 2),
                    ("n_channels 2\nsource s 0 1 1\n", 2),
                    # the couplings span both channels: no protected mode
                    ("n_channels 2\nsource a 5 1 1\nsource b 5 1 -1\n", 3),
                )
            ),
            # the incoherent baseline needs two channels and a noisy channel 2
            ("sweep-coherent", THREE_CHANNELS, 2),
            ("sweep-coherent", QUIET_CHANNEL_2, 2),
        ],
    )
    def test_config_without_a_noise_axis_refused(self, tmp_path, capsys, command, text, code):
        cfg = tmp_path / "channel.cfg"
        cfg.write_text(text)
        out, dump = tmp_path / "out.csv", tmp_path / "dump.cfg"
        argv = [command, "--channel-config", str(cfg), "--eps-steps", "3"]
        assert main(argv + ["--out", str(out), "--dump-config", str(dump)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["channel.cfg"]

    @pytest.mark.parametrize("text", [THREE_CHANNELS, QUIET_CHANNEL_2])
    def test_entangle_sweeps_a_config_with_a_protected_mode(self, tmp_path, capsys, text):
        from cvgec.channel import excess_noise_snu, parse_channel_config
        from cvgec.protocol import n_channel_protocol
        from cvgec.states import as_snu
        from cvgec.transforms import two_mode_squeezed
        from state_oracle import duan_simon

        cfg = tmp_path / "channel.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        argv = ["sweep-entangle", "--channel-config", str(cfg), "--r", "0.5", "--eps-steps", "3"]
        assert main(argv + ["--out", str(out)]) == 0
        _, cols = read_csv(out)
        model = parse_channel_config(text)
        (source,) = model.sources
        unit = source.variance / excess_noise_snu(model, 0)
        for k, eps in enumerate(cols["eps_snu"]):
            pair = n_channel_protocol(
                [source.coupling], 1.0, eps * unit, two_mode_squeezed(0.5), signal_mode=1
            )
            assert cols["var_x_corr_snu"][k] == pytest.approx(as_snu(pair.cov[2, 2]), rel=1e-12)
            assert cols["var_p_corr_snu"][k] == pytest.approx(as_snu(pair.cov[3, 3]), rel=1e-12)
            assert cols["insep_corr"][k] == pytest.approx(duan_simon(pair, (0, 1)), rel=1e-12)
        assert cols["insep_uncorr"][-1] > 2.0

    def test_anti_correlated_couplings_give_pure_loss(self, tmp_path, capsys):
        from cvgec.states import displace, vacuum_state
        from state_oracle import fidelity

        cfg = tmp_path / "channel.cfg"
        cfg.write_text(self.ANTI_CORRELATED)
        coherent, entangle = tmp_path / "c.csv", tmp_path / "e.csv"
        argv = ["--channel-config", str(cfg), "--eps-max", "50", "--eps-steps", "6"]
        assert main(["sweep-coherent", *argv, "--out", str(coherent)]) == 0
        assert main(["sweep-entangle", *argv, "--r", "0.5", "--out", str(entangle)]) == 0
        eta, r = 0.8, 0.5
        # pure loss keeps a coherent state coherent, its amplitude times sqrt(eta)
        probe = displace(vacuum_state(1), 0, 2.0, 0.0)
        fid = fidelity(displace(vacuum_state(1), 0, 2.0 * np.sqrt(eta), 0.0), probe)
        _, cols = read_csv(coherent)
        assert np.allclose(cols["var_x_corr_snu"], 1.0, rtol=1e-12, atol=0)
        assert np.allclose(cols["var_p_corr_snu"], 1.0, rtol=1e-12, atol=0)
        assert np.allclose(cols["fid_corr"], fid, rtol=1e-12, atol=0)
        assert cols["var_x_uncorr_snu"][-1] == pytest.approx(51.0, rel=1e-12)
        # the transmitted half of a two-mode squeezed vacuum through pure loss
        c, sh = np.cosh(2 * r), np.sinh(2 * r)
        _, cols = read_csv(entangle)
        var = eta * c + 1.0 - eta
        insep = (1.0 + eta) * c + 1.0 - eta - 2.0 * np.sqrt(eta) * sh
        assert np.allclose(cols["var_x_corr_snu"], var, rtol=1e-12, atol=0)
        assert np.allclose(cols["var_p_corr_snu"], var, rtol=1e-12, atol=0)
        assert np.allclose(cols["insep_corr"], insep, rtol=1e-12, atol=0)

    def test_trace_cancels_anti_correlated_couplings(self, tmp_path):
        # the splitter pair carries the couplings' relative sign as s < 0, so
        # the sampled corrected stage is pure loss: mean sqrt(eta) times the
        # amplitude and the vacuum variance
        cfg = tmp_path / "channel.cfg"
        cfg.write_text("n_channels 2\neta 0.8 0.8\nsource s 1000 1 -0.7\n")
        out, n = tmp_path / "t.csv", 20_000
        argv = ["trace", "--channel-config", str(cfg), "--n", str(n), "--seed", "4"]
        assert main(argv + ["--out", str(out)]) == 0
        se = 0.5 * np.sqrt(2.0 / (n - 1))
        for q, mean in (("X", 2.0 * np.sqrt(0.8)), ("P", 0.0)):
            samples = trace_stage(out, "corrected", q)
            assert abs(np.var(samples, ddof=1) - 0.5) < 5 * se
            assert abs(samples.mean() - mean) < 5 * np.sqrt(0.5 / n)
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        pair = [0.7 / np.hypot(1.0, 0.7), -1.0 / np.hypot(1.0, 0.7)]
        assert manifest["extras"]["splitting"] == pytest.approx(pair, rel=1e-15)

    @pytest.mark.parametrize("command", ["sweep-coherent", "sweep-entangle", "trace"])
    @pytest.mark.parametrize(
        "line, text",
        [
            ("eta 0.9 0.9 0.9", "eta has 3 values; need 1 or n_channels = 2"),
            ("thermal", "thermal has 0 values; need 1 or n_channels = 2"),
        ],
    )
    def test_per_channel_count_refused(self, tmp_path, capsys, command, line, text):
        cfg = tmp_path / "channel.cfg"
        cfg.write_text(f"n_channels 2\n{line}\nsource s 5 1 1\n")
        out = tmp_path / "out.csv"
        assert main([command, "--channel-config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {text}\n"
        assert not out.exists()

    def test_representable_config_accepted(self, tmp_path):
        cfg = tmp_path / "channel.cfg"
        cfg.write_text("n_channels 2\neta 0.9 0.9\nthermal 0 0\nsource s 5 1 1\n")
        out = tmp_path / "out.csv"
        assert main(["sweep-coherent", "--channel-config", str(cfg), "--eps-steps", "3",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_trace_keeps_full_config(self, tmp_path):
        cfg = tmp_path / "channel.cfg"
        cfg.write_text(self.UNEQUAL_ETA_THERMAL)
        out, dump = tmp_path / "t.csv", tmp_path / "dump.cfg"
        assert main(["trace", "--channel-config", str(cfg), "--n", "20000", "--seed", "5",
                     "--out", str(out), "--dump-config", str(dump)]) == 0
        text = dump.read_text()
        assert "eta 0.90000000000000002 0.5\n" in text
        assert "thermal 0.29999999999999999 0.29999999999999999\n" in text
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        assert manifest["extras"]["channel"] == text.splitlines()
        # channel 2 carries eta 0.5 and thermal 0.3: its x variance is
        # 0.5 * 0.5 + 0.5 * (0.5 + 0.3) + 0.5 = 1.15, not the 1.0 of eta 0.9
        # without thermal noise
        import csv

        with open(out) as fh:
            samples = [
                float(row["value"]) for row in csv.DictReader(fh)
                if row["stage"] == "channel_2" and row["quadrature"] == "X"
            ]
        assert np.var(samples, ddof=1) == pytest.approx(1.15, rel=0.05)


class TestCorrectedSweepAtExtremeAsymmetry:
    """The sweeps encode into the protected mode read off the couplings, so
    no transmissivity 1 - T rounds away the weak channel's noise."""

    @pytest.mark.parametrize("g_ratio", ["1e-300", "1e-12", "1e-4", "1e4", "1e12", "1e300"])
    @pytest.mark.parametrize("command", ["sweep-coherent", "sweep-entangle"])
    def test_ideal_channel_stays_vacuum(self, tmp_path, capsys, command, g_ratio):
        out = tmp_path / "out.csv"
        argv = [command, "--g-ratio", g_ratio, "--eta", "1", "--xi", "0"]
        argv += ["--eps-max", "1e6", "--eps-steps", "2", "--out", str(out)]
        if command == "sweep-entangle":
            argv += ["--r", "0"]
        assert main(argv) == 0
        _, cols = read_csv(out)
        for q in ("x", "p"):
            assert np.all(np.abs(cols[f"var_{q}_corr_snu"] - 1.0) < 1e-9)
        assert cols["var_x_uncorr_snu"][-1] == pytest.approx(1e6 + 1.0, rel=1e-12)


class TestPureLossAtLargeNoise:
    """At no mismatch the corrected channel is pure loss whatever the noise:
    large but accepted noise levels write the noiseless values, exit 0."""

    @pytest.mark.parametrize("g_ratio", ["0.61", "0.05"])
    def test_coherent_variance_is_the_vacuum(self, tmp_path, capsys, g_ratio):
        out = tmp_path / "c.csv"
        argv = ["sweep-coherent", "--g-ratio", g_ratio, "--eps-max", "1e12", "--eps-steps", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        _, cols = read_csv(out)
        for q in ("x", "p"):
            assert np.all(np.abs(cols[f"var_{q}_corr_snu"] - 1.0) <= 1e-15)
            assert cols[f"var_{q}_corr_snu"][1] == cols[f"var_{q}_corr_snu"][0]

    @pytest.mark.parametrize("g_ratio", ["0.05", "0.3", "0.61", "1", "2.7", "17"])
    def test_inseparability_is_the_noiseless_one(self, tmp_path, capsys, g_ratio):
        out = tmp_path / "e.csv"
        argv = ["sweep-entangle", "--r", "1", "--eta", "0.8", "--g-ratio", g_ratio]
        argv += ["--eps-max", "1e16", "--eps-steps", "2", "--out", str(out)]
        assert main(argv) == 0
        _, cols = read_csv(out)
        insep = cols["insep_corr"]
        assert insep[1] >= insep[0]
        assert insep == pytest.approx(0.48402711047170011, rel=1e-15, abs=0.0)
        if g_ratio == "2.7":
            assert insep.tolist() == [0.48402711047170011] * 2

    def test_optimized_variance_adds_no_noise(self, capsys):
        argv = ["optimize", "--g1", "1e-12", "--g2", "1", "--eps", "1e6"]
        assert main(argv + ["--objective", "variance"]) == 0
        assert abs(json.loads(capsys.readouterr().out)["objective_value"]) <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_fidelity_at_the_top_of_the_noise_range_is_one(self, capsys):
        argv = ["optimize", "--g1", "1", "--g2", "1", "--eps", "1e308", "--objective", "fidelity"]
        assert main(argv) == 0
        assert strict_json(capsys.readouterr().out)["objective_value"] == -1.0


class TestSweepEntangle:
    def test_reference_run(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        code = main(
            ["sweep-entangle", "--r", "0.5", "--xi", "0", "--eta", "1", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "breaking point" in printed
        _, cols = read_csv(out)
        assert np.allclose(cols["insep_corr"], 2 * np.exp(-1.0), atol=1e-10)
        manifest = json.loads((tmp_path / "fig4.csv.manifest.json").read_text())
        assert manifest["extras"]["uncorrected_breaking_point_snu"] == pytest.approx(
            2.0, abs=1e-4
        )

    def test_pinned_bytes(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        argv = ["sweep-entangle", "--r", "0.7", "--g-ratio", "0.8", "--eta", "0.85"]
        argv += ["--xi", "0.02", "--eps-steps", "21", "--out", str(out)]
        assert main(argv) == 0
        assert sha256(out) == "64162120deb41c293e453a8ddd9e05c1e597866c4e2d07e36f51a8b261423d15"
        printed = capsys.readouterr().out
        assert printed == "uncorrected breaking point: 1.7000000000000002 SNU\n"
        manifest = json.loads((tmp_path / "e.csv.manifest.json").read_text())
        assert manifest["extras"]["uncorrected_breaking_point_snu"] == 1.7000000000000002
        assert "uncorrected_breaking_point_snu" not in manifest["extras"]["metadata"]
        assert manifest["extras"]["metadata"]["channel"][3] == "mismatch 0.02"

    def test_vacuum_input_on_boundary(self, tmp_path):
        out = tmp_path / "r0.csv"
        assert main(["sweep-entangle", "--r", "0", "--eps-steps", "5", "--out", str(out)]) == 0
        _, cols = read_csv(out)
        assert np.allclose(cols["insep_corr"], 2.0, atol=1e-10)

    def test_mismatch_strictly_increasing(self, tmp_path):
        out = tmp_path / "xi.csv"
        assert main(["sweep-entangle", "--xi", "0.01", "--out", str(out)]) == 0
        _, cols = read_csv(out)
        assert np.all(np.diff(cols["insep_corr"]) > 0)

    def test_large_squeezing_keeps_the_added_noise(self, tmp_path):
        out = tmp_path / "r20.csv"
        argv = ["sweep-entangle", "--r", "20", "--eps-max", "10", "--eps-steps", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        _, cols = read_csv(out)
        floor = 2.0 * np.exp(-40.0)
        expected = np.array([floor, 10.0 + floor])
        assert np.all(np.abs(cols["insep_uncorr"] - expected) <= 1e-12 * expected)
        # the ideal corrected channel keeps the pair entangled at any noise
        assert np.all(cols["insep_corr"] < 1e-13)


class TestTrace:
    def test_deterministic_checksum(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["trace", "--eps", "25", "--n", "2000", "--seed", "12", "--out"]
        assert main(argv + [str(a)]) == 0
        assert main(argv + [str(b)]) == 0
        assert sha256(a) == sha256(b)

    def test_pinned_bytes(self, tmp_path):
        out = tmp_path / "t.csv"
        argv = ["trace", "--eps", "25", "--n", "2000", "--seed", "12", "--out", str(out)]
        assert main(argv) == 0
        assert sha256(out) == "d29309d2d712ac973488270e12bbf9628cb08afccbd14cf708debba71753cc76"

    def test_pinned_bytes_over_several_blocks(self, tmp_path):
        # 40000 shots: three row blocks, indices of 1 to 5 digits, own-noise
        # streams drawn (xi > 0) and a modulated input
        out = tmp_path / "t.csv"
        argv = ["trace", "--n", "40000", "--xi", "0.02", "--modulation-period", "7"]
        assert main(argv + ["--seed", "5", "--out", str(out)]) == 0
        assert sha256(out) == "01bf2f6085cc0bb53e19e7e1d1e30dccd959d944319a54bbd6a58c7d0881e3e8"

    def test_pinned_bytes_of_a_config_drawing_every_stream_kind(self, tmp_path):
        # unequal eta, thermal noise, anti-correlated couplings (s < 0) and
        # mismatch: every stream of the sampler draws with nonzero variance
        config, out = tmp_path / "c.cfg", tmp_path / "t.csv"
        config.write_text(
            "n_channels 2\neta 0.9 0.75\nthermal 0.3 0.3\nmismatch 0.05\nsource corr 4 1.3 -0.7\n"
        )
        argv = ["trace", "--channel-config", str(config), "--n", "3000", "--seed", "17"]
        assert main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        assert manifest["extras"]["splitting"][1] < 0
        assert sha256(out) == "9d882a852251bf02b3750e5da11020b7039c8727416424fec6c40665b586755c"

    def test_corrected_stage_variance(self, tmp_path):
        out = tmp_path / "t.csv"
        n = 100_000
        assert main(
            ["trace", "--eps", "25", "--n", str(n), "--seed", "3", "--out", str(out)]
        ) == 0
        _, cols = {}, None
        import csv

        samples = []
        with open(out) as fh:
            for row in csv.DictReader(fh):
                if row["stage"] == "corrected" and row["quadrature"] == "X":
                    samples.append(float(row["value"]))
        var = np.var(samples, ddof=1)
        se = 0.5 * np.sqrt(2.0 / (n - 1))
        assert abs(var - 0.5) < 5 * se
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        assert manifest["master_seed"] == 3

    @pytest.mark.parametrize("g_ratio", ["1e-300", "1e-12", "1e12", "1e300"])
    def test_corrected_stage_is_pure_loss_at_extreme_asymmetry(self, tmp_path, g_ratio):
        # the splitter amplitudes are read off the couplings; a pair rebuilt
        # from a rounded T = c^2 loses the weak channel's amplitude, and the
        # 1e6 SNU with it
        out, n = tmp_path / "t.csv", 20_000
        argv = ["trace", "--g-ratio", g_ratio, "--eps", "1e6", "--n", str(n), "--out", str(out)]
        assert main(argv) == 0
        se = 0.5 * np.sqrt(2.0 / (n - 1))
        for q in ("X", "P"):
            assert abs(np.var(trace_stage(out, "corrected", q), ddof=1) - 0.5) < 5 * se
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        g1 = float(g_ratio)
        pair = [1.0 / np.sqrt(1.0 + g1), np.sqrt(g1 / (1.0 + g1))]
        assert manifest["extras"]["splitting"] == pytest.approx(pair, rel=1e-15)

    def test_zero_shots_is_usage_error(self, tmp_path, capsys):
        assert main(["trace", "--n", "0", "--out", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()

    def test_negative_modulation_period_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["trace", "--modulation-period", "-5", "--out", str(out)]) == 2
        assert "--modulation-period" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["trace", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed must be nonnegative\n"
        assert list(tmp_path.iterdir()) == []


class TestSynth:
    def test_four_channel_patterns(self, tmp_path, capsys):
        patterns = tmp_path / "patterns.txt"
        patterns.write_text("1 1 0 0\n0 0 1 1\n1 0 1 0\n0 1 0 1\n")
        out = tmp_path / "plan.txt"
        assert main(["synth", "--patterns", str(patterns), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.splitlines()[0] == "signal 0.5 -0.5 -0.5 0.5"
        text = out.read_text()
        assert text.startswith("N 4\n")
        assert "# signal 0.5 -0.5 -0.5 0.5" in text
        plan, _ = read_plan(text)
        assert plan.n_modes == 4

    def test_single_pattern_one_splitter(self, tmp_path, capsys):
        patterns = tmp_path / "p.txt"
        patterns.write_text("0.78 1.0\n")
        out = tmp_path / "plan.txt"
        assert main(["synth", "--patterns", str(patterns), "--out", str(out)]) == 0
        # the mirror of the signal is the pi-flip splitter: one splitter of
        # the same T and one sign flip
        lines = [l for l in out.read_text().splitlines() if l.startswith(("BS", "PS"))]
        assert sorted(l.split()[0] for l in lines) == ["BS", "PS"]
        _, _, _, t = next(l for l in lines if l.startswith("BS")).split()
        assert float(t) == pytest.approx(1.0 / (1.0 + 0.78**2), abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("row", ["1e-200 1e-200", "1e200 1e200", "1e308 1e308"])
    def test_pattern_at_any_scale_gets_its_protected_mode(self, tmp_path, capsys, row):
        patterns, out = tmp_path / "p.txt", tmp_path / "plan.txt"
        patterns.write_text(row + "\n")
        assert main(["synth", "--patterns", str(patterns), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout == "signal 0.70710678118654746 -0.70710678118654746\n"
        assert out.read_text().endswith("# " + stdout)

    def test_pinned_bytes(self, tmp_path, capsys):
        rng = np.random.default_rng(48)
        rows = np.round(rng.standard_normal((24, 48)), 6)
        patterns = tmp_path / "p.txt"
        patterns.write_text("".join(" ".join(f"{x:.6f}" for x in row) + "\n" for row in rows))
        out = tmp_path / "plan.txt"
        assert main(["synth", "--patterns", str(patterns), "--out", str(out)]) == 0
        # re-recorded when the mirror of the signal became the encoder: the
        # same signal line and 1128 splitters, and one sign flip for 27
        assert sha256(out) == "d2ea5f23da25ff935d1ba97cd1e3b3535650d8e0f82526287e96c5fec57aec83"

    def test_readme_plan_example_is_what_synth_writes(self, tmp_path, capsys):
        # the README's "Network plan format" block is the plan of the
        # patterns.txt that its command-line examples write
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        (rows,) = re.findall(r"^printf '([^']*)' > patterns\.txt$", readme, flags=re.M)
        section = readme.split("### Network plan format", 1)[1]
        block = re.search(r"^```\n(.*?)^```$", section, flags=re.M | re.S).group(1)
        patterns, out = tmp_path / "patterns.txt", tmp_path / "plan.txt"
        patterns.write_text(rows.replace("\\n", "\n"))
        assert main(["synth", "--patterns", str(patterns), "--out", str(out)]) == 0
        assert out.read_text() == block

    def test_small_reflectivity_mesh(self, tmp_path, capsys):
        # the protected mode (1, -1.2e-7) needs a rotation with s = 1.2e-7
        patterns = tmp_path / "p.txt"
        patterns.write_text("0.00000012 1\n")
        out = tmp_path / "plan.txt"
        assert main(["synth", "--patterns", str(patterns), "--out", str(out)]) == 0
        plan, _ = read_plan(out.read_text())
        signal = [float(x) for x in capsys.readouterr().out.split()[1:]]
        assert np.abs(plan.target[:, 0] - signal).max() < 1e-15

    def test_uncoupled_patterns_protect_the_first_mode(self, tmp_path, capsys):
        patterns = tmp_path / "p.txt"
        patterns.write_text("0 0 0\n")
        out = tmp_path / "plan.txt"
        assert main(["synth", "--patterns", str(patterns), "--out", str(out)]) == 0
        assert capsys.readouterr().out == "signal 1 0 0\n"
        # the mirror of e_0 flips the sign of the next mode
        lines = [l for l in out.read_text().splitlines() if l.startswith(("BS", "PS"))]
        assert lines == ["PS 1 3.1415926535897931"]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_entry_exits_2(self, tmp_path, capsys, bad):
        patterns = tmp_path / "p.txt"
        patterns.write_text(f"1 {bad} 0\n1 1 0\n")
        out = tmp_path / "plan.txt"
        assert main(["synth", "--patterns", str(patterns), "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_pattern_line_named(self, tmp_path, capsys):
        patterns = tmp_path / "p.txt"
        patterns.write_text("# couplings\n1 x 0\n")
        out = tmp_path / "plan.txt"
        assert main(["synth", "--patterns", str(patterns), "--out", str(out)]) == 2
        assert "bad pattern line 2: '1 x 0'" in capsys.readouterr().err
        assert not out.exists()

    def test_full_rank_exits_3(self, tmp_path, capsys):
        patterns = tmp_path / "p.txt"
        patterns.write_text("1 0\n0 1\n")
        out = tmp_path / "plan.txt"
        assert main(["synth", "--patterns", str(patterns), "--out", str(out)]) == 3
        assert "protected" in capsys.readouterr().err
        assert not out.exists()


def strict_json(text):
    """Parse JSON that must not contain NaN or infinities."""

    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


#: ``cvgec optimize``'s T_e, T_d and objective_value as ``float.hex``, by
#: objective and --g1, for the parameter sets of
#: TestOptimize.test_pinned_numbers.
OPTIMIZE_PINS = {
    ("variance", "0.61"): ("0x1.3e032e1c9f01ap-1", "0x1.3e032e1c9f01ap-1", "0x0.0p+0"),
    ("variance", "1.6"): ("0x1.69bad2864840dp-2", "0x1.69bad2864840dp-2", "0x1.6fe1f21af4c50p-2"),
    ("variance", "1.3"): ("0x1.638e293e15ccbp-2", "0x1.638e293e15ccbp-2", "0x1.66124b6c76178p-2"),
    ("variance", "1e-12"): ("0x1.fffffffffe380p-1", "0x1.fffffffffe380p-1", "0x1.7317fffffeb58p+17"),
    ("variance", "0.8"): ("0x1.34b7a2575d550p-1", "0x1.34b7a2575d550p-1", "0x1.26bad4a635dc0p-6"),
    ("fidelity", "0.61"): ("0x1.3e032e1c9f01ap-1", "0x1.3e032e1c9f01ap-1", "-0x1.0000000000000p+0"),
    ("fidelity", "1.6"): ("0x1.69bad2864840dp-2", "0x1.69bad2864840dp-2", "-0x1.a9e8d3f5d7116p-1"),
    ("fidelity", "1.3"): ("0x1.638e293e15ccbp-2", "0x1.638e293e15ccbp-2", "-0x1.33a6ba7ab48d6p-1"),
    ("fidelity", "1e-12"): ("0x1.fffffffffe380p-1", "0x1.fffffffffe380p-1", "-0x1.61336846cc557p-17"),
    ("fidelity", "0.8"): ("0x1.fd062d6662982p-1", "0x1.fd062d6662982p-1", "-0x1.38790088c70eap-2"),
}


class TestOptimize:
    def test_symmetric(self, capsys):
        assert main(["optimize", "--g1", "1", "--g2", "1", "--xi", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["T_e"] == pytest.approx(0.5, abs=1e-4)
        assert payload["T_d"] == pytest.approx(0.5, abs=1e-4)
        assert payload["manifest"]["command"] == "optimize"

    def test_asymmetric(self, capsys):
        assert main(["optimize", "--g1", "0.61", "--g2", "1", "--xi", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["T_d"] == pytest.approx(1.0 / 1.61, abs=1e-4)

    @pytest.mark.parametrize("objective", ["variance", "fidelity"])
    def test_closed_form_has_equal_splitters(self, capsys, objective):
        argv = ["optimize", "--g1", "1.6", "--g2", "0.9", "--xi", "0.05", "--objective", objective]
        assert main(argv) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["T_e"] == payload["T_d"]
        assert 0.0 < payload["T_d"] < 1.0

    @pytest.mark.filterwarnings("error")
    def test_tiny_g1_prints_finite_json(self, capsys):
        argv = ["optimize", "--g1", "1e-300", "--g2", "1", "--xi", "0.05", "--objective", "fidelity"]
        assert main(argv) == 0
        payload = strict_json(capsys.readouterr().out)
        assert -1.0 <= payload["objective_value"] <= 0.0

    @pytest.mark.parametrize(
        "g1, g2", [("1e-300", "1"), ("1e-12", "1"), ("1", "1e-300"), ("1", "1e-12")]
    )
    def test_extreme_asymmetry_cancels_the_noise(self, capsys, g1, g2):
        # the optimum adds no noise; an amplitude rebuilt as sqrt(1 - T) adds
        # the whole 1e6 SNU at g1 = 1e-300 and 2e-3 SNU at 1e-12
        argv = ["optimize", "--g1", g1, "--g2", g2, "--eps", "1e6", "--objective", "variance"]
        assert main(argv) == 0
        payload = strict_json(capsys.readouterr().out)
        assert abs(payload["objective_value"]) <= 1e-9
        assert payload["T_d"] == pytest.approx(float(g2) / (float(g1) + float(g2)), rel=1e-12)

    @pytest.mark.parametrize("objective", ["variance", "fidelity"])
    def test_zero_noise(self, capsys, objective):
        argv = ["optimize", "--g1", "0.61", "--g2", "1", "--eps", "0", "--objective", objective]
        assert main(argv) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["T_d"] == pytest.approx(1.0 / 1.61, abs=1e-15)
        expected = 0.0 if objective == "variance" else -1.0
        assert payload["objective_value"] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("objective", ["variance", "fidelity"])
    def test_top_of_the_float_range_prints_the_1e300_optimum(self, capsys, objective):
        # only g1 / g2 sets the pair, also where g1 + g2 overflows
        def printed(g):
            argv = ["optimize", "--g1", g, "--g2", g, "--eps", "1", "--objective", objective]
            assert main(argv) == 0
            payload = strict_json(capsys.readouterr().out)
            return [payload[k] for k in ("T_e", "T_d", "objective_value")]

        assert printed("1e308") == printed("1e300")
        assert printed("1e308")[1] == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["--g1", "1e-200", "--g2", "1e200", "--eps", "1"],
            ["--g1", "1e-300", "--g2", "1e300", "--objective", "fidelity"],
        ],
    )
    def test_channel_2_noise_past_the_float_range_is_refused(self, capsys, argv):
        assert main(["optimize", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: channel-2 excess noise eps * g2 / g1 = ")
        assert err.endswith(" SNU is beyond the float range\n")

    @pytest.mark.parametrize("objective", ["variance", "fidelity"])
    @pytest.mark.parametrize(
        "g1, g2, xi, eta, eps",
        [
            ("0.61", "1", "0", "1", "10"),
            ("1.6", "0.9", "0.05", "0.8", "10"),
            ("1.3", "0.7", "0.02", "0.3", "25"),
            ("1e-12", "1", "0.1", "0.9", "1e6"),
            ("0.8", "1.2", "0.03", "0.05", "0.5"),
        ],
    )
    def test_pinned_numbers(self, capsys, objective, g1, g2, xi, eta, eps):
        # the printed numbers, exactly, as recorded once the objective was
        # read off the noise axis of independent noise inputs; at eta = 0.05
        # the fidelity optimum leaves the noise-cancelling pair.  The rest of
        # the JSON echoes the manifest, whose keys alone are checked here
        argv = ["optimize", "--g1", g1, "--g2", g2, "--xi", xi, "--eta", eta, "--eps", eps]
        assert main(argv + ["--objective", objective]) == 0
        payload = strict_json(capsys.readouterr().out)
        numbers = tuple(float.hex(payload[k]) for k in ("T_e", "T_d", "objective_value"))
        assert numbers == OPTIMIZE_PINS[objective, g1]
        assert sorted(payload) == ["T_d", "T_e", "manifest", "objective", "objective_value"]
        assert payload["objective"] == objective
        manifest = payload["manifest"]
        assert sorted(manifest) == ["command", "conventions", "parameters", "tool_version"]
        assert sorted(manifest["parameters"]) == ["eps", "eta", "g1", "g2", "objective", "xi"]

    def test_bad_objective_lists_choices(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["optimize", "--g1", "1", "--g2", "1", "--objective", "bogus"])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "variance" in message and "fidelity" in message


class TestHarness:
    @pytest.mark.parametrize(
        "command", ["sweep-coherent", "sweep-entangle", "trace", "synth", "optimize"]
    )
    def test_help_exits_zero_and_documents_units(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        assert "SNU" in text or "shot-noise" in text

    def test_io_error_exits_4(self, tmp_path, capsys):
        missing = tmp_path / "nope" / "out.csv"
        assert main(["sweep-coherent", "--eps-steps", "3", "--out", str(missing)]) == 4

    @pytest.mark.parametrize("command", ["sweep-coherent", "trace"])
    def test_io_error_names_the_output_path(self, tmp_path, capsys, command):
        missing = tmp_path / "nope" / "q.csv"
        assert main([command, "--out", str(missing)]) == 4
        err = capsys.readouterr().err
        assert err == f"I/O error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        directory = tmp_path / "q.csv"
        directory.mkdir()
        assert main([command, "--out", str(directory)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and err.endswith(f": {str(directory)!r}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["q.csv"]
        assert list(directory.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-coherent", "--g-ratio", "inf"],
            ["sweep-coherent", "--amplitude", "1", "nan"],
            ["sweep-entangle", "--r", "nan"],
            ["sweep-entangle", "--xi=-inf"],
            ["trace", "--eps", "nan"],
            ["trace", "--eta", "inf"],
            ["optimize", "--g1", "nan", "--g2", "1"],
            ["optimize", "--g1", "1", "--g2", "1", "--eps", "inf"],
        ],
    )
    def test_non_finite_flags_exit_2(self, tmp_path, argv):
        out = tmp_path / "o.csv"
        if argv[0] != "optimize":
            argv = argv + ["--out", str(out)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-coherent", "--eps-steps", str(2**59)],
            ["sweep-entangle", "--eps-steps", str(2**59)],
            ["trace", "--n", str(2**59)],
            ["sweep-coherent", "--eps-steps", str(2**63)],
            ["sweep-entangle", "--eps-steps", str(2**63)],
            ["trace", "--n", str(2**63)],
        ],
    )
    def test_counts_no_array_can_hold_exit_2(self, tmp_path, capsys, argv):
        # 2**59 doubles are 4 EiB, more than any address space: refused
        # before any memory is touched
        assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 2
        flag, count = argv[1:]
        assert capsys.readouterr().err == f"error: {flag} {count} is more than an array can hold\n"
        assert list(tmp_path.iterdir()) == []

    def test_manifest_conventions_describe_the_splitters(self, tmp_path):
        for argv in (["sweep-coherent", "--eps-steps", "2"], ["trace", "--n", "3"]):
            out = tmp_path / f"{argv[0]}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            manifest = json.loads((tmp_path / f"{argv[0]}.csv.manifest.json").read_text())
            conventions = manifest["conventions"]
            assert "amplitude pair (c, s)" in conventions["beam_splitter_sign"]
            assert "((c, -s), (-s, -c))" in conventions["beam_splitter_sign"]
            assert "sqrt(T)" not in conventions["beam_splitter_sign"]
            assert "protected mode" in conventions["port_labeling"]
            assert "noise-cancelling pair" in conventions["port_labeling"]
            assert "T_e" not in conventions["port_labeling"]
        c, s = 0.6, -0.8
        assert mirror((c, -s)).tolist() == pi_flip(c, s).tolist()

    def test_stale_tmp_name_does_not_block_writes(self, tmp_path):
        out = tmp_path / "o.csv"
        (tmp_path / "o.csv.tmp").mkdir()
        assert main(["sweep-coherent", "--eps-steps", "3", "--out", str(out)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["o.csv", "o.csv.aux.csv", "o.csv.manifest.json", "o.csv.tmp"]

    def test_output_mode_follows_umask(self, tmp_path):
        import os

        out = tmp_path / "o.csv"
        old = os.umask(0o027)
        try:
            assert main(["sweep-coherent", "--eps-steps", "3", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o640

    def test_failing_writer_leaves_nothing(self, tmp_path):
        import argparse

        from cvgec.cli import _write_outputs

        def writer(fh):
            fh.write("stage,quadrature,index,value\n")
            raise ValueError("formatting failed")

        out = str(tmp_path / "o.csv")
        args = argparse.Namespace(command="trace", out=out, dump_config=None)
        files = [(out, lambda fh: fh.write("eps_snu\n")), (out + ".aux.csv", writer)]
        with pytest.raises(ValueError, match="formatting failed"):
            _write_outputs(args, files, {}, say="never printed")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_dump_config_leaves_no_output(self, tmp_path, capsys):
        # every file is staged before any is renamed: no e1.csv without its
        # manifest, and no breaking-point line for a run that wrote nothing
        out = tmp_path / "e1.csv"
        argv = ["sweep-entangle", "--eps-steps", "3", "--dump-config", str(tmp_path / "nodir" / "x.cfg")]
        assert main(argv + ["--out", str(out)]) == 4
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.endswith(f": {str(tmp_path / 'nodir' / 'x.cfg')!r}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("sweep-coherent", ["--eps-steps", "3", "--g-ratio"]),
            ("sweep-entangle", ["--eps-steps", "3", "--r"]),
            ("trace", ["--n", "5", "--eps"]),
        ],
    )
    @pytest.mark.parametrize("failing", ["out", "dump-config", "manifest"])
    def test_failed_rerun_keeps_the_previous_run(self, tmp_path, capsys, command, argv, failing):
        # a rerun with other values that fails at any one output leaves the
        # directory as the first run left it
        out = tmp_path / "e1.csv"
        assert main([command, *argv, "0.5", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        out_arg, config_arg = str(out), str(tmp_path / "x.cfg")
        if failing == "out":
            out_arg = str(tmp_path / "nodir" / "e1.csv")
        elif failing == "dump-config":
            config_arg = str(tmp_path / "nodir" / "x.cfg")
        else:
            (tmp_path / "e1.csv.manifest.json").unlink()
            (tmp_path / "e1.csv.manifest.json").mkdir()
            before.pop("e1.csv.manifest.json")
        rerun = [command, *argv, "2", "--out", out_arg, "--dump-config", config_arg]
        assert main(rerun) == 4
        assert capsys.readouterr().out == ""
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        assert after == before

    def test_failed_rename_leaves_no_stale_manifest(self, tmp_path, capsys):
        # the renames are not atomic as a set: when one fails after another
        # succeeded, no manifest is left to describe the mixed files
        out = tmp_path / "e1.csv"
        assert main(["sweep-entangle", "--eps-steps", "3", "--out", str(out)]) == 0
        (tmp_path / "x.cfg").mkdir()
        argv = ["sweep-entangle", "--eps-steps", "3", "--r", "2", "--dump-config"]
        assert main(argv + [str(tmp_path / "x.cfg"), "--out", str(out)]) == 4
        assert capsys.readouterr().out.count("breaking point") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e1.csv", "x.cfg"]
        assert list((tmp_path / "x.cfg").iterdir()) == []

    def test_no_partial_files_on_error(self, tmp_path):
        missing_dir = tmp_path / "nope"
        main(["sweep-coherent", "--eps-steps", "3", "--out", str(missing_dir / "o.csv")])
        assert not missing_dir.exists()
        assert list(tmp_path.iterdir()) == []
