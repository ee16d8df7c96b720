"""Command-line interface: outputs, manifests, exit codes, atomicity."""

import hashlib
import json

import numpy as np
import pytest

from cvgec.cli import main


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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

    def test_sidecar_holds_the_metadata_curves(self, tmp_path):
        from cvgec.analysis import coherent_sweep
        from cvgec.cli import AUX_COLUMNS

        out = tmp_path / "s.csv"
        argv = ["sweep-coherent", "--g-ratio", "0.7", "--eta", "0.9", "--xi", "0.02"]
        assert main(argv + ["--eps-steps", "6", "--out", str(out)]) == 0
        header, cols = read_csv(tmp_path / "s.csv.aux.csv")
        assert tuple(header) == AUX_COLUMNS
        meta = coherent_sweep(0.7, 0.9, 0.02, (2.0, 0.0), np.linspace(0, 40, 6)).metadata
        alt, shifted = meta["uncorrected_channel_2"], meta["displacement_corrected"]
        assert list(cols["eps_snu"]) == list(np.linspace(0, 40, 6))
        assert list(cols["var_x_uncorr2_snu"]) == alt["var_x"]
        assert list(cols["var_p_uncorr2_snu"]) == alt["var_p"]
        assert list(cols["fid_uncorr2"]) == alt["fid"]
        assert list(cols["fid_corr_displaced"]) == shifted["fid_corr"]
        assert list(cols["fid_uncorr_displaced"]) == shifted["fid_uncorr"]

    @pytest.mark.filterwarnings("error")
    def test_top_of_finite_range_keeps_manifest_valid_json(self, tmp_path):
        out = tmp_path / "top.csv"
        argv = ["sweep-coherent", "--eps-max", "1.7e308", "--eps-steps", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        manifest = strict_json((tmp_path / "top.csv.manifest.json").read_text())
        assert manifest["extras"]["metadata"]["g_ratio"] == 0.61
        header, cols = read_csv(out)
        assert all(np.all(np.isfinite(cols[name])) for name in header if "insep" not in name)
        _, aux = read_csv(tmp_path / "top.csv.aux.csv")
        # channel 2 carries eps / 0.61, beyond the double range
        assert aux["var_x_uncorr2_snu"][1] == np.inf
        assert 0.0 <= aux["fid_uncorr2"][1] < 1e-300

    @pytest.mark.filterwarnings("error")
    def test_large_finite_noise_gives_finite_fidelities(self, tmp_path):
        out = tmp_path / "loud.csv"
        argv = ["sweep-coherent", "--eps-max", "1e200", "--eps-steps", "3", "--xi", "0.01"]
        assert main(argv + ["--out", str(out)]) == 0
        _, cols = read_csv(out)
        for name in ("fid_corr", "fid_uncorr", "fid_incoh"):
            assert np.all((cols[name] >= 0.0) & (cols[name] <= 1.0))
            assert np.all(cols[name][1:] < 1e-190)
        assert cols["fid_corr"][0] == 1.0

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
    """The sweeps rebuild a one-source model with a single eta and no
    thermal noise; a config outside that family is refused, trace keeps it."""

    UNEQUAL_ETA_THERMAL = "n_channels 2\neta 0.9 0.5\nthermal 0.3 0.3\nmismatch 0\nsource s 0.5 1 1\n"

    @pytest.mark.parametrize("command", ["sweep-coherent", "sweep-entangle"])
    @pytest.mark.parametrize(
        "text",
        [
            UNEQUAL_ETA_THERMAL,
            "n_channels 2\neta 0.9 0.5\nsource s 5 1 1\n",
            "n_channels 2\neta 0.9 0.9\nthermal 0 0.3\nsource s 5 1 1\n",
        ],
    )
    def test_unrepresentable_config_refused(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "channel.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        argv = [command, "--channel-config", str(cfg), "--eps-steps", "3", "--out", str(out)]
        assert main(argv) == 2
        assert "trace" in capsys.readouterr().err
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
        assert sha256(out) == "59e15773ea640e183ecda0ab8a87282f039891c85527a0eb6903e7eceda17a41"

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

    def test_zero_shots_is_usage_error(self, tmp_path, capsys):
        assert main(["trace", "--n", "0", "--out", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()


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
        from cvgec.network import parse_plan

        plan, _ = parse_plan(text)
        assert plan.n_modes == 4

    def test_single_pattern_one_splitter(self, tmp_path, capsys):
        patterns = tmp_path / "p.txt"
        patterns.write_text("0.78 1.0\n")
        out = tmp_path / "plan.txt"
        assert main(["synth", "--patterns", str(patterns), "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if l.startswith(("BS", "PS"))]
        assert len(lines) == 1
        _, _, _, t = lines[0].split()
        assert float(t) == pytest.approx(1.0 / (1.0 + 0.78**2), abs=1e-12)

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

    @pytest.mark.parametrize("objective", ["variance", "fidelity"])
    def test_zero_noise(self, capsys, objective):
        argv = ["optimize", "--g1", "0.61", "--g2", "1", "--eps", "0", "--objective", objective]
        assert main(argv) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["T_d"] == pytest.approx(1.0 / 1.61, abs=1e-15)
        expected = 0.0 if objective == "variance" else -1.0
        assert payload["objective_value"] == pytest.approx(expected, abs=1e-12)

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
        from cvgec.cli import _atomic_write

        def writer(fh):
            fh.write("stage,quadrature,index,value\n")
            raise ValueError("formatting failed")

        with pytest.raises(ValueError, match="formatting failed"):
            _atomic_write(str(tmp_path / "o.csv"), writer)
        assert list(tmp_path.iterdir()) == []

    def test_no_partial_files_on_error(self, tmp_path):
        missing_dir = tmp_path / "nope"
        main(["sweep-coherent", "--eps-steps", "3", "--out", str(missing_dir / "o.csv")])
        assert not missing_dir.exists()
        assert list(tmp_path.iterdir()) == []
