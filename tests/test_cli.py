import json
from pathlib import Path

import numpy as np
import pytest

import nvreadout as nv
from nvreadout.cli import main
from nvreadout.io import write_waveform_csv

FAST_SWEEP = [
    "--set", "sweep.amplitude_points=4",
    "--set", "sweep.duration_points=3",
    "--set", "sweep.duration_stop_ns=1200",
]


def read(path: Path) -> str:
    return path.read_text()


def run_twice_and_compare(argv, out: Path, skip=("manifest.json",)):
    assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(first) == set(second)
    for name in first:
        if name in skip:
            continue
        assert first[name] == second[name], f"{name} changed between runs"


class TestTrace:
    def test_writes_csv_with_header(self, tmp_path):
        out = tmp_path / "run"
        assert main(["trace", "--out", str(out)]) == 0
        lines = read(out / "trace.csv").splitlines()
        assert lines[0] == ("bin_start_ns,expected_counts_per_rep_branch0,"
                            "expected_counts_per_rep_branch1,diff")
        assert len(lines) == 21
        assert (out / "manifest.json").exists()

    def test_missing_section_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("sequence:\n")
        code = main(["trace", "--config", str(cfg), "--out",
                     str(tmp_path / "o")])
        assert code == 2
        assert "sequence" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        run_twice_and_compare(["trace", "--out", str(out)], out)


class TestSweep:
    def test_small_grid_row_count(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--out", str(out),
                     "--set", "sweep.amplitude_points=2",
                     "--set", "sweep.duration_points=2"]) == 0
        rows = read(out / "sweep_grid.csv").splitlines()
        assert len(rows) == 1 + 4

    def test_init_only_mode_flag(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--out", str(out), "--mode", "init-only",
                     *FAST_SWEEP]) == 0
        summary = json.loads(read(out / "sweep_summary.json"))
        assert summary["mode"] == "init-only"

    def test_empty_grid_exits_2(self, tmp_path):
        code = main(["sweep", "--out", str(tmp_path / "o"),
                     "--set", "sweep.amplitude_points=0"])
        assert code == 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path / "o"),
                     "--set", "sweep.amplitudes=5"])
        assert code == 2
        assert "amplitudes" in capsys.readouterr().err

    def test_nonpositive_duration_exits_2(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path / "o"),
                     "--set", "sweep.duration_start_ns=0"])
        assert code == 2
        assert "durations" in capsys.readouterr().err

    def test_amplitude_above_one_exits_2(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path / "o"),
                     "--set", "sweep.amplitude_stop=1.5"])
        assert code == 2
        assert "amplitudes" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "sequence.bin_width_ns=0",
        "sequence.repetitions=.nan",
        "sweep.amplitude_points=.nan",
        "sweep.amplitude_points=abc",
        "sweep.duration_points=2.7",
        "photophysics.k_rad=.nan",
        "photophysics.beta_max=.inf",
        "sequence.init_pieces=0",
        "sequence.init_duration_ns=.nan",
        "seed=abc",
        "seed=-1",
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, override):
        code = main(["sweep", "--out", str(tmp_path / "o"),
                     "--set", "sweep.amplitude_points=3",
                     "--set", "sweep.duration_points=3", "--set", override])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("overrides, best, edge", [
        # the default grid's best pulse sits on its 400 ns duration floor
        ((), (0.51, 400.0), (False, True)),
        (("sweep.amplitude_stop=0.1",), (0.1, 400.0), (True, True)),
        (("sweep.amplitude_stop=0.6", "sweep.duration_start_ns=100",
          "sweep.duration_stop_ns=700"), (0.31, 400.0), (False, False)),
    ])
    def test_summary_flags_an_optimum_on_the_grid_edge(self, tmp_path,
                                                       overrides, best, edge):
        out = tmp_path / "run"
        sets = [arg for o in overrides for arg in ("--set", o)]
        assert main(["sweep", "--out", str(out),
                     "--set", "sweep.amplitude_points=3",
                     "--set", "sweep.duration_points=3", *sets]) == 0
        summary = json.loads(read(out / "sweep_summary.json"))
        assert (summary["best_amplitude"], summary["best_duration_ns"]) == best
        assert summary["best_at_grid_edge"] == dict(zip(("amplitude",
                                                         "duration"), edge))


class TestOptimize:
    def test_budget_one_single_log_line(self, tmp_path):
        out = tmp_path / "run"
        assert main(["optimize", "--out", str(out), *FAST_SWEEP,
                     "--set", "olo.max_queries=1",
                     "--set", "olo.init_scan_points=3"]) == 0
        log = read(out / "olo_log.jsonl").splitlines()
        assert len(log) == 1
        record = json.loads(log[0])
        assert set(record) == {"query_index", "cycle", "u", "value", "alpha",
                               "accepted"}

    def test_default_run_beats_baseline(self, tmp_path):
        out = tmp_path / "run"
        assert main(["optimize", "--out", str(out)]) == 0
        summary = json.loads(read(out / "olo_summary.json"))
        assert summary["final_snr"] >= summary["baseline_snr"]
        assert (out / "olo_waveform.csv").exists()
        assert (out / "olo_traces.csv").exists()

    def test_baseline_is_snr_whatever_the_sweep_metric(self, tmp_path):
        def baseline(*overrides):
            out = tmp_path / f"run{len(overrides)}"
            assert main(["optimize", "--out", str(out), *FAST_SWEEP,
                         "--set", "olo.max_queries=5",
                         "--set", "olo.init_scan_points=3", *overrides]) == 0
            return json.loads(read(out / "olo_summary.json"))["baseline_snr"]
        assert baseline("--set", "sweep.metric=contrast") == baseline()

    def test_stochastic_seeded_rerun_identical(self, tmp_path):
        out = tmp_path / "run"
        argv = ["optimize", "--out", str(out), "--stochastic", "--seed", "7",
                *FAST_SWEEP,
                "--set", "olo.n_read=5",
                "--set", "olo.max_queries=60",
                "--set", "olo.init_scan_points=3"]
        run_twice_and_compare(argv, out)


class TestRabi:
    @pytest.fixture()
    def olo_waveform_file(self, tmp_path):
        wf = nv.PiecewiseWaveform(920.0, np.concatenate(
            [np.full(4, 1.0), np.zeros(16)]))
        path = tmp_path / "olo_waveform.csv"
        write_waveform_csv(wf, path)
        return path

    def rabi_args(self, out, wf_path):
        return ["rabi", "--out", str(out), *FAST_SWEEP,
                "--set", f"rabi.olo_waveform={wf_path}",
                "--set", "rabi.olo_init_amplitude=0.02",
                "--set", "rabi.tau_points=31"]

    def test_three_curves_plus_summary(self, tmp_path, olo_waveform_file):
        out = tmp_path / "run"
        assert main(self.rabi_args(out, olo_waveform_file)) == 0
        for scheme in ("olo-snr", "constant-snr", "constant-contrast"):
            csv = read(out / f"rabi_{scheme}.csv").splitlines()
            assert csv[0] == "tau_ns,y,fit_y,deviation"
            assert len(csv) == 32
        summary = json.loads(read(out / "rabi_summary.json"))
        assert set(summary["contrasts"]) == {"olo-snr", "constant-snr",
                                             "constant-contrast"}
        assert set(summary["mean_deviations"]) == set(summary["contrasts"])

    def test_constant_snr_scheme_ignores_the_sweep_metric(
            self, tmp_path, olo_waveform_file):
        # on this grid the SNR and the contrast optima are different pulses
        def contrasts(*overrides):
            out = tmp_path / f"run{len(overrides)}"
            assert main([*self.rabi_args(out, olo_waveform_file),
                         "--set", "sweep.amplitude_points=6",
                         "--set", "sweep.duration_points=2", *overrides]) == 0
            return json.loads(read(out / "rabi_summary.json"))["contrasts"]
        default = contrasts()
        assert default["constant-snr"] != default["constant-contrast"]
        assert contrasts("--set", "sweep.metric=contrast") == default

    def test_missing_waveform_exits_2_with_hint(self, tmp_path, capsys):
        code = main(["rabi", "--out", str(tmp_path / "o"), *FAST_SWEEP,
                     "--set", "rabi.olo_waveform=/nonexistent/wf.csv"])
        assert code == 2
        assert "optimize" in capsys.readouterr().err

    def test_unset_waveform_exits_2_with_hint(self, tmp_path, capsys):
        code = main(["rabi", "--out", str(tmp_path / "o"), *FAST_SWEEP])
        assert code == 2
        assert "optimize" in capsys.readouterr().err

    def test_corrupt_waveform_exits_2(self, tmp_path):
        bad = tmp_path / "wf.csv"
        bad.write_text("a,b\n1,2\n")
        code = main(self.rabi_args(tmp_path / "o", bad))
        assert code == 2

    @pytest.mark.parametrize("override", [
        "rabi.olo_init_amplitude=abc",
        "rabi.olo_init_amplitude=.nan",
        "rabi.repetitions=abc",
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys,
                                      olo_waveform_file, override):
        code = main([*self.rabi_args(tmp_path / "o", olo_waveform_file),
                     "--set", override])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_stochastic_rerun_identical(self, tmp_path, olo_waveform_file):
        out = tmp_path / "run"
        argv = self.rabi_args(out, olo_waveform_file) + [
            "--stochastic", "--seed", "3",
            "--set", "rabi.repetitions=1.0e6"]
        run_twice_and_compare(argv, out)


class TestConfigHandling:
    def test_config_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "photophysics:\n  eta: 0.004\n"
            "sequence:\n  readout_amplitude: 0.25\n"
            "seed: 12\n")
        out = tmp_path / "run"
        assert main(["trace", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["resolved_config"]["photophysics"]["eta"] == 0.004
        assert manifest["seed"] == 12
        assert manifest["config_sha256"] != "defaults"

    def test_unparseable_yaml_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("photophysics: [unclosed\n")
        assert main(["trace", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_section_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("laser:\n  power: 1\n")
        assert main(["trace", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "laser" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        out = tmp_path / "run"
        assert main(["trace", "--out", str(out), "--seed", "99"]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["seed"] == 99
