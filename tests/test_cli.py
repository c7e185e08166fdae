import contextlib
import hashlib
import io
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import nvreadout as nv
from nvreadout import cli, metrics, pumpsim
from nvreadout.cli import main
from nvreadout.config import DEFAULT_CONFIG, load_config
from nvreadout.io import write_waveform_csv

FAST_SWEEP = [
    "--set", "sweep.amplitude_points=4",
    "--set", "sweep.duration_points=3",
    "--set", "sweep.duration_stop_ns=1200",
]


def read(path: Path) -> str:
    return path.read_text()


@pytest.fixture()
def refuse_runs(monkeypatch):
    """Fail the test if a command starts its run."""
    def refuse(*args, **kwargs):
        raise AssertionError("the run started before the config check")
    for name in ("run_sweep", "sweep_totals", "run_olo", "compare_schemes",
                 "simulate_pair"):
        monkeypatch.setattr(cli, name, refuse)


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
        assert main(["sweep", "--out", str(out),
                     "--set", "sweep.mode=init-only", *FAST_SWEEP]) == 0
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
        "sequence.wait_ns=-1",
        "sequence.readout_amplitude=[]",
        "sequence.readout_amplitude=[0.1,1.5]",
        "sequence.readout_amplitude=[true, 0.2]",
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
        # the baseline sits on its 400 ns duration floor and the init scan
        # picks its lowest amplitude
        flags = {k: v for k, v in summary.items() if "grid_edge" in k}
        assert flags == {"baseline_at_grid_edge_amplitude": False,
                         "baseline_at_grid_edge_duration": True,
                         "init_at_grid_edge": True}

    def test_headline_run_is_pinned(self, tmp_path):
        # the regression anchor: the default run's trajectory, gain and
        # waveform bytes
        out = tmp_path / "run"
        assert main(["optimize", "--out", str(out)]) == 0
        summary = json.loads(read(out / "olo_summary.json"))
        assert (summary["queries"], summary["cycles"]) == (469, 12)
        assert summary["improvement_ratio"] == pytest.approx(
            0.3071408312030437, rel=1e-9)
        assert hashlib.sha256((out / "olo_waveform.csv").read_bytes()
                              ).hexdigest() == ("7a1fbe223f75a03682f2a044211d25"
                                                "ca2b0c1d167143c37113e6cda5b655"
                                                "18cc")

    def test_baseline_is_snr_whatever_the_sweep_metric(self, tmp_path):
        def baseline(*overrides):
            out = tmp_path / f"run{len(overrides)}"
            assert main(["optimize", "--out", str(out), *FAST_SWEEP,
                         "--set", "olo.max_queries=5",
                         "--set", "olo.init_scan_points=3", *overrides]) == 0
            return json.loads(read(out / "olo_summary.json"))["baseline_snr"]
        assert baseline("--set", "sweep.metric=contrast") == baseline()

    @pytest.mark.parametrize("override", [
        "olo.start_amplitude=1.2",
        "olo.start_duration_ns=-5",
        "olo.bound_hi=1.5",
        "olo.bound_lo=0.5",
        "olo.n_init=1",
        "olo.init_scan_points=-1",
        "olo.n_read=true",
        "olo.alpha0='0.05'",
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, override):
        code = main(["optimize", "--out", str(tmp_path / "o"), *FAST_SWEEP,
                     "--set", "olo.max_queries=5",
                     "--set", "olo.init_scan_points=3", "--set", override])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_poisson_mean_above_the_sampler_range_exits_2(self, tmp_path,
                                                          capsys):
        code = main(["optimize", "--out", str(tmp_path / "o"), "--stochastic",
                     *FAST_SWEEP, "--set", "olo.max_queries=5",
                     "--set", "olo.init_scan_points=3",
                     "--set", "sequence.repetitions=1e300"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: sequence.repetitions")
        assert "Traceback" not in err

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

    def test_init_amplitude_is_read_from_the_optimize_summary(
            self, tmp_path, olo_waveform_file):
        # given only the waveform, rabi takes the init amplitude of the
        # optimize run that wrote it, and records it
        (olo_waveform_file.parent / "olo_summary.json").write_text(
            '{"init_amplitude": 0.02}')
        both, only = tmp_path / "both", tmp_path / "only"
        assert main(self.rabi_args(both, olo_waveform_file)) == 0
        args = self.rabi_args(only, olo_waveform_file)
        i = args.index("rabi.olo_init_amplitude=0.02")
        assert main(args[:i - 1] + args[i + 1:]) == 0
        files = {p.name for p in both.iterdir()} - {"manifest.json"}
        assert files == {p.name for p in only.iterdir()} - {"manifest.json"}
        for name in files:
            assert (both / name).read_bytes() == (only / name).read_bytes()
        for out in (both, only):
            resolved = json.loads(read(out / "manifest.json"))["resolved_config"]
            assert resolved["rabi"]["olo_init_amplitude"] == 0.02

    def test_set_init_amplitude_wins_over_the_summary(self, olo_waveform_file):
        (olo_waveform_file.parent / "olo_summary.json").write_text(
            '{"init_amplitude": 0.5}')
        sets = [f"rabi.olo_waveform={olo_waveform_file}"]
        loaded = load_config(None, sets).olo_scheme
        assert loaded.init_wf.amplitudes.tolist() == [0.5]
        given = load_config(None, [*sets, "rabi.olo_init_amplitude=0.02"])
        assert given.olo_scheme.init_wf.amplitudes.tolist() == [0.02]
        assert given.settings["rabi"]["olo_init_amplitude"] == 0.02

    @pytest.mark.parametrize("summary", [
        "{}", "not json", "[0.02]", '{"init_amplitude": "abc"}',
        '{"init_amplitude": 2.0}', '{"init_amplitude": true}'])
    def test_summary_without_an_init_amplitude_exits_2(
            self, tmp_path, capsys, refuse_runs, olo_waveform_file, summary):
        (olo_waveform_file.parent / "olo_summary.json").write_text(summary)
        assert main(["rabi", "--out", str(tmp_path / "o"),
                     "--set", f"rabi.olo_waveform={olo_waveform_file}"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error:")
        assert "rabi.olo_init_amplitude" in err
        assert not (tmp_path / "o").exists()

    def test_missing_waveform_exits_2_with_hint(self, tmp_path, capsys):
        code = main(["rabi", "--out", str(tmp_path / "o"), *FAST_SWEEP,
                     "--set", "rabi.olo_waveform=/nonexistent/wf.csv"])
        assert code == 2
        assert "optimize" in capsys.readouterr().err

    def test_unset_waveform_exits_2_with_hint(self, tmp_path, capsys):
        code = main(["rabi", "--out", str(tmp_path / "o"), *FAST_SWEEP])
        assert code == 2
        assert "optimize" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_corrupt_waveform_exits_2(self, tmp_path):
        bad = tmp_path / "wf.csv"
        bad.write_text("a,b\n1,2\n")
        code = main(self.rabi_args(tmp_path / "o", bad))
        assert code == 2

    @pytest.mark.parametrize("rows, reason", [
        ("width_ns,amplitude\n46.0,abc\n", "must be numbers"),
        ("start_ns,amplitude\n0.0,0.5\n", "not a waveform CSV"),
        ("width_ns,amplitude\n46.0,0.5\n46.0\n", "must be numbers"),
        ("width_ns,amplitude\n46.0,1.5\n", "amplitude 1.5 of piece 0 outside"),
        ("width_ns,amplitude\n46.0,nan\n", "amplitudes must be finite"),
        ("width_ns,amplitude\nnan,0.5\n", "finite and > 0"),
        ("width_ns,amplitude\n-46.0,0.5\n", "finite and > 0"),
    ], ids=["amplitude-abc", "no-width-column", "missing-amplitude",
            "amplitude-1.5", "amplitude-nan", "width-nan", "width-negative"])
    def test_malformed_waveform_exits_2(self, tmp_path, capsys, rows, reason):
        bad = tmp_path / "wf.csv"
        bad.write_text(rows)
        assert main(self.rabi_args(tmp_path / "o", bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: rabi.olo_waveform: {bad}")
        assert reason in err
        assert not (tmp_path / "o").exists()

    def test_directory_as_waveform_exits_2(self, tmp_path, capsys, refuse_runs):
        assert main(self.rabi_args(tmp_path / "o", tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: rabi.olo_waveform")
        assert "not found" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", [
        "rabi.olo_init_amplitude=abc",
        "rabi.olo_init_amplitude=.nan",
        "rabi.olo_init_amplitude=2.0",
        "rabi.olo_init_amplitude=false",
        "rabi.repetitions=abc",
        "rabi.tau_points=-1",
        "rabi.tau_points=7",
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys,
                                      olo_waveform_file, override):
        code = main([*self.rabi_args(tmp_path / "o", olo_waveform_file),
                     "--set", override])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_poisson_mean_above_the_sampler_range_exits_2(
            self, tmp_path, capsys, olo_waveform_file):
        code = main([*self.rabi_args(tmp_path / "o", olo_waveform_file),
                     "--stochastic", "--set", "rabi.repetitions=1e300"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: rabi.repetitions")
        assert "Traceback" not in err

    def test_stochastic_rerun_identical(self, tmp_path, olo_waveform_file):
        out = tmp_path / "run"
        argv = self.rabi_args(out, olo_waveform_file) + [
            "--stochastic", "--seed", "3",
            "--set", "rabi.repetitions=1.0e6"]
        run_twice_and_compare(argv, out)

    def bench_sets(self, wf_path):
        # the benchmark's Rabi settings, on the default baseline grid
        return ["rabi.tau_points=241", "rabi.repetitions=1.0e6",
                f"rabi.olo_waveform={wf_path}", "rabi.olo_init_amplitude=0.02"]

    def test_baselines_score_one_grid(self, tmp_path, monkeypatch,
                                      olo_waveform_file):
        # rabi sweeps the baseline grid once and scores it by SNR and by
        # contrast; each equals a sweep of its own spec, bit for bit
        scored = {}
        build = cli.scheme_sequences

        def capture(olo, sweep_snr, sweep_contrast):
            scored.update(snr=sweep_snr, contrast=sweep_contrast)
            return build(olo, sweep_snr=sweep_snr, sweep_contrast=sweep_contrast)
        monkeypatch.setattr(cli, "scheme_sequences", capture)
        sweeps = []
        sweep = cli.sweep_totals

        def counted(spec, params):
            sweeps.append(spec.metric)
            return sweep(spec, params)
        monkeypatch.setattr(cli, "sweep_totals", counted)
        sets = self.bench_sets(olo_waveform_file)
        out = tmp_path / "o"
        assert main(["rabi", "--stochastic", "--seed", "3", "--out", str(out),
                     *[arg for o in sets for arg in ("--set", o)]]) == 0
        assert sweeps == ["snr"]
        run = load_config(None, sets)
        for got, spec in ((scored["snr"], run.baseline_snr),
                          (scored["contrast"], run.baseline_contrast)):
            want = nv.run_sweep(spec, run.params)
            assert got.spec.metric == spec.metric
            for name in ("grid", "best_per_amplitude",
                         "best_duration_per_amplitude"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert ((got.best_amplitude, got.best_duration_ns, got.best_value)
                    == (want.best_amplitude, want.best_duration_ns,
                        want.best_value))
        summary = json.loads(read(out / "rabi_summary.json"))
        assert summary["propagators_built"] == 44

    def test_runs_without_lapack_least_squares(self, tmp_path, monkeypatch,
                                               olo_waveform_file):
        # the fits score the Nyquist point of the uniform tau grid, where
        # the normal equations are ill-conditioned, without any LAPACK
        # routine but expm's solve
        def refuse(*args, **kwargs):
            raise AssertionError("a LAPACK routine other than solve ran")
        for name in ("lstsq", "svd", "eigh", "qr", "pinv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        fallbacks = []
        fallback = metrics._linear_fit_at

        def counted(*args):
            fallbacks.append(args)
            return fallback(*args)
        monkeypatch.setattr(metrics, "_linear_fit_at", counted)
        sets = self.bench_sets(olo_waveform_file)
        assert main(["rabi", "--out", str(tmp_path / "o"),
                     *[arg for o in sets for arg in ("--set", o)]]) == 0
        assert fallbacks


class TestPointCounts:
    """A count too large to allocate is a config error, raised before any
    run starts and before any array of that size is asked for."""

    LARGE = 10**6   # elements no configured array may ask for

    @pytest.fixture()
    def refuse_large_arrays(self, monkeypatch, refuse_runs):
        linspace, full = np.linspace, np.full

        def guarded_linspace(start, stop, num=50, **kwargs):
            assert num <= self.LARGE, f"linspace of {num} points"
            return linspace(start, stop, num, **kwargs)

        def guarded_full(shape, *args, **kwargs):
            assert np.prod(shape) <= self.LARGE, f"full of shape {shape}"
            return full(shape, *args, **kwargs)
        monkeypatch.setattr(np, "linspace", guarded_linspace)
        monkeypatch.setattr(np, "full", guarded_full)

    @pytest.mark.parametrize("command, overrides, named", [
        ("sweep", ["sweep.amplitude_points=100000000000"],
         "sweep.amplitude_points"),
        ("sweep", ["sweep.duration_points=100000000000"],
         "sweep.duration_points"),
        ("sweep", ["sweep.amplitude_points=10000",
                   "sweep.duration_points=10000"], "sweep grid"),
        ("optimize", ["olo.init_scan_points=100000000000"],
         "olo.init_scan_points"),
        ("optimize", ["olo.n_read=100000000000"], "olo.n_read"),
        ("rabi", ["rabi.tau_points=100000000000"], "rabi.tau_points"),
        ("trace", [f"sequence.readout_amplitude={[0.2] * 10_001}"],
         "sequence.readout_amplitude"),
    ], ids=["amplitudes", "durations", "cells", "init-scan", "pieces", "taus",
            "readout-pieces"])
    def test_rejected_before_any_array_is_built(
            self, tmp_path, capsys, refuse_large_arrays, command, overrides,
            named):
        wf = tmp_path / "olo_waveform.csv"
        write_waveform_csv(nv.make_constant(920.0, 1.0), wf)
        sets = [arg for o in [f"rabi.olo_waveform={wf}", *overrides]
                for arg in ("--set", o)]
        assert main([command, "--out", str(tmp_path / "o"), *sets]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err


class TestPropagatorCount:
    """Each run builds its propagators into a table of its own and writes
    the table's size into its summary, so a rerun in the same process
    counts the same blocks again."""

    def counts(self, tmp_path, argv, summary):
        counts = []
        for k in range(2):
            out = tmp_path / f"run{k}"
            assert main([*argv, "--out", str(out)]) == 0
            counts.append(json.loads(read(out / summary))["propagators_built"])
        return counts

    def test_sweep(self, tmp_path):
        argv = ["sweep", "--set", "sweep.amplitude_points=80",
                "--set", "sweep.duration_points=80"]
        assert self.counts(tmp_path, argv, "sweep_summary.json") == [161, 161]

    def test_optimize(self, tmp_path):
        assert self.counts(tmp_path, ["optimize"],
                           "olo_summary.json") == [94, 94]

    def test_optimize_builds_in_30_batches(self, tmp_path, monkeypatch):
        # the blocks are built once each, in the batches the run asks for
        batches = []
        build = pumpsim._build_blocks

        def counted(params, betas, dts):
            batches.append(betas.size)
            return build(params, betas, dts)
        monkeypatch.setattr(pumpsim, "_build_blocks", counted)
        assert main(["optimize", "--out", str(tmp_path / "o")]) == 0
        assert (len(batches), sum(batches)) == (30, 94)

    def test_rabi(self, tmp_path):
        # the default run's optimum: 4 pieces at full power, then dark
        path = tmp_path / "olo_waveform.csv"
        write_waveform_csv(nv.PiecewiseWaveform(920.0, np.concatenate(
            [np.full(4, 1.0), np.zeros(16)])), path)
        argv = ["rabi", "--stochastic", "--set", "rabi.tau_points=241",
                "--set", "rabi.repetitions=1.0e6",
                "--set", f"rabi.olo_waveform={path}",
                "--set", "rabi.olo_init_amplitude=0.02"]
        assert self.counts(tmp_path, argv, "rabi_summary.json") == [44, 44]


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

    def test_exponent_floats_are_recorded_as_numbers(self, tmp_path):
        # YAML 1.1 reads a float with no dot, or with an unsigned exponent,
        # as a string; the manifest records the number the run used, and
        # the run's other outputs are those of the plain spelling
        runs = {}
        for name, repetitions, wait in (("exp", "1e6", "1e+03"),
                                        ("plain", "1000000.0", "1000.0")):
            runs[name] = out = tmp_path / name
            assert main(["trace", "--out", str(out),
                         "--set", f"rabi.repetitions={repetitions}",
                         "--set", f"sequence.wait_ns={wait}"]) == 0
        resolved = json.loads(read(runs["exp"] / "manifest.json"))["resolved_config"]
        assert resolved["rabi"]["repetitions"] == 1e6
        assert resolved["sequence"]["wait_ns"] == 1000.0
        assert read(runs["exp"] / "trace.csv") == read(runs["plain"] / "trace.csv")

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

    @pytest.mark.parametrize("override", [
        "rabi.tau_points=3", "olo.max_queries=1.5", "rabi.rabi_period_ns=0",
        "olo.n_read=0", "sweep.mode=bogus"])
    def test_setting_the_command_never_reads_is_checked(self, tmp_path,
                                                         capsys, override):
        # every setting is checked at load, whichever command runs
        code = main(["trace", "--out", str(tmp_path / "o"), "--set", override])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and override.split("=")[0] in err
        assert len(err.splitlines()) == 1

    def test_key_that_is_not_text_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("1: 2\n")
        assert main(["trace", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "unknown key(s) in section '<top level>': 1" in (
            capsys.readouterr().err)

    def test_manifest_records_the_loaded_config(self, tmp_path):
        # the manifest echoes the checked values the run used: a whole
        # number given for a float setting is recorded as that float
        out = tmp_path / "run"
        sets = ["sequence.readout_amplitude=[0.2, 0.4, 1, 0]",
                "sequence.wait_ns=2000"]
        assert main(["trace", "--out", str(out), "--seed", "5",
                     *[arg for o in sets for arg in ("--set", o)]]) == 0
        resolved = json.loads(read(out / "manifest.json"))["resolved_config"]
        loaded = load_config(None, sets, seed=5, output_dir=str(out)).settings
        assert (json.dumps(resolved, sort_keys=True)
                == json.dumps(loaded, sort_keys=True))
        assert json.dumps(resolved["sequence"]["wait_ns"]) == "2000.0"

    def test_seed_flag_overrides_config(self, tmp_path):
        out = tmp_path / "run"
        assert main(["trace", "--out", str(out), "--seed", "99"]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["seed"] == 99

    def test_manifest_records_library_versions(self, tmp_path):
        out = tmp_path / "run"
        assert main(["trace", "--out", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["versions"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "pyyaml": yaml.__version__}


class TestChecksAcrossSettings:
    """What spans several settings, and what only a model object's
    constructor checks, is checked at load too, whichever command runs,
    before the run starts, and the one error line names the setting."""

    @pytest.mark.parametrize("overrides, named", [
        (["sequence.bin_width_ns=47"], "does not divide"),
        (["sequence.bin_width_ns=0.0092"], "more than 10000 bins"),
        (["sweep.amplitude_points=10000", "sweep.duration_points=10000"],
         "sweep grid"),
        (["rabi.olo_waveform=/nonexistent.csv"], "not found"),
        (["rabi.olo_waveform=malformed.csv"],
         "rabi.olo_waveform: malformed.csv: not a waveform CSV"),
        (["rabi.olo_waveform=latin.csv"],
         "rabi.olo_waveform: latin.csv: not UTF-8 text"),
        (["--config=latin.yaml"], "cannot read config file latin.yaml"),
        # bounds that only a model object's constructor states
        (["rabi.olo_init_amplitude=2.0"],
         "amplitude 2.0 of piece 0 outside [0.0, 1.0]"),
        (["olo.start_amplitude=1.2"],
         "amplitude 1.2 of piece 0 outside [0.0, 1.0]"),
        (["olo.bound_lo=0.5"], "amplitude 0.02 of piece 0 outside [0.5, 1.0]"),
        (["olo.bound_hi=3"], "need 0 <= lo < hi <= 1"),
        (["olo.alpha0=-1"], "need 0 < alpha_min < alpha0"),
        (["olo.rho=1"], "rho must lie in (0, 1)"),
        (["sweep.amplitude_stop=2"], "sweep amplitudes must lie in [0, 1]"),
        (["sweep.duration_start_ns=-5"], "sweep durations must be finite"),
        (["rabi.tau_stop_ns=100"], "less than one Rabi period"),
        (["rabi.tau_start_ns=-5"], "tau grid must be non-empty and non-neg"),
        (["sequence.wait_ns=-1"], "wait must be >= 0 ns"),
        (["sequence.repetitions=0"], "repetitions must be finite and >= 1"),
        (["photophysics.eta=2"], "eta must lie in (0, 1]"),
        (["photophysics.k_isc1=0.001"], "k_isc1 must exceed k_isc0"),
        # no olo_summary.json beside the waveform to read the amplitude from
        (["rabi.olo_init_amplitude=null"], "rabi.olo_waveform"),
    ], ids=["bins-divide", "bins-count", "sweep-cells", "rabi-waveform",
            "rabi-waveform-malformed", "rabi-waveform-not-utf8",
            "config-not-utf8", "olo-init-amplitude",
            "olo-start-amplitude", "olo-start-bounds", "olo-bounds",
            "olo-alpha0", "olo-rho", "sweep-amplitudes", "sweep-durations",
            "tau-span", "tau-start", "wait", "repetitions", "eta", "k-isc1",
            "olo-init-summary"])
    @pytest.mark.parametrize("command", ["optimize", "rabi", "sweep", "trace"])
    def test_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch,
                                    refuse_runs, command, overrides, named):
        wf = tmp_path / "olo_waveform.csv"
        write_waveform_csv(nv.make_constant(920.0, 1.0), wf)
        (tmp_path / "malformed.csv").write_text("a,b\n1,2\n")
        (tmp_path / "latin.csv").write_bytes(b"width_ns,amplitude\n46.0,\xff\xfe\n")
        (tmp_path / "latin.yaml").write_bytes(b"\xff\xfe: 1\n")
        monkeypatch.chdir(tmp_path)
        # an override is a --set, unless it is a --config=FILE
        args = [o if o.startswith("--config=") else f"--set={o}"
                for o in [f"rabi.olo_waveform={wf}",
                          "rabi.olo_init_amplitude=0.02", *overrides]]
        assert main([command, "--out", str(tmp_path / "o"), *args]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error:") and named in err
        # each names its setting, or its file
        assert all(o.removeprefix("--config=").split("=")[0] in err
                   for o in overrides)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["optimize", "rabi", "sweep", "trace"])
    def test_rabi_repetitions_are_checked_without_a_waveform(
            self, tmp_path, capsys, refuse_runs, command):
        # with rabi.olo_waveform unset no sequence is built at
        # rabi.repetitions, so the settings table states its bound
        assert main([command, "--out", str(tmp_path / "o"),
                     "--set", "rabi.repetitions=0"]) == 2
        assert capsys.readouterr().err == (
            "config error: rabi.repetitions must be >= 1, got 0.0\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("given", ["file", "--set"])
    @pytest.mark.parametrize("key", ["detection_offset_ns",
                                     "detection_width_ns"])
    def test_removed_window_keys_are_unknown(self, tmp_path, capsys, key,
                                             given):
        # photons are counted over the whole readout pulse
        args = ["trace", "--out", str(tmp_path / "o")]
        if given == "file":
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(f"sequence:\n  {key}: 0.0\n")
            args += ["--config", str(cfg)]
        else:
            args += ["--set", f"sequence.{key}=0.0"]
        assert main(args) == 2
        assert (f"unknown key(s) in section 'sequence': {key}"
                in capsys.readouterr().err)


class TestStochasticFlag:
    @pytest.mark.parametrize("command", ["trace", "sweep"])
    def test_commands_that_never_sample_reject_it(self, tmp_path, capsys,
                                                   command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--stochastic", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--stochastic" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


#: The sections each command checks, besides the top-level ``seed``: all of
#: them, whichever sections the command reads.
READS = dict.fromkeys(("trace", "sweep", "optimize", "rabi"),
                      ("photophysics", "sequence", "sweep", "olo", "rabi"))
TEXT_SETTINGS = ("photophysics.map_shape", "sweep.mode", "sweep.metric",
                 "rabi.olo_waveform")
#: Counts and repetition numbers, with the least value each accepts.
COUNT_FLOORS = {"seed": 0, "sequence.repetitions": 1,
                "sweep.amplitude_points": 1, "sweep.duration_points": 1,
                "olo.n_read": 1, "olo.init_scan_points": 1,
                "olo.max_queries": 1, "rabi.tau_points": 1,
                "rabi.repetitions": 1}
MALFORMED = ["[1", "{a", "[1, 2", "'abc", '"abc', "a: b: c", "{a: [1}", "]",
             "*alias", "`x", "@x", "%x", "!!float abc", "!!int 1.5x",
             "!!python/name:os.system"]


def numeric_settings(command):
    return ["seed"] + [f"{section}.{key}" for section in READS[command]
                       for key in DEFAULT_CONFIG[section]
                       if f"{section}.{key}" not in TEXT_SETTINGS]


def not_dividing_the_readout(width):
    bins = DEFAULT_CONFIG["sequence"]["readout_duration_ns"] / width
    return math.isinf(bins) or abs(bins - round(bins)) > 1e-6 * bins


@st.composite
def bad_overrides(draw):
    """A command and one ``--set`` override it must refuse."""
    command = draw(st.sampled_from(sorted(READS)))
    numbers = numeric_settings(command)
    kind = draw(st.sampled_from(["non-finite", "count", "bin width",
                                 "malformed", "list"]))
    if kind == "non-finite":
        key = draw(st.sampled_from(numbers))
        value = draw(st.sampled_from([".nan", ".NaN", ".inf", "-.inf",
                                      "1e400", "-1e999", "nan", "inf"]))
    elif kind == "count":
        key = draw(st.sampled_from([k for k in COUNT_FLOORS if k in numbers]))
        value = str(draw(st.integers(max_value=COUNT_FLOORS[key] - 1)))
    elif kind == "bin width":
        key = "sequence.bin_width_ns"
        value = repr(draw(st.floats(0.0, 1e7, exclude_min=True).filter(
            not_dividing_the_readout)))
    elif kind == "malformed":
        key = draw(st.sampled_from(numbers + list(TEXT_SETTINGS)))
        value = draw(st.sampled_from(MALFORMED) | st.text(
            st.characters(blacklist_characters="]",
                          blacklist_categories=("Cs",)),
            max_size=8).map(lambda text: "[" + text))
    else:
        key = draw(st.sampled_from(
            [k for k in numbers if k != "sequence.readout_amplitude"]))
        items = st.floats(-10.0, 10.0) | st.integers(-3, 3)
        value = repr(draw(st.lists(items, max_size=3)
                          | st.lists(st.lists(items, min_size=1, max_size=2),
                                     min_size=1, max_size=2)))
    return command, f"{key}={value}"


class TestSetFuzz:
    """Every value a setting cannot take ends the run with exit code 2 (or
    3 for a model failure) and one error line, never with a traceback."""

    TINY = ["sweep.amplitude_points=3", "sweep.duration_points=2",
            "olo.init_scan_points=3", "olo.max_queries=10", "olo.n_read=2",
            "rabi.tau_points=31", "rabi.olo_init_amplitude=0.02"]

    @pytest.fixture(scope="class")
    def tiny_args(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        wf = root / "olo_waveform.csv"
        write_waveform_csv(nv.make_constant(920.0, 1.0), wf)
        return ["--out", str(root / "o")] + [
            arg for o in [*self.TINY, f"rabi.olo_waveform={wf}"]
            for arg in ("--set", o)]

    @given(bad_overrides())
    @settings(max_examples=300, deadline=None)
    def test_bad_override_exits_2_or_3(self, tiny_args, case):
        command, override = case
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([command, *tiny_args, "--set", override])
        assert code in (2, 3), (command, override)
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().startswith(("config error:", "error:"))
        assert len(err.getvalue().splitlines()) == 1, (command, override)

    def test_malformed_value_names_the_override(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path / "o"),
                     "--set", "sequence.repetitions=[1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("config error: cannot parse --set "
                       "'sequence.repetitions=[1': expected ',' or ']', but "
                       "got '<stream end>' at line 1, column 3\n")

    @pytest.mark.parametrize("override", ["olo.alpha0=[0.1]",
                                          "olo.max_queries=[5]",
                                          "sequence.wait_ns=[1, 2]"])
    def test_list_for_a_single_number_exits_2(self, tmp_path, capsys,
                                               override):
        code = main(["optimize", "--out", str(tmp_path / "o"), *FAST_SWEEP,
                     "--set", "olo.init_scan_points=3", "--set", override])
        assert code == 2
        assert "must be a single number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["2020-01-01", "!!binary AAAA",
                                       "!!set {a}"])
    def test_value_json_cannot_hold_exits_2(self, tmp_path, capsys, value):
        # even for a setting the command never reads: the manifest records
        # every setting
        code = main(["trace", "--out", str(tmp_path / "o"),
                     "--set", f"olo.alpha0={value}"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command", sorted(READS))
    def test_deeply_nested_value_exits_2(self, tiny_args, capsys, command):
        # deeper than the YAML parser's recursion reaches
        deep = "[" * 3000 + "]" * 3000
        code = main([command, *tiny_args, "--set", f"olo.alpha0={deep}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "nested too deeply" in err
        assert "Traceback" not in err

    def test_readout_amplitude_may_be_a_list(self, tmp_path):
        assert main(["trace", "--out", str(tmp_path / "o"), "--set",
                     "sequence.readout_amplitude=[0.2, 0.4, 0.6, 0.8]"]) == 0

    @pytest.mark.parametrize("argv", [
        ["--set", "rabi.olo_waveform=[1]", "--out", "o"],
        ["--set", "rabi.olo_waveform=3", "--out", "o"],
        ["--set", "output_dir=[o]"]])
    def test_path_that_is_not_a_string_exits_2(self, tmp_path, capsys,
                                               monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(["rabi", *FAST_SWEEP, *argv]) == 2
        assert "must be a path" in capsys.readouterr().err
