"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 8 compares the schemes' Rabi curves twice.  The stochastic clause
samples Poisson counts and measures each curve's mean deviation from its
fit.  The deterministic clause uses noiseless curves, whose mean deviation
is the expected value of that sampled statistic at the configured
repetitions (``nv.expected_mean_deviation``): a noiseless curve is an exact
sinusoid, so its own fit residual would be rounding residue.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nvreadout as nv
from conftest import load_olo_scheme, pure_state
from nvreadout.cli import main


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num:2d} [{'PASS' if ok else 'FAIL'}]: {detail}")
    assert ok, f"criterion {num}: {detail}"


def scheme_inputs(run, params):
    """Sweep optima and OLO run behind the Fig.-4-style comparison."""
    sweep_snr = nv.run_sweep(run.baseline_snr, params)
    sweep_con = nv.run_sweep(run.baseline_contrast, params)
    olo = nv.run_olo(run.olo, baseline=sweep_snr)
    return sweep_snr, sweep_con, olo


def rabi_scheme_configs(inputs, out, repetitions, stochastic, seed):
    """The shared Rabi sweep and the three scheme sequences of the
    Fig.-4-style comparison, the OLO scheme loaded as the rabi command
    loads it from the OLO run's files, written into ``out``."""
    sweep_snr, sweep_con, olo = inputs
    cfg = nv.RabiConfig(omega_rad_per_ns=2 * np.pi / 200.0,
                        taus_ns=np.linspace(0.0, 600.0, 241),
                        stochastic=stochastic, seed=seed)
    return cfg, nv.scheme_sequences(load_olo_scheme(olo, out, repetitions),
                                    sweep_snr, sweep_con)


def test_criterion_01_singlet_lifetime(params):
    t0 = time.perf_counter()
    dark = nv.make_constant(250.0, 0.0)
    p = nv.propagate_waveform(pure_state(nv.Level.S), dark, params)
    implied = -250.0 / np.log(p[nv.Level.S])
    elapsed = time.perf_counter() - t0
    ok = abs(implied - 250.0) <= 0.25 and elapsed < 1.0
    report(1, ok, f"singlet e-fold at {implied:.4f} ns (target 250 ± 0.25), "
                  f"{elapsed:.2f}s")


def test_criterion_02_projection_interior_maximum(run, params):
    t0 = time.perf_counter()
    result = nv.run_sweep(run.baseline_snr, params)
    proj = result.best_per_amplitude
    i = int(np.nanargmax(proj))
    elapsed = time.perf_counter() - t0
    interior = 0 < i < proj.size - 1
    rises = bool(np.all(np.diff(proj[:i + 1]) > 0))
    falls = bool(np.all(np.diff(proj[i:]) < 0))
    ok = interior and rises and falls and elapsed < 30.0
    report(2, ok, f"20x20 best-SNR projection peaks at index {i} "
                  f"(amplitude {result.spec.amplitudes[i]:.3f}), "
                  f"rises={rises} falls={falls}, {elapsed:.2f}s")


def test_criterion_03_trace_difference_decay(params, base_seq):
    t0 = time.perf_counter()
    cfg = replace(base_seq, readout_wf=nv.make_constant(3000.0, 0.3))
    tr0, tr1 = nv.simulate_pair(cfg, params, 100.0)
    diff = tr0.expected_counts_per_rep - tr1.expected_counts_per_rep
    elapsed = time.perf_counter() - t0
    starts_positive = diff[0] > 0
    monotone = bool(np.all(np.diff(diff) < 0))
    faded = diff[-1] < 0.05 * diff[0]
    ok = starts_positive and monotone and faded and elapsed < 5.0
    report(3, ok, f"signal-photon difference: starts positive={starts_positive}, "
                  f"monotone decay={monotone}, final/initial="
                  f"{diff[-1] / diff[0]:.2e} (< 0.05), {elapsed:.2f}s")


def test_criterion_04_olo_improvement(run, params):
    t0 = time.perf_counter()
    baseline = nv.run_sweep(run.baseline_snr, params)
    res = nv.run_olo(run.olo, baseline=baseline)
    elapsed = time.perf_counter() - t0
    ok = (res.improvement_ratio >= 0.15 and res.state.queries <= 5000
          and elapsed < 300.0)
    report(4, ok, f"OLO SNR {res.final_snr:.1f} vs baseline "
                  f"{res.baseline_snr:.1f}: {100 * res.improvement_ratio:+.1f}% "
                  f"(needs >= +15%), {res.state.queries} queries, {elapsed:.1f}s")


def test_criterion_05_optimizer_on_quadratic():
    t0 = time.perf_counter()
    target = 0.6 * np.ones(20)
    cfg = nv.OptimizerConfig(alpha0=0.2, rho=0.5, alpha_min=1e-3,
                             max_queries=100_000)
    state = nv.hj_optimize(lambda u: -float(np.sum((u - target) ** 2)),
                           0.2 * np.ones(20), cfg)
    gap = float(np.max(np.abs(state.best - target)))
    counts = {}
    for rec in state.history:
        if rec.cycle > 0:
            counts[rec.cycle] = counts.get(rec.cycle, 0) + 1
    complete = [k for c, k in counts.items() if c < state.cycle]
    accounting = all(21 <= k <= 41 for k in complete)
    incumbents = np.maximum.accumulate([r.value for r in state.history])
    monotone = bool(np.all(np.diff(incumbents) >= 0))
    elapsed = time.perf_counter() - t0
    ok = gap <= 2e-3 and accounting and monotone and elapsed < 10.0
    report(5, ok, f"||u - u*||_inf = {gap:.2e} (<= 2e-3), per-cycle queries "
                  f"in [21, 41]={accounting}, incumbent monotone={monotone}, "
                  f"{elapsed:.2f}s")


def test_criterion_06_snr_sqrt_n_scaling(params, base_seq):
    t0 = time.perf_counter()
    l0, l1 = nv.pair_window_counts(replace(base_seq, repetitions=1.0), params)
    worst = 0.0
    for N in (1e4, 1e6, 1e8):
        got = nv.snr(N * l0, N * l1)
        want = np.sqrt(N) * nv.snr(l0, l1)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report(6, ok, f"SNR scales as sqrt(N) across 1e4..1e8, worst relative "
                  f"error {worst:.1e} (< 1e-9), {elapsed:.2f}s")


def test_criterion_07_order_of_magnitude_anchor(run, params, base_seq):
    t0 = time.perf_counter()
    sweep = nv.run_sweep(run.baseline_snr, params)
    wf = nv.make_constant(sweep.best_duration_ns, sweep.best_amplitude)
    cfg = replace(base_seq, init_wf=wf, readout_wf=wf)
    L0, L1 = nv.pair_window_counts(cfg, params)
    per_rep = L0 / cfg.repetitions
    value = nv.snr(L0, L1)
    elapsed = time.perf_counter() - t0
    ok = (100.0 <= value <= 1000.0 and 0.002 <= per_rep <= 0.2
          and elapsed < 10.0)
    report(7, ok, f"best constant scheme at N=1e8: SNR {value:.1f} in "
                  f"[100, 1000], {per_rep:.3f} detected photons/rep "
                  f"(~0.02 target), {elapsed:.2f}s")


def test_criterion_08_rabi_orderings_deterministic(run, params, tmp_path):
    t0 = time.perf_counter()
    rabi_cfg, sequences = rabi_scheme_configs(
        scheme_inputs(run, params), tmp_path, repetitions=1e8,
        stochastic=False, seed=0)
    comp = nv.compare_schemes(rabi_cfg, sequences, params)
    elapsed = time.perf_counter() - t0
    contrast_ok = comp.orderings["olo_contrast_above_constant_snr"]
    meandev_ok = comp.orderings["olo_meandev_below_constant_contrast"]
    detail = (
        "deterministic: contrast OLO "
        f"{100 * comp.contrasts['olo-snr']:.1f}% > constant-SNR "
        f"{100 * comp.contrasts['constant-snr']:.1f}% = {contrast_ok}; "
        f"mean_dev OLO {comp.mean_devs['olo-snr']:.2e} < constant-contrast "
        f"{comp.mean_devs['constant-contrast']:.2e} = {meandev_ok} "
        "(expected shot-noise mean deviations at N=1e8), "
        f"{elapsed:.1f}s"
    )
    report(8, contrast_ok and meandev_ok and elapsed < 300.0, detail)


def test_criterion_08_rabi_orderings_stochastic(run, params, tmp_path):
    t0 = time.perf_counter()
    inputs = scheme_inputs(run, params)
    hold = 0
    for seed in range(20):
        rabi_cfg, sequences = rabi_scheme_configs(
            inputs, tmp_path, repetitions=1e6, stochastic=True, seed=seed)
        comp = nv.compare_schemes(rabi_cfg, sequences, params)
        if (comp.orderings["olo_contrast_above_constant_snr"]
                and comp.orderings["olo_meandev_below_constant_contrast"]):
            hold += 1
    elapsed = time.perf_counter() - t0
    ok = hold >= 16 and elapsed < 300.0
    report(8, ok, f"stochastic (N=1e6): both orderings hold for {hold}/20 "
                  f"seeds (needs >= 16), {elapsed:.1f}s")


def test_criterion_09_poisson_statistics():
    t0 = time.perf_counter()
    mean = 1e6
    draws = np.array([nv.sample_counts(mean, s) for s in range(100)],
                     dtype=float)
    mean_err = abs(draws.mean() - mean)
    mean_limit = 4 * np.sqrt(mean / draws.size)
    var_ratio = draws.var(ddof=1) / mean
    elapsed = time.perf_counter() - t0
    ok = (mean_err < mean_limit and abs(var_ratio - 1.0) <= 0.2
          and elapsed < 5.0)
    report(9, ok, f"100 Poisson draws at mean 1e6: |mean error| "
                  f"{mean_err:.0f} < {mean_limit:.0f} (4 sigma), "
                  f"variance/mean {var_ratio:.3f} in [0.8, 1.2], {elapsed:.2f}s")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    from nvreadout.io import write_waveform_csv

    wf_path = tmp_path / "wf.csv"
    write_waveform_csv(nv.PiecewiseWaveform(
        920.0, np.concatenate([np.full(4, 1.0), np.zeros(16)])), wf_path)
    # rabi reads the OLO init amplitude from the summary beside the waveform
    (tmp_path / "olo_summary.json").write_text('{"init_amplitude": 0.02}')
    fast_sweep = ["--set", "sweep.amplitude_points=4",
                  "--set", "sweep.duration_points=3"]
    commands = {
        "trace": ["trace", "--seed", "3"],
        "sweep": ["sweep", "--seed", "3", *fast_sweep],
        "optimize": ["optimize", "--seed", "3", "--stochastic", *fast_sweep,
                     "--set", "olo.n_read=5",
                     "--set", "olo.max_queries=40",
                     "--set", "olo.init_scan_points=3"],
        "rabi": ["rabi", "--seed", "3", "--stochastic", *fast_sweep,
                 "--set", f"rabi.olo_waveform={wf_path}",
                 "--set", "rabi.tau_points=31",
                 "--set", "rabi.repetitions=1.0e6"],
    }
    all_ok = True
    details = []
    for name, argv in commands.items():
        out = tmp_path / name
        argv = argv + ["--out", str(out)]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        same = set(first) == set(second) and all(
            first[k] == second[k] for k in first if k != "manifest.json")
        m1 = json.loads(first["manifest.json"])
        m2 = json.loads(second["manifest.json"])
        m1.pop("wall_time_s"), m2.pop("wall_time_s")
        same = same and m1 == m2
        details.append(f"{name}={'ok' if same else 'DIFFERS'}")
        all_ok = all_ok and same
    elapsed = time.perf_counter() - t0
    report(10, all_ok, "byte-identical reruns (manifest compared without "
                       f"wall time): {', '.join(details)}, {elapsed:.1f}s")
