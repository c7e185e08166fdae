"""CSV and JSON serialization of simulation artifacts.

All floats are written with ``repr`` (shortest round-trip form), so files
regenerate byte-identically for identical inputs and parse back bit-exactly.
Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParameterError
from .harness import OloResult, SweepResult
from .optimizer import OptimizerState, QueryRecord
from .pumpsim import PumpTrace
from .rabi import RabiCurve
from .waveform import PiecewiseWaveform

#: The optimize command's summary, which rabi reads its OLO init amplitude from.
OLO_SUMMARY = "olo_summary.json"


def _texts(values) -> list[str]:
    """``repr`` of every value of a 1-D array, as a float: one conversion
    of the whole array, then plain Python floats."""
    return [repr(x) for x in np.asarray(values, dtype=float).tolist()]


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``, making its directory if need be: a
    command's output directory appears with its first file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_rows(path: str | Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: str | Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_waveform_csv(wf: PiecewiseWaveform, path: str | Path) -> None:
    width = repr(float(wf.piece_width_ns))
    starts = _texts(np.arange(wf.n) * wf.piece_width_ns)
    rows = (
        [str(i), start, width, a]
        for i, (start, a) in enumerate(zip(starts, _texts(wf.amplitudes)))
    )
    _write_rows(path, ["piece_index", "start_ns", "width_ns", "amplitude"], rows)


def read_waveform_csv(path: str | Path) -> PiecewiseWaveform:
    """The waveform in a CSV as :func:`write_waveform_csv` writes it.  The
    path comes from the config, so any malformed file (a missing column or
    cell, a value that is not a number, widths that are not finite, positive
    and equal, amplitudes the waveform rejects, text that is not UTF-8)
    raises ConfigurationError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.DictReader(lines)
    if not {"width_ns", "amplitude"} <= set(reader.fieldnames or ()):
        raise ConfigurationError(f"{path}: not a waveform CSV")
    try:
        pieces = [(float(row["width_ns"]), float(row["amplitude"]))
                  for row in reader]
    except (TypeError, ValueError):
        raise ConfigurationError(f"{path}, line {reader.line_num}: width_ns"
                                 " and amplitude must be numbers") from None
    if not pieces:
        raise ConfigurationError(f"{path}: empty waveform CSV")
    widths, amps = np.array(pieces).T
    if not np.all(np.isfinite(widths) & (widths > 0)):
        raise ConfigurationError(f"{path}: piece widths must be finite and > 0")
    if widths.max() - widths.min() > 1e-9 * widths.max():
        raise ConfigurationError(f"{path}: piece widths are not all equal")
    try:
        return PiecewiseWaveform(float(widths[0]) * amps.size, amps)
    except ParameterError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def write_pair_trace_csv(trace0: PumpTrace, trace1: PumpTrace,
                         path: str | Path) -> None:
    c0, c1 = trace0.expected_counts_per_rep, trace1.expected_counts_per_rep
    rows = zip(_texts(trace0.bin_starts_ns), _texts(c0), _texts(c1),
               _texts(c0 - c1))
    _write_rows(path, ["bin_start_ns", "expected_counts_per_rep_branch0",
                       "expected_counts_per_rep_branch1", "diff"], rows)


def write_sweep_grid_csv(result: SweepResult, path: str | Path) -> None:
    durations = _texts(result.spec.durations_ns)
    rows = ((amp, dur, value)
            for amp, values in zip(_texts(result.spec.amplitudes), result.grid)
            for dur, value in zip(durations, _texts(values)))
    _write_rows(path, ["power", "duration_ns", result.spec.metric], rows)


def write_sweep_projection_csv(result: SweepResult, path: str | Path) -> None:
    metric = result.spec.metric
    rows = zip(_texts(result.spec.amplitudes),
               _texts(result.best_per_amplitude),
               _texts(result.best_duration_per_amplitude))
    _write_rows(path, ["power", f"best_{metric}", "best_duration_ns"], rows)


def _log_line(rec: QueryRecord) -> str:
    """``json.dumps(rec.as_dict(), sort_keys=True)``, formatted directly:
    ``json`` writes a finite float, and a list of them, as its ``repr``.  A
    record holding a value that is not finite (or whose sum overflows) goes
    through ``json``.
    """
    u = np.asarray(rec.u, dtype=float).tolist()
    value, alpha = float(rec.value), float(rec.alpha)
    if not math.isfinite(value + alpha + sum(u)):
        return json.dumps(rec.as_dict(), sort_keys=True)
    return (f'{{"accepted": {"true" if rec.accepted else "false"}, '
            f'"alpha": {alpha!r}, "cycle": {rec.cycle}, '
            f'"query_index": {rec.query_index}, '
            f'"u": {u!r}, "value": {value!r}}}')


def write_optimizer_log(state: OptimizerState, path: str | Path) -> None:
    """One JSON record per objective query, in query order, keys sorted."""
    lines = [_log_line(rec) for rec in state.history]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_rabi_curve_csv(curve: RabiCurve, path: str | Path) -> None:
    fit_y = curve.fit.predict(curve.taus_ns)
    rows = zip(_texts(curve.taus_ns), _texts(curve.signals), _texts(fit_y),
               _texts(np.abs(curve.signals - fit_y)))
    _write_rows(path, ["tau_ns", "y", "fit_y", "deviation"], rows)


def olo_summary_dict(result: OloResult) -> dict:
    return {
        "init_amplitude": result.init_amplitude,
        "start_snr": result.start_snr,
        "baseline_snr": result.baseline_snr,
        "final_snr": result.final_snr,
        "improvement_ratio": result.improvement_ratio,
        "init_at_grid_edge": result.init_at_grid_edge,
        "queries": result.state.queries,
        "cycles": result.state.iterations,
        "final_alpha": result.state.alpha,
        "budget_exhausted": result.state.budget_exhausted,
        "best_value_as_queried": result.state.best_value,
    }
