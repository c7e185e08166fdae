import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import nvreadout as nv
from nvreadout.io import (
    write_optimizer_log,
    write_sweep_grid_csv,
    write_sweep_projection_csv,
    write_waveform_csv,
)


def fmt(x) -> str:
    """One numpy scalar at a time, as the writers formatted every value
    before they converted whole arrays with ``tolist``."""
    return repr(float(x))


def text(header, rows) -> str:
    return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"


def test_text_equals_per_value_formatting_with_nan_cells(tmp_path, params,
                                                         base_seq):
    # amplitude 0 gives no photons, so its grid row and projection are NaN
    spec = nv.SweepSpec(amplitudes=np.array([0.0, 0.07, 0.45, 1.0]),
                        durations_ns=np.array([150.0, 433.3, 1100.7]),
                        base=base_seq)
    result = nv.run_sweep(spec, params)
    assert np.isnan(result.grid[0]).all() and np.isfinite(result.grid[1:]).all()

    write_sweep_grid_csv(result, tmp_path / "grid.csv")
    assert (tmp_path / "grid.csv").read_text() == text(
        ["power", "duration_ns", "snr"],
        ([fmt(a), fmt(d), fmt(result.grid[i, j])]
         for i, a in enumerate(spec.amplitudes)
         for j, d in enumerate(spec.durations_ns)))

    write_sweep_projection_csv(result, tmp_path / "projection.csv")
    assert (tmp_path / "projection.csv").read_text() == text(
        ["power", "best_snr", "best_duration_ns"],
        ([fmt(a), fmt(v), fmt(d)] for a, v, d in zip(
            spec.amplitudes, result.best_per_amplitude,
            result.best_duration_per_amplitude)))

    wf = nv.PiecewiseWaveform(1000.0, np.array([0.1, 1 / 3, 0.0, 0.7]))
    write_waveform_csv(wf, tmp_path / "waveform.csv")
    width = wf.piece_width_ns
    assert (tmp_path / "waveform.csv").read_text() == text(
        ["piece_index", "start_ns", "width_ns", "amplitude"],
        ([str(i), fmt(i * width), fmt(width), fmt(a)]
         for i, a in enumerate(wf.amplitudes)))


edge_floats = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                               1e16, 1e-5, 0.1, 1 / 3]) | st.floats()
query_records = st.builds(
    nv.QueryRecord, query_index=st.integers(0, 10**6),
    cycle=st.integers(0, 10**4),
    u=st.lists(edge_floats, max_size=6).map(np.array), value=edge_floats,
    alpha=edge_floats, accepted=st.booleans())


@given(st.lists(query_records, max_size=5))
def test_log_lines_equal_json_of_each_record(tmp_path_factory, records):
    # the log is formatted directly; json.dumps is the reference, NaN and
    # infinity included
    path = tmp_path_factory.mktemp("log") / "olo_log.jsonl"
    state = nv.OptimizerState(best=None, best_value=0.0, alpha=0.1,
                              history=records)
    write_optimizer_log(state, path)
    assert path.read_text() == "\n".join(
        json.dumps(rec.as_dict(), sort_keys=True) for rec in records) + "\n"
