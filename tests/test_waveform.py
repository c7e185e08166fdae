import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvreadout as nv
from nvreadout.errors import ParameterError
from nvreadout.io import read_waveform_csv, write_waveform_csv

amplitude_vectors = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=32,
).map(np.array)


class TestPiecewiseWaveform:
    def test_constant_single_piece(self):
        wf = nv.make_constant(300.0, 0.2)
        assert wf.n == 1
        assert wf.piece_width_ns == 300.0
        assert wf.amplitudes[0] == 0.2

    def test_piece_widths_sum_to_duration(self):
        wf = nv.PiecewiseWaveform(920.0, np.full(20, 0.5))
        assert wf.piece_width_ns * wf.n == pytest.approx(920.0, rel=1e-15)

    def test_out_of_bounds_amplitude_rejected(self):
        with pytest.raises(ParameterError):
            nv.make_constant(100.0, 1.2)
        with pytest.raises(ParameterError):
            nv.PiecewiseWaveform(100.0, np.array([0.1, -0.2]))

    def test_invalid_shape_rejected(self):
        with pytest.raises(ParameterError):
            nv.PiecewiseWaveform(0.0, np.array([0.5]))
        with pytest.raises(ParameterError):
            nv.PiecewiseWaveform(100.0, np.array([]))

    def test_amplitudes_immutable(self):
        wf = nv.PiecewiseWaveform(100.0, np.full(4, 0.5))
        with pytest.raises(ValueError):
            wf.amplitudes[0] = 0.9


class TestCsvRoundTrip:
    @given(amps=amplitude_vectors, duration=st.floats(1.0, 5000.0))
    @settings(max_examples=40, deadline=None)
    def test_bit_exact(self, amps, duration, tmp_path_factory):
        wf = nv.PiecewiseWaveform(duration, amps)
        path = tmp_path_factory.mktemp("wf") / "wf.csv"
        write_waveform_csv(wf, path)
        back = read_waveform_csv(path)
        assert np.array_equal(back.amplitudes, wf.amplitudes)
        assert back.n == wf.n
