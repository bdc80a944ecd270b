"""Welch spectra and parameter ranking/normalization properties."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pintsens import (welch_psd, rank_parameters, normalize_relative,
                      ranking_to_json)
from pintsens.netlist import Parameter
from pintsens.adjoint import SensitivitySeries


def make_series(values, nominals, instants=None):
    values = np.asarray(values, dtype=float)
    n_p = values.shape[1]
    params = tuple(Parameter(id=j, name=f"P{j}", element=f"P{j}", kind="R",
                             nominal=nominals[j]) for j in range(n_p))
    if instants is None:
        instants = np.linspace(0.0, 1.0, values.shape[0])
    return SensitivitySeries(np.asarray(instants, float), params, values)


class TestWelch:
    dt = 1e-4

    def test_on_bin_sine_peaks_at_its_frequency(self):
        # 256-point segments at 10 kHz -> bin width 39.0625 Hz; 625 Hz is
        # exactly bin 16
        t = np.arange(4096) * self.dt
        f0 = 16 / (256 * self.dt)
        spec = welch_psd(np.sin(2 * np.pi * f0 * t), self.dt)
        assert spec.freqs[np.argmax(spec.psd)] == pytest.approx(f0)

    def test_psd_nonnegative_and_one_sided(self):
        rng = np.random.default_rng(0)
        spec = welch_psd(rng.standard_normal(2048), self.dt)
        assert np.all(spec.psd >= 0.0)
        assert spec.freqs[0] == 0.0
        assert spec.freqs[-1] == pytest.approx(0.5 / self.dt)

    def test_parseval_within_five_percent(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(65536)
        spec = welch_psd(x, self.dt)
        df = spec.freqs[1] - spec.freqs[0]
        assert np.sum(spec.psd) * df == pytest.approx(np.var(x), rel=0.05)

    def test_white_noise_density_level(self):
        # one-sided density of unit white noise sampled at fs: 2 sigma^2 / fs
        rng = np.random.default_rng(7)
        x = rng.standard_normal(262144)
        spec = welch_psd(x, self.dt)
        level = np.mean(spec.psd[1:-1])
        assert level == pytest.approx(2.0 * self.dt, rel=0.2)

    def test_zero_signal_zero_spectrum(self):
        spec = welch_psd(np.zeros(1024), self.dt)
        assert np.max(spec.psd) == 0.0

    def test_mean_removed_before_transform(self):
        spec_dc = welch_psd(np.full(2048, 5.0), self.dt)
        assert np.max(spec_dc.psd) == pytest.approx(0.0, abs=1e-20)

    def test_two_dimensional_input(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 2048))
        spec = welch_psd(x, self.dt)
        assert spec.psd.shape == (3, len(spec.freqs))

    def test_segment_longer_than_series_rejected(self):
        with pytest.raises(ValueError):
            welch_psd(np.zeros(100), self.dt, segment_len=256)

    def test_csv_output(self, tmp_path):
        spec = welch_psd(np.sin(np.arange(1024)), self.dt)
        path = tmp_path / "psd.csv"
        spec.write_csv(path, names=["sig"])
        lines = path.read_text().splitlines()
        assert lines[0] == "f_hz,sig"
        assert len(lines) == len(spec.freqs) + 1


class TestRanking:
    def test_scores_weight_by_nominal(self):
        # P0 has the larger raw sensitivity but tiny nominal; P1 must win
        ser = make_series([[2.0, 1.0]] * 5, nominals=[1e-3, 1.0])
        ranking = rank_parameters(ser, 2)
        assert [p.name for p, _ in ranking] == ["P1", "P0"]

    def test_scores_are_time_integrals(self):
        ser = make_series([[1.0], [3.0], [1.0]], nominals=[2.0],
                          instants=[0.0, 0.5, 1.0])
        (_, score), = rank_parameters(ser, 1)
        assert score == pytest.approx(2.0 * 2.0)   # trapezoid of |s| times |p|

    def test_permuted_instants_give_the_same_ranking(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((7, 3))
        instants = np.cumsum(rng.uniform(0.1, 1.0, 7))
        perm = rng.permutation(7)
        ser = make_series(values, nominals=[1.0, 2.0, 0.5], instants=instants)
        shuffled = make_series(values[perm], nominals=[1.0, 2.0, 0.5],
                               instants=instants[perm])
        assert rank_parameters(shuffled, 3) == rank_parameters(ser, 3)

    def test_ties_break_lexicographically(self):
        ser = make_series([[1.0, 1.0, 1.0]] * 3, nominals=[1.0, 1.0, 1.0])
        ranking = rank_parameters(ser, 3)
        assert [p.name for p, _ in ranking] == ["P0", "P1", "P2"]

    def test_k_too_large_rejected(self):
        ser = make_series([[1.0, 2.0]] * 3, nominals=[1.0, 1.0])
        with pytest.raises(ValueError):
            rank_parameters(ser, 3)

    def test_json_round_trip(self):
        ser = make_series([[1.0, 2.0]] * 3, nominals=[1.0, 1.0])
        doc = json.loads(ranking_to_json(rank_parameters(ser, 2)))
        assert [d["param"] for d in doc] == ["P1", "P0"]
        assert all(d["score"] >= 0 for d in doc)


class TestNormalize:
    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(5)
        ser = make_series(rng.standard_normal((20, 4)),
                          nominals=[1.0, 2.0, 0.5, 3.0])
        frac, mask = normalize_relative(ser, list(ser.params))
        assert frac.shape == (4, 20)
        np.testing.assert_allclose(frac.sum(axis=0), 1.0, atol=1e-12)
        assert not mask.any()

    def test_degenerate_instants_get_uniform_split(self):
        vals = np.ones((3, 2))
        vals[1] = 0.0
        ser = make_series(vals, nominals=[1.0, 1.0])
        frac, mask = normalize_relative(ser, list(ser.params))
        assert list(mask) == [False, True, False]
        np.testing.assert_allclose(frac[:, 1], 0.5)

    def test_subset_selection_by_name(self):
        ser = make_series(np.ones((4, 3)), nominals=[1.0, 1.0, 1.0])
        frac, _ = normalize_relative(ser, ["P2", "P0"])
        assert frac.shape == (2, 4)
        np.testing.assert_allclose(frac.sum(axis=0), 1.0, atol=1e-12)

    def test_unknown_or_empty_selection_rejected(self):
        ser = make_series(np.ones((4, 2)), nominals=[1.0, 1.0])
        with pytest.raises(KeyError):
            normalize_relative(ser, ["nope"])
        with pytest.raises(ValueError):
            normalize_relative(ser, [])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_welch_amplitude_invariance(seed, scale):
    """Scaling a signal by a scales the density by a^2."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(1024)
    base = welch_psd(x, 1e-3).psd
    scaled = welch_psd(scale * x, 1e-3).psd
    np.testing.assert_allclose(scaled, scale ** 2 * base, rtol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_welch_shift_invariance(seed):
    """Adding a constant offset leaves the detrended density unchanged."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(1024)
    base = welch_psd(x, 1e-3).psd
    shifted = welch_psd(x + 17.5, 1e-3).psd
    np.testing.assert_allclose(shifted, base, rtol=1e-7, atol=1e-12)
