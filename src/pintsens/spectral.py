"""Frequency-domain post-processing of sensitivity series.

Welch power-spectrum estimation (averaged windowed periodograms), ranking of
parameters by their nominal-weighted influence over the analysis window, and
relative normalization for stacked plots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.signal

from .adjoint import SensitivitySeries


@dataclass
class PowerSpectrum:
    freqs: np.ndarray           # Hz bins, ascending, one-sided
    psd: np.ndarray             # (..., n_bins) power density, >= 0

    def write_csv(self, path, names=None):
        psd = np.atleast_2d(self.psd)
        if names is None:
            names = [f"s{i}" for i in range(psd.shape[0])]
        with open(path, "w") as f:
            f.write("f_hz," + ",".join(names) + "\n")
            for j, freq in enumerate(self.freqs):
                row = [freq, *psd[:, j]]
                f.write(",".join(f"{x:.17g}" for x in row) + "\n")


def welch_psd(series, dt: float, segment_len: int = 256,
              overlap: float = 0.5, window: str = "hann") -> PowerSpectrum:
    """One-sided Welch estimate of a uniformly sampled signal.

    ``series`` may be 1-D or (n_signals, n_samples); the mean is removed per
    segment so the density integrates to the signal variance (Parseval).
    """
    series = np.asarray(series, dtype=float)
    n_samples = series.shape[-1]
    if segment_len > n_samples:
        raise ValueError(f"segment_len {segment_len} exceeds series length {n_samples}")
    freqs, psd = scipy.signal.welch(
        series, fs=1.0 / dt, window=window, nperseg=segment_len,
        noverlap=int(round(overlap * segment_len)), detrend="constant",
        scaling="density", axis=-1)
    return PowerSpectrum(freqs, psd)


def _nominal_weights(series: SensitivitySeries) -> np.ndarray:
    return np.array([abs(p.nominal) for p in series.params])


def rank_parameters(series: SensitivitySeries, k: int):
    """Top-k parameters by score_i = integral |dU/dp_i(t_m)| * |p_i| dt_m.

    The nominal-value weighting makes Ohm, Henry and Farad sensitivities
    commensurable.  The integral runs over the instants in ascending order,
    whatever order the series holds them in.  Ties break lexicographically
    by parameter name.
    """
    if k > len(series.params):
        raise ValueError(f"k={k} exceeds the {len(series.params)} parameters")
    ascending = np.argsort(series.instants, kind="stable")
    absvals = np.abs(series.values[ascending])
    if len(ascending) > 1:
        integral = np.trapezoid(absvals, x=series.instants[ascending], axis=0)
    else:
        integral = absvals[0]
    scores = integral * _nominal_weights(series)
    order = sorted(range(len(series.params)),
                   key=lambda j: (-scores[j], series.params[j].name.lower()))
    return [(series.params[j], float(scores[j])) for j in order[:k]]


def normalize_relative(series: SensitivitySeries, selected):
    """Per-instant fractions of nominal-weighted |sensitivity| over the
    selected parameters.  Columns sum to 1; all-zero columns fall back to a
    uniform split and are flagged in the returned mask.

    Returns (fractions of shape (n_selected, n_instants), degenerate_mask).
    """
    if not selected:
        raise ValueError("selected parameter list is empty")
    idx = []
    for p in selected:
        name = p.name if hasattr(p, "name") else p
        for j, q in enumerate(series.params):
            if q.name.lower() == name.lower():
                idx.append(j)
                break
        else:
            raise KeyError(name)
    weighted = np.abs(series.values[:, idx]) * _nominal_weights(series)[idx]
    totals = weighted.sum(axis=1)
    degenerate = totals == 0.0
    fractions = np.empty_like(weighted)
    ok = ~degenerate
    fractions[ok] = weighted[ok] / totals[ok, None]
    fractions[degenerate] = 1.0 / len(idx)
    return fractions.T, degenerate


def ranking_to_json(ranking) -> str:
    return json.dumps([{"param": p.name, "score": score} for p, score in ranking])
