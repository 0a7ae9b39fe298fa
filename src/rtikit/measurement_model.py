"""RSS changes to ellipse-occupancy probabilities and stacked measurements.

Each (link, channel) RSS change Δr is mapped to the probability that the
person is inside the corresponding direction-dependent ellipse:
p = 1 − exp(−β^δ |Δr|), where the loss-direction rate β⁻ is constant and
the gain-direction rate β⁺ grows with fade level. Probabilities are then
stacked as one (channel, direction, link) array, the multi-scale
weight-matrix row order, with the non-matching direction slot left at zero
and both slots of an uncalibrated pair at zero.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .calibration import FadeLevelTable
from .spatial_model import DIR_DOWN, DIR_UP

__all__ = [
    "MeasurementModelParams",
    "HoldBuffer",
    "MeasurementAssembler",
    "beta_plus",
    "inside_probability",
]


@dataclass(frozen=True)
class MeasurementModelParams:
    """Probability-model rates plus frame-handling policy knobs.

    Attributes:
        beta_minus: decay rate for RSS loss, 1/dB (fade-level independent).
        k_beta_plus: fade-level shape of the gain-direction rate, dB.
        b_beta_plus: gain-direction rate at F = 0, 1/dB.
        hold_frames: missing samples repeat the last Δr for at most this
            many consecutive frames, then count as 0. The window counts
            frames of the recording, not k: a gap in k with no frame in it
            costs no hold.
    """

    beta_minus: float = 0.1172
    k_beta_plus: float = 13.0018
    b_beta_plus: float = 0.1839
    hold_frames: int = 5

    def __post_init__(self):
        inf = np.inf
        for name, bound, ok in (  # each test is False for NaN
                ("beta_minus", "finite and > 0", 0 < self.beta_minus < inf),
                ("k_beta_plus", "finite and > 0", 0 < self.k_beta_plus < inf),
                ("b_beta_plus", "finite and > 0", 0 < self.b_beta_plus < inf),
                ("hold_frames", "an integer >= 0",
                 isinstance(self.hold_frames, Integral) and self.hold_frames >= 0)):
            if not ok:
                raise ValueError(f"{name} must be {bound}, got {getattr(self, name)!r}")


def beta_plus(fade_level: float, params: MeasurementModelParams) -> float:
    """Gain-direction decay rate in 1/dB: b_β⁺ · exp(F / k_β⁺).

    fade_level is a finite scalar, or an array, elementwise, where a NaN
    entry (an unobserved pair) gives a NaN rate.
    """
    if np.ndim(fade_level) == 0 and not np.isfinite(fade_level):
        raise ValueError("fade level must be finite")
    return params.b_beta_plus * np.exp(fade_level / params.k_beta_plus)


def _slot_probabilities(delta_r, rate_up, beta_minus):
    """The "+" and "-" slots of RSS changes Δr, elementwise.

    The slot whose direction δ matches the sign of Δr holds the in-ellipse
    probability 1 − exp(−β^δ |Δr|), with β⁺ = rate_up and β⁻ = beta_minus;
    the other slot holds 0, and both do where Δr is 0.
    """
    up = delta_r > 0
    p = 1.0 - np.exp(-np.where(up, rate_up, beta_minus) * np.abs(delta_r))
    return np.where(up, p, 0.0), np.where(delta_r < 0, p, 0.0)


def inside_probability(delta_r: float, fade_level: float,
                       params: MeasurementModelParams) -> tuple[str, float]:
    """Direction and in-ellipse probability for one RSS change.

    Args:
        delta_r: RSS change in dB, finite.
        fade_level: calibrated fade level of the pair, finite.
        params: model parameters.

    Returns:
        (direction, probability): direction is "+" for Δr > 0 and "-"
        otherwise; probability is 1 − exp(−β^δ |Δr|), which is 0 at
        Δr = 0 (direction then "-" by convention; both slots would be
        zero either way).
    """
    if not np.isfinite(delta_r):
        raise ValueError("delta_r must be finite")
    p_up, p_down = _slot_probabilities(
        delta_r, beta_plus(fade_level, params), params.beta_minus)
    if delta_r > 0:
        return DIR_UP, float(p_up)
    return DIR_DOWN, float(p_down)


class HoldBuffer:
    """Per-pipeline missing-sample state for the hold policy.

    Tracks the last observed Δr (0 before the first) and the consecutive-
    miss count of every (link, channel), and is the one place that decides
    what a pair with no value reads. A miss is counted per update, that is
    per frame handed over, whatever the frames' k: the window spans
    frames, not time indices. One buffer belongs to exactly one
    sequential pass over a trace.
    """

    def __init__(self, n_links: int, n_channels: int, hold_frames: int):
        if not (isinstance(hold_frames, Integral) and hold_frames >= 0):
            raise ValueError(f"hold_frames must be an integer >= 0, got {hold_frames!r}")
        self.hold_frames = hold_frames
        self._last = np.zeros((n_links, n_channels))
        self._missed = np.zeros((n_links, n_channels), dtype=np.int64)

    def update(self, delta_obs: np.ndarray) -> np.ndarray:
        """Fill gaps in one frame's Δr and advance the hold state.

        Args:
            delta_obs: (L, C) observed Δr, NaN where there is no value.

        Returns:
            (L, C) Δr with no NaN: a gap reads the last observed value
            while within the hold window, and 0 after it expires or with
            no history.
        """
        if delta_obs.shape != self._last.shape:
            raise ValueError(
                f"expected shape {self._last.shape}, got {delta_obs.shape}"
            )
        fresh = ~np.isnan(delta_obs)
        self._missed += 1
        self._missed[fresh] = 0
        self._last[fresh] = delta_obs[fresh]
        return np.where(self._missed <= self.hold_frames, self._last, 0.0)


class MeasurementAssembler:
    """Maps a filled (L, C) Δr, as HoldBuffer.update gives it, to msrti
    measurement vectors.

    The vector is the C-order of a (C, 2, L) array of in-ellipse
    probabilities — channel, then direction ("+" before "-"), then link —
    the row order of build_multiscale_weights. An uncalibrated pair, whose
    Δr is 0, reads 0 in both slots, as do its all-zero weight rows.
    """

    def __init__(self, fades: FadeLevelTable, params: MeasurementModelParams):
        self.params = params
        self._beta_up = beta_plus(fades.values, params)  # fixed per (link, channel)

    def __call__(self, delta_r: np.ndarray) -> np.ndarray:
        """(2·C·L,) probabilities in [0, 1) of an (L, C) Δr with no NaN;
        the entry of (c, δ, l) is the in-ellipse probability when δ
        matches the sign of Δr_cl, else 0."""
        p_up, p_down = _slot_probabilities(delta_r, self._beta_up,
                                           self.params.beta_minus)
        return np.stack((p_up.T, p_down.T), axis=1).reshape(-1)
