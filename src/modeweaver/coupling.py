"""Coupled-mode building blocks: grating mode-beamsplitters designed from
waveguide geometry, reduced to splitting ratios and 2x2 transfer matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import wgmodes
from .errors import InvalidInput, require_finite
from .wgmodes import ModeId, WaveguideGeometry

# Anchor point for the per-period coupling strength: a 24 nm deep tooth
# gives kappa = 0.041 rad/period; kappa scales linearly with depth
# (first-order perturbation). The paper's grating has that depth, and
# this period count and mode pair.
REFERENCE_GRATING_DEPTH_NM = 24.0
REFERENCE_KAPPA_PER_PERIOD = 0.041
DEFAULT_NUM_PERIODS = 20
DEFAULT_MODE_PAIR = (ModeId("TE", 0), ModeId("TE", 2))


def splitting_ratio(kappa_per_period: float, num_periods: float) -> float:
    """Cross-coupling (mode-exchange) probability sin^2(kappa * N)."""
    if kappa_per_period < 0 or num_periods < 0:
        raise InvalidInput("kappa and N must be non-negative")
    try:
        phase = kappa_per_period * num_periods
    except OverflowError:  # an integer N too large for a float
        phase = math.inf
    if not math.isfinite(phase):
        raise InvalidInput(f"kappa * N = {phase} is not finite")
    return math.sin(phase) ** 2


def coupler_unitary(eta: float) -> np.ndarray:
    """Beamsplitter matrix [[t, i r], [i r, t]] with r = sqrt(eta).

    Any fixed lossless convention gives the same probabilities; the
    symmetric i-on-cross-terms form is used so amplitudes are testable.
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidInput(f"eta = {eta} outside [0, 1]")
    t = math.sqrt(1.0 - eta)
    r = math.sqrt(eta)
    return np.array([[t, 1j * r], [1j * r, t]], dtype=np.complex128)


@dataclass(frozen=True, eq=False, repr=False)
class GratingSpec:
    """A width-modulation grating coupling two co-propagating modes."""

    period_um: float
    depth_nm: float
    num_periods: int
    kappa_per_period: float
    mode_pair: tuple[ModeId, ModeId]

    def __post_init__(self):
        require_finite(
            period_um=self.period_um,
            depth_nm=self.depth_nm,
            kappa_per_period=self.kappa_per_period,
        )
        if self.period_um <= 0:
            raise InvalidInput("grating period must be positive")
        if self.num_periods < 0 or self.kappa_per_period < 0:
            raise InvalidInput("N and kappa must be non-negative")

    @property
    def symmetry(self) -> str:
        """By the parity rule: a symmetric grating couples mode orders of
        equal parity, an asymmetric one orders of opposite parity."""
        a, b = self.mode_pair
        return "symmetric" if (a.order - b.order) % 2 == 0 else "asymmetric"

    @property
    def eta(self) -> float:
        return splitting_ratio(self.kappa_per_period, self.num_periods)

    @property
    def length_um(self) -> float:
        return self.period_um * self.num_periods

    def to_dict(self) -> dict:
        return {
            "period_um": self.period_um,
            "depth_nm": self.depth_nm,
            "num_periods": self.num_periods,
            "kappa_per_period": self.kappa_per_period,
            "mode_pair": [str(m) for m in self.mode_pair],
            "symmetry": self.symmetry,
            "eta": self.eta,
            "length_um": self.length_um,
        }


def grating_from_geometry(
    geometry: WaveguideGeometry,
    mode_pair: tuple[ModeId, ModeId] = DEFAULT_MODE_PAIR,
    depth_nm: float = REFERENCE_GRATING_DEPTH_NM,
    num_periods: int = DEFAULT_NUM_PERIODS,
    kappa_override: float | None = None,
) -> GratingSpec:
    """Design a grating for a mode pair from waveguide geometry.

    Period from the effective-index difference; kappa from the override or
    the reference anchor scaled linearly in depth.
    """
    if depth_nm < 0:
        raise InvalidInput("depth must be non-negative")
    n_a, n_b = wgmodes.effective_indices(geometry, mode_pair)
    period_um = wgmodes.grating_period(
        geometry.stack.wavelength_nm, abs(n_a - n_b)
    )
    if kappa_override is not None:
        kappa = kappa_override
    else:
        kappa = REFERENCE_KAPPA_PER_PERIOD * depth_nm / REFERENCE_GRATING_DEPTH_NM
    return GratingSpec(
        period_um=period_um,
        depth_nm=depth_nm,
        num_periods=num_periods,
        kappa_per_period=kappa,
        mode_pair=mode_pair,
    )

