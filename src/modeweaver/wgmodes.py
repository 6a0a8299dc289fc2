"""Effective-index modeling of rectangular multimode waveguides.

A high-contrast Si3N4/SiO2 rectangular waveguide is reduced to two nested
symmetric-slab problems (effective-index method): the vertical slab is solved
at its fundamental order, and its effective index then serves as the core
index of a horizontal slab solved at the requested lateral order. For
quasi-TE modes the vertical step uses the TE slab relation and the
horizontal step the TM relation; quasi-TM modes use the opposite ordering.

The slab relation is solved in its phase form

    u = m*pi/2 + atan2(q*w, u),   u^2 + w^2 = V^2

which is monotonic in u, so bracketing bisection converges to machine
precision and the residual of the relation is directly meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DegeneratePhaseMatch, InvalidInput, ModeCutoff, require_finite

# Sellmeier coefficients: Si3N4 from Luke et al. (LPCVD stoichiometric
# nitride), SiO2 from Malitson (fused silica). Wavelength arguments in um.
_SI3N4_SELLMEIER = ((3.0249, 0.1353406), (40314.0, 1239.842))
_SIO2_SELLMEIER = (
    (0.6961663, 0.0684043),
    (0.4079426, 0.1162414),
    (0.8974794, 9.896161),
)


def silicon_nitride_index(wavelength_nm: float) -> float:
    """Si3N4 refractive index at the given wavelength (Sellmeier)."""
    return _sellmeier_index(wavelength_nm, _SI3N4_SELLMEIER, "Si3N4")


def silica_index(wavelength_nm: float) -> float:
    """SiO2 refractive index at the given wavelength (Sellmeier)."""
    return _sellmeier_index(wavelength_nm, _SIO2_SELLMEIER, "SiO2")


def _sellmeier_index(wavelength_nm: float, terms, material: str) -> float:
    """sqrt(1 + sum b lam^2 / (lam^2 - c^2)), lam in um.

    InvalidInput unless the wavelength is finite and positive and the index
    is real and finite there (lam^2 may overflow, a pole divides by zero,
    and n^2 < 0 just above a resonance).
    """
    if not 0.0 < wavelength_nm < math.inf:
        raise InvalidInput(
            f"wavelength must be finite and positive, got {wavelength_nm} nm"
        )
    try:
        lam_um2 = (wavelength_nm * 1e-3) ** 2
        n2 = 1.0
        for b, c in terms:
            n2 += b * lam_um2 / (lam_um2 - c * c)
    except (OverflowError, ZeroDivisionError):
        n2 = math.nan
    if not 0.0 < n2 < math.inf:
        raise InvalidInput(
            f"{material} Sellmeier index is not real and finite at {wavelength_nm} nm"
        )
    return math.sqrt(n2)


# Frozen defaults at the 808 nm operating wavelength.
DEFAULT_WAVELENGTH_NM = 808.0
SI3N4_INDEX_808 = silicon_nitride_index(DEFAULT_WAVELENGTH_NM)
SIO2_INDEX_808 = silica_index(DEFAULT_WAVELENGTH_NM)


@dataclass(frozen=True)
class MaterialStack:
    """Core/cladding indices at a fixed wavelength (nm)."""

    n_core: float = SI3N4_INDEX_808
    n_clad: float = SIO2_INDEX_808
    wavelength_nm: float = DEFAULT_WAVELENGTH_NM

    def __post_init__(self):
        require_finite(
            n_core=self.n_core, n_clad=self.n_clad, wavelength_nm=self.wavelength_nm
        )
        if not (self.n_core > self.n_clad > 0):
            raise InvalidInput(
                f"need n_core > n_clad > 0, got {self.n_core}, {self.n_clad}"
            )
        if self.wavelength_nm <= 0:
            raise InvalidInput("wavelength must be positive")


@dataclass(frozen=True)
class WaveguideGeometry:
    """Rectangular cross-section (nm) on a material stack."""

    width_nm: float
    height_nm: float
    stack: MaterialStack = MaterialStack()

    def __post_init__(self):
        require_finite(width_nm=self.width_nm, height_nm=self.height_nm)
        if self.width_nm <= 0 or self.height_nm <= 0:
            raise InvalidInput("width and height must be positive")


@dataclass(frozen=True, order=True)
class ModeId:
    """Polarization family plus lateral order, e.g. TE0, TE2."""

    family: str = "TE"
    order: int = 0

    def __post_init__(self):
        if self.family not in ("TE", "TM"):
            raise InvalidInput(f"unknown mode family {self.family!r}")
        if self.order < 0:
            raise InvalidInput("mode order must be >= 0")

    def __str__(self):
        return f"{self.family}{self.order}"

    @classmethod
    def parse(cls, text: str) -> "ModeId":
        text = text.strip().upper()
        if len(text) < 3 or text[:2] not in ("TE", "TM") or not text[2:].isdigit():
            raise InvalidInput(f"cannot parse mode id {text!r}")
        return cls(text[:2], int(text[2:]))


def _slab_phase_residual(u: float, v_number: float, q: float, order: int) -> float:
    w = math.sqrt(max(v_number * v_number - u * u, 0.0))
    return u - 0.5 * order * math.pi - math.atan2(q * w, u)


def slab_neff(
    n_core: float,
    n_clad: float,
    thickness_nm: float,
    wavelength_nm: float,
    family: str = "TE",
    order: int = 0,
) -> float:
    """Effective index of a symmetric slab waveguide mode.

    Raises ModeCutoff when the order is not guided, InvalidInput for
    non-physical arguments.
    """
    if not (n_core > n_clad > 0):
        raise InvalidInput("need n_core > n_clad > 0")
    if thickness_nm <= 0 or wavelength_nm <= 0:
        raise InvalidInput("thickness and wavelength must be positive")
    if family not in ("TE", "TM"):
        raise InvalidInput(f"unknown family {family!r}")
    if order < 0:
        raise InvalidInput("order must be >= 0")

    half_kt = math.pi * thickness_nm / wavelength_nm  # k0 * t / 2
    v_number = half_kt * math.sqrt(n_core**2 - n_clad**2)
    if v_number <= 0.5 * order * math.pi:
        raise ModeCutoff(
            f"{family}{order} not guided: V={v_number:.4f} <= {order}*pi/2"
        )
    q = 1.0 if family == "TE" else (n_core / n_clad) ** 2

    lo = 0.5 * order * math.pi
    hi = min(v_number, 0.5 * (order + 1) * math.pi)
    # residual is negative at lo (atan2 > 0 there) and positive at hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _slab_phase_residual(mid, v_number, q, order) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    u = 0.5 * (lo + hi)
    n_eff_sq = n_core**2 - (u / half_kt) ** 2
    n_eff = math.sqrt(n_eff_sq)
    if not (n_clad < n_eff < n_core):
        raise ModeCutoff(f"{family}{order} solution left the guided interval")
    return n_eff


def effective_index(geometry: WaveguideGeometry, mode: ModeId) -> float:
    """Effective index of a rectangular-waveguide mode (effective-index method).

    Vertical slab first (fundamental order, thickness = height), then a
    horizontal slab (requested lateral order, thickness = width) whose core
    index is the vertical result. Raises ModeCutoff if either step has no
    guided solution.
    """
    stack = geometry.stack
    vertical_family = "TE" if mode.family == "TE" else "TM"
    horizontal_family = "TM" if mode.family == "TE" else "TE"
    n_vertical = slab_neff(
        stack.n_core,
        stack.n_clad,
        geometry.height_nm,
        stack.wavelength_nm,
        vertical_family,
        0,
    )
    return slab_neff(
        n_vertical,
        stack.n_clad,
        geometry.width_nm,
        stack.wavelength_nm,
        horizontal_family,
        mode.order,
    )


def grating_period(wavelength_nm: float, delta_n: float, tol: float = 1e-9) -> float:
    """Grating period (um) bridging an effective-index difference.

    period = wavelength / delta_n. Raises DegeneratePhaseMatch when delta_n
    is at or below tolerance: degenerate modes need no grating.
    """
    if wavelength_nm <= 0:
        raise InvalidInput("wavelength must be positive")
    if delta_n <= tol:
        raise DegeneratePhaseMatch(
            f"delta_n = {delta_n} <= {tol}; co-propagating identical modes"
        )
    return wavelength_nm / delta_n * 1e-3


def dispersion_sweep(
    values_nm: Sequence[float],
    modes: Iterable[ModeId],
    stack: MaterialStack = MaterialStack(),
    height_nm: float = 190.0,
) -> list[tuple[float, ModeId, float]]:
    """Sweep the width at a fixed height and tabulate n_eff per mode.

    Returns (width_nm, mode, n_eff) rows; a mode cut off at a width has no
    row there. Raises InvalidInput on an empty sweep.
    """
    values = list(values_nm)
    if not values:
        raise InvalidInput("empty sweep")
    modes = list(modes)
    rows = []
    for value in values:
        geom = WaveguideGeometry(value, height_nm, stack)
        for mode in modes:
            try:
                rows.append((value, mode, effective_index(geom, mode)))
            except ModeCutoff:
                pass
    return rows
