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

There are two bisection loops with the same bracket, residual and
arithmetic order. ``slab_neff`` solves one slab in scalar Python, for
single solves such as ``effective_index``. ``dispersion_sweep`` solves the
vertical slab once per polarisation family and then each requested mode
over its whole width grid in one numpy bisection, every element stopping at
its own break. ``np.arctan2`` and ``math.atan2`` differ in the last bit on
a few percent of arguments, so the two loops can end one bisection step
apart: on a dense sweep about one n_eff in a thousand moves by an ulp or
two, and near a cut-off, where n_eff is most sensitive to u, by up to
about 1e-15 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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
    # residual is negative at lo (atan2 > 0 there) and positive at hi; once
    # u >= 8 an ulp of u exceeds the 1e-15 stop width, and the bracket ends
    # when the midpoint rounds onto one of its ends
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
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


def _slab_neff_over_widths(
    n_core: float,
    n_clad: float,
    widths_nm: np.ndarray,
    wavelength_nm: float,
    family: str,
    order: int,
) -> np.ndarray:
    """slab_neff at each of an array of valid thicknesses, NaN where the
    order is not guided, in one bisection over the array.

    Bracket, residual and arithmetic order are those of slab_neff; an
    element stops updating at its own break, so only the last bit of
    np.arctan2 can make an element differ from the scalar solve.
    """
    # a thickness near the float maximum overflows k0*t/2 to inf, which the
    # scalar arithmetic does silently too
    with np.errstate(over="ignore"):
        half_kt = math.pi * widths_nm / wavelength_nm
        v_number = half_kt * math.sqrt(n_core**2 - n_clad**2)
        n_eff = np.full(len(widths_nm), math.nan)
        guided = v_number > 0.5 * order * math.pi
        half_kt, v_number = half_kt[guided], v_number[guided]
        q = 1.0 if family == "TE" else (n_core / n_clad) ** 2

        lo = np.full(len(v_number), 0.5 * order * math.pi)
        hi = np.minimum(v_number, 0.5 * (order + 1) * math.pi)
        v_squared = v_number * v_number
        active = np.ones(len(v_number), dtype=bool)
        # the loop works in these buffers and allocates no temporaries
        mid, w, residual = np.empty((3, len(v_number)))
        below, update = np.empty((2, len(v_number)), dtype=bool)
        for _ in range(200):
            np.multiply(0.5, np.add(lo, hi, out=mid), out=mid)
            active &= np.less(lo, mid, out=update)
            active &= np.less(mid, hi, out=update)
            if not active.any():
                break
            # below: mid - order*pi/2 - atan2(q*w, mid) < 0, w = sqrt(V^2 - mid^2)
            np.subtract(v_squared, np.multiply(mid, mid, out=w), out=w)
            np.sqrt(np.maximum(w, 0.0, out=w), out=w)
            np.arctan2(np.multiply(q, w, out=w), mid, out=w)
            np.subtract(mid, 0.5 * order * math.pi, out=residual)
            np.less(np.subtract(residual, w, out=residual), 0.0, out=below)
            np.copyto(lo, mid, where=np.logical_and(active, below, out=update))
            np.logical_not(below, out=below)
            np.copyto(hi, mid, where=np.logical_and(active, below, out=update))
            np.subtract(hi, lo, out=residual)
            active &= np.greater_equal(residual, 1e-15, out=update)
        u = 0.5 * (lo + hi)
        # float_power squares through libm pow, as Python's ** does; the
        # array ** 2 is x * x, which differs in the last bit for about one
        # argument in a thousand and moves n_eff across n_clad at cut-off
        solved = np.sqrt(n_core**2 - np.float_power(u / half_kt, 2.0))
    solved[~((n_clad < solved) & (solved < n_core))] = math.nan
    n_eff[guided] = solved
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

    Returns (width_nm, mode, n_eff) rows, width-major in the requested mode
    order; a mode cut off at a width has no row there. Each width is
    validated as a WaveguideGeometry. Raises InvalidInput on an empty sweep.
    """
    values = list(values_nm)
    if not values:
        raise InvalidInput("empty sweep")
    for value in values:
        WaveguideGeometry(value, height_nm, stack)
    widths = np.array(values, dtype=float)

    n_vertical = {}
    columns = []
    for mode in modes:
        if mode.family not in n_vertical:
            try:
                n_vertical[mode.family] = slab_neff(
                    stack.n_core,
                    stack.n_clad,
                    height_nm,
                    stack.wavelength_nm,
                    mode.family,
                    0,
                )
            except ModeCutoff:
                n_vertical[mode.family] = None
        if n_vertical[mode.family] is None:
            continue
        n_eff = _slab_neff_over_widths(
            n_vertical[mode.family],
            stack.n_clad,
            widths,
            stack.wavelength_nm,
            "TM" if mode.family == "TE" else "TE",
            mode.order,
        )
        columns.append((mode, n_eff.tolist()))
    rows = []
    for i, value in enumerate(values):
        for mode, column in columns:
            if not math.isnan(column[i]):
                rows.append((value, mode, column[i]))
    return rows
