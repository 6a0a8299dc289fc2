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

``slab_neff`` is the one solver: a numpy bisection over any set of slabs
that share a cladding and a wavelength, each element stopping at its own
break. A dispersion sweep calls it twice, once for the vertical slab of
every requested family and once for every (width, mode) pair.
``effective_index`` is the row of a one-width sweep, so a single solve and
a sweep row of the same waveguide agree bit for bit.
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


def slab_neff(
    n_core,
    n_clad: float,
    thickness_nm,
    wavelength_nm: float,
    family="TE",
    order=0,
) -> np.ndarray:
    """Effective indices of symmetric-slab modes, NaN where a mode is not
    guided, from one bisection over all of them.

    ``n_core``, ``thickness_nm``, ``family`` and ``order`` broadcast against
    each other, so the slabs may differ in all four; they share the
    cladding and the wavelength. Each element stops updating at its own
    break. Raises InvalidInput for non-physical arguments.
    """
    n_core, thickness_nm, family, order = np.broadcast_arrays(
        np.asarray(n_core, dtype=float),
        np.asarray(thickness_nm, dtype=float),
        np.asarray(family),
        np.asarray(order),
    )
    if not (np.all(n_core > n_clad) and n_clad > 0):
        raise InvalidInput("need n_core > n_clad > 0")
    if not (np.all(thickness_nm > 0) and wavelength_nm > 0):
        raise InvalidInput("thickness and wavelength must be positive")
    te = family == "TE"
    if not np.all(te | (family == "TM")):
        raise InvalidInput(f"unknown family in {family.ravel().tolist()}")
    if np.any(order < 0):
        raise InvalidInput("order must be >= 0")

    shape = n_core.shape
    n_core, thickness_nm, te, order = (
        a.ravel() for a in (n_core, thickness_nm, te, order)
    )
    n_eff = np.full(n_core.shape, math.nan)
    # a thickness near the float maximum overflows k0*t/2 to inf; such a
    # slab ends with n_eff = n_core, which is not guided
    with np.errstate(over="ignore"):
        # float_power squares through libm pow, as Python's ** does; the
        # array ** 2 is x * x, which differs in the last bit for about one
        # argument in a thousand and, just above a cut-off, decides whether
        # n_eff rounds onto n_clad
        core_squared = np.float_power(n_core, 2.0)
        half_kt = math.pi * thickness_nm / wavelength_nm  # k0 * t / 2
        v_number = half_kt * np.sqrt(core_squared - n_clad**2)
        phase = 0.5 * order * math.pi
        guided = v_number > phase
        n_core, te, order, core_squared, half_kt, v_number, phase = (
            a[guided]
            for a in (n_core, te, order, core_squared, half_kt, v_number, phase)
        )
        q = np.where(te, 1.0, np.float_power(n_core / n_clad, 2.0))

        # the residual u - order*pi/2 - atan2(q*w, u) is negative at lo
        # (atan2 > 0 there) and positive at hi
        lo = phase.copy()
        hi = np.minimum(v_number, 0.5 * (order + 1) * math.pi)
        v_squared = v_number * v_number
        active = np.ones(len(v_number), dtype=bool)
        # the loop works in these buffers and allocates no temporaries
        mid, w, residual = np.empty((3, len(v_number)))
        below, update = np.empty((2, len(v_number)), dtype=bool)
        for _ in range(200):
            np.multiply(0.5, np.add(lo, hi, out=mid), out=mid)
            # once u >= 8 an ulp of u exceeds the 1e-15 stop width, and an
            # element stops when its midpoint rounds onto an end
            active &= np.less(lo, mid, out=update)
            active &= np.less(mid, hi, out=update)
            if not np.count_nonzero(active):
                break
            # below: mid - order*pi/2 < atan2(q*w, mid), w = sqrt(V^2 - mid^2);
            # mid <= hi <= V, so V^2 - mid^2 >= 0, and a - b < 0 iff a < b
            np.subtract(v_squared, np.multiply(mid, mid, out=w), out=w)
            np.arctan2(np.multiply(q, np.sqrt(w, out=w), out=w), mid, out=w)
            np.less(np.subtract(mid, phase, out=residual), w, out=below)
            np.copyto(lo, mid, where=np.logical_and(active, below, out=update))
            np.copyto(hi, mid, where=np.greater(active, below, out=update))
            np.subtract(hi, lo, out=residual)
            active &= np.greater_equal(residual, 1e-15, out=update)
        u = 0.5 * (lo + hi)
        solved = np.sqrt(core_squared - np.float_power(u / half_kt, 2.0))
    solved[~((n_clad < solved) & (solved < n_core))] = math.nan
    n_eff[guided] = solved
    return n_eff.reshape(shape)


def effective_indices(
    geometry: WaveguideGeometry, modes: Sequence[ModeId]
) -> list[float]:
    """Effective index of each mode of a rectangular waveguide, from a
    one-width dispersion sweep. Raises ModeCutoff naming the first mode
    that is not guided.
    """
    rows = dispersion_sweep(
        [geometry.width_nm], modes, geometry.stack, geometry.height_nm
    )
    n_eff = {mode: n for _, mode, n in rows}
    for mode in modes:
        if mode not in n_eff:
            raise ModeCutoff(
                f"{mode} not guided at width {geometry.width_nm:g} nm, "
                f"height {geometry.height_nm:g} nm"
            )
    return [n_eff[mode] for mode in modes]


def effective_index(geometry: WaveguideGeometry, mode: ModeId) -> float:
    """Effective index of a rectangular-waveguide mode (effective-index
    method): the single row of a one-width dispersion sweep. Raises
    ModeCutoff if the mode is not guided.
    """
    (n_eff,) = effective_indices(geometry, [mode])
    return n_eff


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
    modes = list(modes)
    # vertical step: the fundamental slab of the height, once per family
    families = list(dict.fromkeys(mode.family for mode in modes))
    vertical = slab_neff(
        stack.n_core, stack.n_clad, height_nm, stack.wavelength_nm, families, 0
    )
    n_vertical = dict(zip(families, vertical.tolist()))
    modes = [mode for mode in modes if not math.isnan(n_vertical[mode.family])]
    # lateral step: every (width, mode) pair, the width down the first axis
    n_eff = slab_neff(
        [n_vertical[mode.family] for mode in modes],
        stack.n_clad,
        np.array(values, dtype=float)[:, np.newaxis],
        stack.wavelength_nm,
        ["TM" if mode.family == "TE" else "TE" for mode in modes],
        [mode.order for mode in modes],
    )
    return [
        (value, mode, n)
        for value, row in zip(values, n_eff.tolist())
        for mode, n in zip(modes, row)
        if not math.isnan(n)
    ]
