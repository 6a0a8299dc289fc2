"""Effective-index modeling of rectangular multimode waveguides.

A high-contrast Si3N4/SiO2 rectangular waveguide is reduced to two nested
symmetric-slab problems (effective-index method): the vertical slab is solved
at its fundamental order, and its effective index then serves as the core
index of a horizontal slab solved at the requested lateral order. For
quasi-TE modes the vertical step uses the TE slab relation and the
horizontal step the TM relation; quasi-TM modes use the opposite ordering.

The slab relation is solved in its phase form

    u = m*pi/2 + atan2(q*w, u),   u^2 + w^2 = V^2

which is monotonic in u and has a closed-form derivative, so Newton steps
kept inside a bracket (``rtsafe``) converge to machine precision in a few
evaluations, and the residual of the relation is directly meaningful.

``slab_neff`` is the one solver: one numpy array iteration over any set of
slabs that share a cladding and a wavelength, each element stopping at its
own break. A dispersion sweep calls it twice, once for the vertical slab of
every requested family and once for every (width, mode) pair whose vertical
slab is guided. What depends only on the core index, family and order
(n_core^2, the TM factor q, the order's phase and bracket cap) is computed
once per argument as given, before the arguments are broadcast to one
element per slab.
``effective_indices`` is the row of a one-width sweep, so a single solve
and a sweep row of the same waveguide agree bit for bit.
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


# Frozen defaults at the paper's operating wavelength.
DEFAULT_WAVELENGTH_NM = 808.0
SI3N4_INDEX_808 = silicon_nitride_index(DEFAULT_WAVELENGTH_NM)
SIO2_INDEX_808 = silica_index(DEFAULT_WAVELENGTH_NM)


@dataclass(frozen=True, eq=False, repr=False)
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


@dataclass(frozen=True, eq=False, repr=False)
class WaveguideGeometry:
    """Rectangular cross-section (nm) on a material stack; the defaults are
    the paper's guide."""

    width_nm: float = 1600.0
    height_nm: float = 190.0
    stack: MaterialStack = MaterialStack()

    def __post_init__(self):
        require_finite(width_nm=self.width_nm, height_nm=self.height_nm)
        if self.width_nm <= 0 or self.height_nm <= 0:
            raise InvalidInput("width and height must be positive")


@dataclass(frozen=True, repr=False)
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
    guided, from one safeguarded Newton iteration over all of them.

    ``n_core``, ``thickness_nm``, ``family`` and ``order`` broadcast against
    each other, so the slabs may differ in all four; they share the
    cladding and the wavelength. Each element stops updating at its own
    break, so its result does not depend on the other elements. Raises
    InvalidInput for non-physical arguments.
    """
    n_core = np.asarray(n_core, dtype=float)
    thickness_nm = np.asarray(thickness_nm, dtype=float)
    family = np.asarray(family)
    order = np.asarray(order)
    shape = np.broadcast_shapes(
        n_core.shape, thickness_nm.shape, family.shape, order.shape
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

    n_eff = np.full(math.prod(shape), math.nan)
    # a thickness near the float maximum overflows k0*t/2 or V^2 to inf; the
    # Newton step is then inf/inf = NaN, so such a slab bisects to the top of
    # its bracket and ends with n_eff = n_core, which is not guided
    with np.errstate(over="ignore", invalid="ignore"):
        # what depends only on core, family or order is computed on the
        # arguments as given, before they are broadcast to one slab each.
        # float_power squares through libm pow, as Python's ** does; the
        # array ** 2 is x * x, which differs in the last bit for about one
        # argument in a thousand and, just above a cut-off, decides whether
        # n_eff rounds onto n_clad
        core_squared = np.float_power(n_core, 2.0)
        q = np.where(te, 1.0, np.float_power(n_core / n_clad, 2.0))
        phase = 0.5 * order * math.pi
        cap = 0.5 * (order + 1) * math.pi
        half_kt = math.pi * thickness_nm / wavelength_nm  # k0 * t / 2
        v_number = half_kt * np.sqrt(core_squared - n_clad**2)
        n_core, core_squared, q, phase, cap, half_kt, v_number = (
            a.ravel()
            for a in np.broadcast_arrays(
                n_core, core_squared, q, phase, cap, half_kt, v_number
            )
        )
        guided = v_number > phase
        n_core, core_squared, q, phase, cap, half_kt, v_number = (
            a[guided] for a in (n_core, core_squared, q, phase, cap, half_kt, v_number)
        )

        # rtsafe (Numerical Recipes, section 9.4): Newton steps on the
        # residual f(u) = u - order*pi/2 - atan2(q*w, u), w = sqrt(V^2 - u^2),
        # kept inside a bracket that the sign of f at each new point narrows.
        # f < 0 at lo (atan2 > 0 there), f > 0 at hi, and
        # f'(u) = 1 + q*V^2 / (w*(u^2 + q^2*w^2)) >= 1, so the Newton step
        # f/f' is f*d/(d + q*V^2) with d = w*(u^2 + q^2*w^2), finite at w = 0
        hi = np.minimum(v_number, cap)
        v_squared = v_number * v_number
        qv_squared = q * v_squared
        lo = phase
        u = 0.5 * (phase + hi)
        # the last step and the one before it start at the bracket width
        step = step_before = hi - phase
        # one entry per slab still moving; a slab that stops leaves its u in
        # roots and is dropped from every array
        moving = np.arange(len(hi))
        roots = np.empty(len(hi))
        evaluations = 0  # at most 200, for any slab
        while len(moving) and evaluations < 200:
            evaluations += 1
            uu = u * u
            w = np.sqrt(v_squared - uu)  # u <= hi <= V, so V^2 - u^2 >= 0
            qw = q * w
            f = u - phase - np.arctan2(qw, u)
            below = f < 0.0
            lo = np.where(below, u, lo)
            hi = np.where(below, hi, u)
            d = w * (uu + qw * qw)
            dx = f * d / (d + qv_squared)
            # the Newton point, kept where it lies in the bracket and its
            # step is at most half the step before last (a NaN step fails)
            nxt = u - dx
            newton = (lo <= nxt) & (nxt <= hi) & (np.abs(dx + dx) <= step_before)
            # otherwise the midpoint; u is an end of the bracket now, so
            # the step to the midpoint halves the bracket
            nxt = np.where(newton, nxt, 0.5 * (lo + hi))
            step_before, step = step, np.abs(nxt - u)
            u = nxt
            # a slab stops at the first step that leaves its u unchanged.
            # A looser stop (two ulps of u) would leave a slab just above
            # cut-off, where the root sits within a few ulps of V, up to
            # two ulps of u short of it and n_eff several ulps high. The
            # slabs still going are taken by index, which gathers the ten
            # arrays faster than a mask would on a scattered stop pattern
            going = np.flatnonzero(step > 0.0)
            if len(going) < len(step):
                roots[moving] = u
                (moving, phase, q, v_squared, qv_squared,
                 lo, hi, u, step, step_before) = (
                    a[going] for a in (moving, phase, q, v_squared, qv_squared,
                                       lo, hi, u, step, step_before)
                )
        roots[moving] = u  # the slabs still moving when the budget ends
        solved = np.sqrt(core_squared - np.float_power(roots / half_kt, 2.0))
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
    (n_eff,) = dispersion_sweep(
        [geometry.width_nm], modes, geometry.stack, geometry.height_nm
    ).tolist()
    for mode, n in zip(modes, n_eff):
        if math.isnan(n):
            raise ModeCutoff(
                f"{mode} not guided at width {geometry.width_nm:g} nm, "
                f"height {geometry.height_nm:g} nm"
            )
    return n_eff


def grating_period(wavelength_nm: float, delta_n: float) -> float:
    """Grating period (um) bridging an effective-index difference.

    period = wavelength / delta_n. Raises DegeneratePhaseMatch when delta_n
    is at or below 1e-9: degenerate modes need no grating.
    """
    if wavelength_nm <= 0:
        raise InvalidInput("wavelength must be positive")
    if delta_n <= 1e-9:
        raise DegeneratePhaseMatch(
            f"delta_n = {delta_n} <= 1e-09; co-propagating identical modes"
        )
    return wavelength_nm / delta_n * 1e-3


def dispersion_sweep(
    values_nm: Sequence[float],
    modes: Iterable[ModeId],
    stack: MaterialStack = MaterialStack(),
    height_nm: float = WaveguideGeometry.height_nm,
) -> np.ndarray:
    """Sweep the width at a fixed height and tabulate n_eff per mode.

    Returns a float array with one row per width and one column per
    requested mode, in the order given: the n_eff of that mode at that
    width, NaN where it is not guided. A mode whose vertical slab is cut
    off has a NaN column. The widths are validated as WaveguideGeometry
    validates them. Raises InvalidInput on an empty sweep.
    """
    values = list(values_nm)
    if not values:
        raise InvalidInput("empty sweep")
    widths = np.array(values)
    if widths.dtype.kind in "biuf":
        # numbers are checked as an array; only the first width, which also
        # checks the height, and the first invalid width build a geometry
        invalid = ~(np.isfinite(widths) & (widths > 0))
        checked = [values[0], values[int(invalid.argmax())]]
    else:
        checked = values
    for value in checked:
        WaveguideGeometry(value, height_nm, stack)
    widths = widths.astype(float)
    modes = list(modes)
    # vertical step: the fundamental slab of the height, once per family
    families = list(dict.fromkeys(mode.family for mode in modes))
    vertical = slab_neff(
        stack.n_core, stack.n_clad, height_nm, stack.wavelength_nm, families, 0
    )
    n_vertical = dict(zip(families, vertical.tolist()))
    kept = [j for j, mode in enumerate(modes)
            if not math.isnan(n_vertical[mode.family])]
    grid = np.full((len(values), len(modes)), math.nan)
    # lateral step: every (width, kept mode) pair, the width down the first axis
    grid[:, kept] = slab_neff(
        [n_vertical[modes[j].family] for j in kept],
        stack.n_clad,
        widths[:, np.newaxis],
        stack.wavelength_nm,
        ["TM" if modes[j].family == "TE" else "TE" for j in kept],
        [modes[j].order for j in kept],
    )
    return grid
