"""Reference values computed apart from modeweaver.

Nothing here imports the package: each oracle re-derives its quantity by a
different method than the program uses, so agreement is evidence that both
are right.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement, permutations

import numpy as np
from scipy.optimize import brentq

_GLYNN_CHUNK = 4096


def permanent_glynn(matrix) -> complex:
    """Permanent by Glynn's formula, vectorised over the 2^(n-1) sign vectors.

    perm(A) = 2^-(n-1) sum_d (prod_k d_k) prod_j (sum_i d_i a_ij), with
    d_0 = +1 and d_1..d_(n-1) in {+1, -1}. Evaluated in extended precision,
    so that its rounding error stays far below the double-precision
    kernel's, and in chunks, so that the sign-vector block stays a few MB
    even at n = 20.
    """
    a = np.asarray(matrix, dtype=np.clongdouble)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    shifts = np.arange(n - 1)
    total = np.clongdouble(0)
    for start in range(0, 1 << (n - 1), _GLYNN_CHUNK):
        k = np.arange(start, min(start + _GLYNN_CHUNK, 1 << (n - 1)))
        bits = (k[:, None] >> shifts) & 1
        delta = np.ones((len(k), n), dtype=np.longdouble)
        delta[:, 1:] = 1.0 - 2.0 * bits
        sign = np.where(bits.sum(axis=1) % 2, -1, 1).astype(np.longdouble)
        total += np.sum(sign * np.prod(delta @ a, axis=1))
    return complex(total / (1 << (n - 1)))


def permanent_permutations(matrix) -> complex:
    """Permanent as the defining sum over all n! permutations (n <= 8)."""
    a = np.asarray(matrix, dtype=np.complex128)
    n = a.shape[0]
    if n > 8:
        raise ValueError("permutation-sum oracle is limited to n <= 8")
    if n == 0:
        return 1.0 + 0.0j
    perms = np.array(list(permutations(range(n))))
    return complex(np.sum(np.prod(a[np.arange(n), perms], axis=1)))


def fock_basis(num_photons: int, num_modes: int) -> list[tuple[int, ...]]:
    """Occupation vectors in the documented order of ``fock.PureState``:
    photon placements enumerated by combinations with replacement."""
    basis = []
    for placement in combinations_with_replacement(range(num_modes), num_photons):
        occ = [0] * num_modes
        for mode in placement:
            occ[mode] += 1
        basis.append(tuple(occ))
    return basis


def fock_amplitude(unitary, amplitudes_in, num_photons: int, occ_out) -> complex:
    """<occ_out| U |psi_in> from the permutation-sum permanent.

    Each term is perm(U[rows of occ_out, columns of occ_in]) over the
    square root of the occupation factorials.
    """
    u = np.asarray(unitary, dtype=np.complex128)
    m = u.shape[0]
    rows = [j for j, n in enumerate(occ_out) for _ in range(n)]
    norm_out = math.prod(math.factorial(n) for n in occ_out)
    total = 0.0 + 0.0j
    for amp, occ_in in zip(amplitudes_in, fock_basis(num_photons, m)):
        cols = [i for i, n in enumerate(occ_in) for _ in range(n)]
        norm_in = math.prod(math.factorial(n) for n in occ_in)
        sub = u[np.ix_(rows, cols)]
        total += amp * permanent_permutations(sub) / math.sqrt(norm_in * norm_out)
    return total


def dip_visibility(eta: float, overlap: float) -> float:
    """Two-photon dip visibility x0 * 2 eta (1 - eta) / (eta^2 + (1 - eta)^2)."""
    return overlap * 2.0 * eta * (1.0 - eta) / (eta**2 + (1.0 - eta) ** 2)


def dip_fwhm_um(wavelength_nm: float, filter_fwhm_nm: float) -> float:
    """Dip FWHM as a path length: 8 ln 2 * lambda^2 / (2 pi * d_lambda).

    Gaussian filters of intensity FWHM d_lambda give an overlap x(tau)
    whose FWHM in path length is 8 ln 2 / (FWHM in angular wavenumber).
    """
    lam_um = wavelength_nm * 1e-3
    dlam_um = filter_fwhm_nm * 1e-3
    return 8.0 * math.log(2.0) * lam_um**2 / (2.0 * math.pi * dlam_um)


def _sellmeier(wavelength_nm: float, terms) -> float:
    lam2 = (wavelength_nm * 1e-3) ** 2
    return math.sqrt(1.0 + sum(b * lam2 / (lam2 - c * c) for b, c in terms))


def silicon_nitride_index(wavelength_nm: float) -> float:
    """Si3N4, Luke et al., Opt. Lett. 40, 4823 (2015)."""
    return _sellmeier(wavelength_nm, ((3.0249, 0.1353406), (40314.0, 1239.842)))


def silica_index(wavelength_nm: float) -> float:
    """Fused silica, Malitson, JOSA 55, 1205 (1965)."""
    return _sellmeier(
        wavelength_nm,
        ((0.6961663, 0.0684043), (0.4079426, 0.1162414), (0.8974794, 9.896161)),
    )


def slab_neff(n_core, n_clad, thickness_nm, wavelength_nm, family, order):
    """Symmetric-slab effective index from the tangent form of the relation,

        u tan(u - m pi / 2) = q sqrt(V^2 - u^2),

    solved for u with Brent's method. Returns None when no guided solution
    exists (V <= m pi / 2, or n_eff outside the open interval
    (n_clad, n_core)).
    """
    half_kt = math.pi * thickness_nm / wavelength_nm
    v = half_kt * math.sqrt(n_core**2 - n_clad**2)
    lo = 0.5 * order * math.pi
    if v <= lo:
        return None
    q = 1.0 if family == "TE" else (n_core / n_clad) ** 2

    def relation(u):
        return u * math.tan(u - lo) - q * math.sqrt(max(v * v - u * u, 0.0))

    hi = min(v, lo + 0.5 * math.pi * (1.0 - 1e-13))
    u = brentq(relation, lo, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps,
               maxiter=500)
    n_eff = math.sqrt(n_core**2 - (u / half_kt) ** 2)
    return n_eff if n_clad < n_eff < n_core else None


def dispersion_table(widths_nm, height_nm, modes, wavelength_nm=808.0):
    """n_eff by the effective-index method for every (width, mode) pair:
    a vertical fundamental slab of the height, then a lateral slab of the
    width in the other polarisation. Cut-off pairs map to None.

    ``modes`` holds (family, order) pairs.
    """
    n_core = silicon_nitride_index(wavelength_nm)
    n_clad = silica_index(wavelength_nm)
    vertical = {
        family: slab_neff(n_core, n_clad, height_nm, wavelength_nm, family, 0)
        for family in {family for family, _ in modes}
    }
    table = {}
    for width in widths_nm:
        for family, order in modes:
            n_v = vertical[family]
            other = "TM" if family == "TE" else "TE"
            table[width, family, order] = (
                None if n_v is None
                else slab_neff(n_v, n_clad, width, wavelength_nm, other, order)
            )
    return table
