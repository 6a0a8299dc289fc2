"""Bosonic Fock-state engine over spatial-mode channels.

Transition amplitudes follow the standard linear-optics rule (permanent of
the occupation-repeated submatrix); two-photon statistics with partial
spectral distinguishability are a convex mixture of the indistinguishable
and distinguishable cases, weighted by the delay-dependent overlap x(tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import InvalidInput, NotUnitary, PhotonNumberMismatch, SizeLimit

SPEED_OF_LIGHT_UM_PER_S = 2.99792458e14

PERMANENT_SIZE_CAP = 20
# Glynn's sign vectors over the first rows are summed as one n x 2^12 block;
# the remaining rows (at most 7 under the cap) are looped over, which keeps
# the working set near 1 MB.
_GLYNN_BLOCK_ROWS = 13


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square complex matrix (Glynn's formula), capped at 20x20.

    Per(A) = 2^(1-n) sum_d (prod_i d_i) prod_j sum_i d_i a_ij over the sign
    vectors d with d_0 = +1: O(2^n n). Closed forms for n <= 2; the 0x0
    permanent is 1 by convention.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"permanent needs a square matrix, got {a.shape}")
    n = a.shape[0]
    if n > PERMANENT_SIZE_CAP:
        raise SizeLimit(f"permanent capped at n = {PERMANENT_SIZE_CAP}")
    if n == 0:
        return 1.0 + 0.0j
    if n == 1:
        return complex(a[0, 0])
    if n == 2:
        (a00, a01), (a10, a11) = a.tolist()
        return a00 * a11 + a01 * a10
    # Signed column sums of the first block rows, one column per sign vector.
    sums, signs = _signed_sums(a[1:_GLYNN_BLOCK_ROWS], a[0])
    if n <= _GLYNN_BLOCK_ROWS:
        total = np.prod(sums, axis=0) @ signs
    else:
        total = 0.0 + 0.0j
        tails, tail_signs = _signed_sums(a[_GLYNN_BLOCK_ROWS:], np.zeros(n))
        for tail, tail_sign in zip(tails.T, tail_signs):
            total += tail_sign * (np.prod(sums + tail[:, None], axis=0) @ signs)
    return complex(total) / 2 ** (n - 1)


def _signed_sums(rows: np.ndarray, start: np.ndarray):
    """Columns start + sum_i d_i rows[i] over all sign vectors d, and prod(d).

    Built by doubling: each row splits every column into (+row, -row).
    """
    sums = start[:, None]
    signs = np.ones(1)
    for row in rows:
        sums = np.concatenate((sums + row[:, None], sums - row[:, None]), axis=1)
        signs = np.concatenate((signs, -signs))
    return sums, signs


def fock_basis(num_photons: int, num_channels: int) -> list[tuple[int, ...]]:
    """All occupation vectors of `num_photons` photons over `num_channels`."""
    if num_channels < 1:
        raise InvalidInput("need at least one channel")
    states = []
    for placement in combinations_with_replacement(range(num_channels), num_photons):
        occ = [0] * num_channels
        for ch in placement:
            occ[ch] += 1
        states.append(tuple(occ))
    return states


def format_fock(occupation: tuple[int, ...]) -> str:
    return "|" + ",".join(str(n) for n in occupation) + ">"


def check_unitary(matrix: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Validate unitarity to `tol`; returns the matrix as complex128."""
    u = np.asarray(matrix, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NotUnitary(f"not square: {u.shape}")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > tol:
        raise NotUnitary(f"U^H U deviates from identity by {dev:.3e} > {tol}")
    return u


@dataclass(frozen=True)
class PureState:
    """Fixed photon-number state: amplitudes over the Fock basis."""

    num_channels: int
    num_photons: int
    amplitudes: np.ndarray  # aligned with fock_basis(num_photons, num_channels)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __str__(self):
        basis = fock_basis(self.num_photons, self.num_channels)
        parts = [
            f"{format_fock(occ)}: {amp:.6g}"
            for occ, amp in zip(basis, self.amplitudes)
            if abs(amp) > 1e-12
        ]
        return "\n".join(parts) if parts else "(zero state)"


def transition_amplitude(
    unitary: np.ndarray,
    occupation_in: tuple[int, ...],
    occupation_out: tuple[int, ...],
) -> complex:
    """Amplitude <out| U |in> = Per(U_sub) / sqrt(prod n_i! prod n'_j!).

    U_sub repeats column i of U `in_i` times and row j `out_j` times.
    """
    u = np.asarray(unitary, dtype=np.complex128)
    m = u.shape[0]
    if len(occupation_in) != m or len(occupation_out) != m:
        raise InvalidInput("occupation length must match matrix size")
    if any(n < 0 for n in occupation_in) or any(n < 0 for n in occupation_out):
        raise InvalidInput("occupations must be non-negative")
    n_in = sum(occupation_in)
    if n_in != sum(occupation_out):
        raise PhotonNumberMismatch(
            f"{sum(occupation_in)} photons in vs {sum(occupation_out)} out"
        )
    if n_in == 0:
        return 1.0 + 0.0j
    cols = [i for i, n in enumerate(occupation_in) for _ in range(n)]
    rows = [j for j, n in enumerate(occupation_out) for _ in range(n)]
    sub = u[np.ix_(rows, cols)]
    norm = 1.0
    for n in list(occupation_in) + list(occupation_out):
        norm *= math.factorial(n)
    return permanent(sub) / math.sqrt(norm)


def evolve(unitary: np.ndarray, state: PureState) -> PureState:
    """Apply a mode unitary to a fixed-photon-number pure state."""
    u = check_unitary(unitary)
    if u.shape[0] != state.num_channels:
        raise InvalidInput("unitary size does not match state channels")
    basis = fock_basis(state.num_photons, state.num_channels)
    out = np.zeros(len(basis), dtype=np.complex128)
    for i, occ_out in enumerate(basis):
        for amp, occ_in in zip(state.amplitudes, basis):
            if amp != 0:
                out[i] += amp * transition_amplitude(u, occ_in, occ_out)
    return PureState(state.num_channels, state.num_photons, out)


@dataclass(frozen=True)
class PhotonPairSource:
    """Phenomenological degenerate pair source behind bandpass filters."""

    center_wavelength_nm: float = 808.0
    filter_fwhm_nm: float = 3.0
    intrinsic_overlap: float = 0.92
    pair_rate_hz: float = 2000.0
    singles_rates_hz: tuple[float, float] = (30000.0, 30000.0)

    def __post_init__(self):
        if not 0.0 <= self.intrinsic_overlap <= 1.0:
            raise InvalidInput("intrinsic overlap must lie in [0, 1]")
        if self.filter_fwhm_nm <= 0 or self.center_wavelength_nm <= 0:
            raise InvalidInput("wavelength and filter FWHM must be positive")
        if self.pair_rate_hz < 0 or any(s < 0 for s in self.singles_rates_hz):
            raise InvalidInput("rates must be non-negative")
        # NaN, inf or extreme finite values give NaN, 0 or inf here, or overflow
        try:
            tau_c = self.coherence_time_s()
        except (OverflowError, ZeroDivisionError):
            tau_c = math.inf
        if not 0.0 < tau_c < math.inf:
            raise InvalidInput(
                f"wavelength {self.center_wavelength_nm} nm with filter FWHM "
                f"{self.filter_fwhm_nm} nm gives no finite coherence time"
            )

    def coherence_time_s(self) -> float:
        """1/sigma_omega of the Gaussian intensity spectrum set by the filter."""
        c_nm = SPEED_OF_LIGHT_UM_PER_S * 1e3  # nm/s
        fwhm_omega = (
            2.0 * math.pi * c_nm * self.filter_fwhm_nm / self.center_wavelength_nm**2
        )
        sigma_omega = fwhm_omega / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        return 1.0 / sigma_omega

    def overlap_fwhm_um(self) -> float:
        """Full width at half maximum of x(delay), as free-space path length."""
        fwhm_s = 2.0 * math.sqrt(2.0 * math.log(2.0)) * self.coherence_time_s()
        return fwhm_s * SPEED_OF_LIGHT_UM_PER_S


def spectral_overlap(source: PhotonPairSource, delay_um: float) -> float:
    """Distinguishability overlap x(delay) for a free-space path difference.

    Both photons carry identical Gaussian spectra (intensity FWHM from the
    filter), so x(tau) = x0 * exp(-tau^2 / (2 tau_c^2)) with tau_c the
    inverse spectral standard deviation.
    """
    if not math.isfinite(delay_um):
        raise InvalidInput("delay must be finite")
    tau = delay_um / SPEED_OF_LIGHT_UM_PER_S
    tau_c = source.coherence_time_s()
    return source.intrinsic_overlap * math.exp(-0.5 * (tau / tau_c) ** 2)


def two_photon_coincidence(
    unitary: np.ndarray,
    in_channels: tuple[int, int],
    out_channels: tuple[int, int],
    overlap: float,
) -> float:
    """Coincidence probability for one photon in each input channel.

    P = x * P_indistinguishable + (1 - x) * P_distinguishable.
    """
    i, j = in_channels
    k, l = out_channels
    if i == j or k == l:
        raise InvalidInput("input and output channel pairs must be distinct")
    if not 0.0 <= overlap <= 1.0:
        raise InvalidInput("overlap must lie in [0, 1]")
    u = np.asarray(unitary, dtype=np.complex128)
    m = u.shape[0]
    occ_in = tuple(1 if c in (i, j) else 0 for c in range(m))
    occ_out = tuple(1 if c in (k, l) else 0 for c in range(m))
    amp = transition_amplitude(u, occ_in, occ_out)
    p_indist = abs(amp) ** 2
    p_dist = (
        abs(u[k, i]) ** 2 * abs(u[l, j]) ** 2
        + abs(u[k, j]) ** 2 * abs(u[l, i]) ** 2
    )
    return overlap * p_indist + (1.0 - overlap) * p_dist


def hom_visibility(eta: float) -> float:
    """Ideal two-photon dip visibility of an eta coupler:
    2 eta (1 - eta) / (eta^2 + (1 - eta)^2)."""
    if not 0.0 <= eta <= 1.0:
        raise InvalidInput("eta must lie in [0, 1]")
    numerator = 2.0 * eta * (1.0 - eta)
    denominator = eta**2 + (1.0 - eta) ** 2
    return numerator / denominator


def coalescence_enhancement(eta: float, overlap: float) -> float:
    """Same-arm pair probability at zero delay relative to large delay.

    Bunching doubles the indistinguishable same-arm amplitude, so the ratio
    is 1 + x independent of the splitting ratio.
    """
    if not 0.0 < eta < 1.0:
        raise InvalidInput("eta must lie strictly inside (0, 1)")
    if not 0.0 <= overlap <= 1.0:
        raise InvalidInput("overlap must lie in [0, 1]")
    return 1.0 + overlap
