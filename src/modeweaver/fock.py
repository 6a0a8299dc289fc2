"""Bosonic Fock-state engine over spatial-mode channels.

State evolution builds the image of every basis state of one photon fewer
photon by photon (creation operators transformed by the mode unitary, as in
SLOS), then adds the last photon to the input state itself, so it needs no
permanents and never forms the images of the full basis. Single transition
amplitudes follow the standard linear-optics rule (permanent of the
occupation-repeated submatrix); the two-photon coincidence takes its 2x2
permanent in closed form, broadcast over a stack of unitaries. Two-photon
statistics with partial spectral distinguishability are a convex mixture of
the indistinguishable and distinguishable cases, weighted by the
delay-dependent overlap x(tau).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import InvalidInput, NotUnitary, PhotonNumberMismatch, SizeLimit

SPEED_OF_LIGHT_UM_PER_S = 2.99792458e14

PERMANENT_SIZE_CAP = 20
# Glynn's sign vectors over the first rows are summed as one n x 2^10 block;
# the sign vectors of the remaining rows (at most 9 under the cap) are looped
# over, each added to the block in place, which keeps the working set within
# three n x 1024 complex arrays (320 kB each at the cap).
_GLYNN_BLOCK_ROWS = 11


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
        shifted = np.empty_like(sums)
        products = np.empty(sums.shape[1], dtype=np.complex128)
        for tail, tail_sign in zip(tails.T, tail_signs):
            np.add(sums, tail[:, None], out=shifted)
            np.multiply.reduce(shifted, axis=0, out=products)
            total += tail_sign * (products @ signs)
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


def _check_count(value, least: int, name: str) -> None:
    """InvalidInput unless value is an integer >= least (numpy integers
    count, floats do not)."""
    try:
        if operator.index(value) >= least:
            return
    except TypeError:
        pass
    raise InvalidInput(f"{name} must be an integer >= {least}, got {value!r}")


def fock_basis(num_photons: int, num_channels: int) -> list[tuple[int, ...]]:
    """All occupation vectors of `num_photons` photons over `num_channels`."""
    _check_count(num_channels, 1, "channel count")
    _check_count(num_photons, 0, "photon number")
    states = []
    for placement in combinations_with_replacement(range(num_channels), num_photons):
        occ = [0] * num_channels
        for ch in placement:
            occ[ch] += 1
        states.append(tuple(occ))
    return states


def check_unitary(matrix: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Validate unitarity to `tol`; returns the matrix as complex128."""
    u = np.asarray(matrix, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NotUnitary(f"not square: {u.shape}")
    gram = u.conj().T @ u
    gram.ravel()[:: u.shape[0] + 1] -= 1.0  # U^H U - I in place (a fresh array)
    dev = np.abs(gram).max()
    if not dev <= tol:  # NaN fails this too
        raise NotUnitary(f"U^H U deviates from identity by {dev:.3e} > {tol}")
    return u


@dataclass(frozen=True)
class PureState:
    """Fixed photon-number state: amplitudes over the Fock basis."""

    num_channels: int
    num_photons: int
    amplitudes: np.ndarray  # aligned with fock_basis(num_photons, num_channels)

    def __post_init__(self):
        _check_count(self.num_channels, 1, "channel count")
        _check_count(self.num_photons, 0, "photon number")
        dim = math.comb(self.num_channels + self.num_photons - 1, self.num_photons)
        if np.shape(self.amplitudes) != (dim,):
            raise InvalidInput(
                f"{self.num_photons} photons in {self.num_channels} channels need "
                f"{dim} amplitudes in one dimension, got shape "
                f"{np.shape(self.amplitudes)}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


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
    """Apply a mode unitary to a fixed-photon-number pure state.

    Builds U|s> for every basis state s of n - 1 photons one photon at a time:
    s is its parent p = s - e_c (c the first occupied channel of s) with one
    more photon in c, so U|s> = B_c U|p> / sqrt(s_c), where
    B_c = sum_j U[j, c] b_j^dagger and (b_j^dagger v)[t] = sqrt(t_j) v[t - e_j].
    The last photon is added to the input itself: |in> = sum_c b_c^dagger
    |psi_c>, with psi_c[p] = a_{p + e_c} / sqrt(s_c) over the s whose first
    occupied channel is c, so U|in> = sum_c B_c U|psi_c>. Level k costs
    O(m D_k^2) for k < n and the last level O(m D_{n-1}^2 + m^2 D_n).
    """
    u = check_unitary(unitary)
    m, n = state.num_channels, state.num_photons
    if u.shape[0] != m:
        raise InvalidInput("unitary size does not match state channels")
    if n == 0:
        return PureState(m, n, np.array(state.amplitudes, dtype=np.complex128))
    # images[t, s] = <t| U |s> over n - 1 photons; one photon in channel c
    # maps to column c of U
    images = u if n > 1 else np.ones((1, 1), dtype=np.complex128)
    for k in range(2, n):
        rows, root_t, parent, channel, inv_root_s = _creation_tables(k, m)
        # sum_j sqrt(t_j) U[j, c(s)] <t - e_j| U |p(s)> / sqrt(s_c)
        lower = images[:, parent][rows]
        images = np.einsum("tjs,tj,js->ts", lower, root_t, u[:, channel] * inv_root_s)
    lift, inv_root_s, gather, root_t = _last_photon_tables(n, m)
    psi = np.zeros((len(images), m), dtype=np.complex128)
    psi.ravel()[lift] = np.asarray(state.amplitudes) * inv_root_s
    # lifted[p, j] = sum_c U[j, c] <p| U |psi_c>
    lifted = images @ psi @ u.T
    return PureState(m, n, (lifted.take(gather) * root_t).sum(axis=1))


@lru_cache(maxsize=None)
def _creation_tables(num_photons: int, num_channels: int):
    """Index tables for adding one photon to level num_photons - 1.

    rows[t, j] indexes t - e_j in the lower basis and root_t[t, j] is
    sqrt(t_j) (0 where t_j = 0, so the row index there is a dummy 0);
    parent[s] indexes s - e_c, channel[s] is c and inv_root_s[s] is
    1 / sqrt(s_c), with c the first occupied channel of s.
    """
    lower_basis = fock_basis(num_photons - 1, num_channels)
    lower = {occ: i for i, occ in enumerate(lower_basis)}
    basis = fock_basis(num_photons, num_channels)
    rows = np.zeros((len(basis), num_channels), dtype=np.intp)
    root_t = np.zeros((len(basis), num_channels))
    parent = np.empty(len(basis), dtype=np.intp)
    channel = np.empty(len(basis), dtype=np.intp)
    inv_root_s = np.empty(len(basis))
    for i, occ in enumerate(basis):
        for j, count in enumerate(occ):
            if count:
                rows[i, j] = lower[occ[:j] + (count - 1,) + occ[j + 1:]]
                root_t[i, j] = math.sqrt(count)
        c = next(j for j, count in enumerate(occ) if count)
        parent[i] = rows[i, c]
        channel[i] = c
        inv_root_s[i] = 1.0 / root_t[i, c]
    return rows, root_t, parent, channel, inv_root_s


@lru_cache(maxsize=None)
def _last_photon_tables(num_photons: int, num_channels: int):
    """`_creation_tables` as flat indices into a D_{n-1} x m array.

    lift[s] indexes (s - e_c, c) and gather[t, j] indexes (t - e_j, j) (a
    dummy (0, j) where root_t[t, j] = 0); inv_root_s and root_t as there.
    """
    rows, root_t, parent, channel, inv_root_s = _creation_tables(
        num_photons, num_channels
    )
    lift = parent * num_channels + channel
    gather = rows * num_channels + np.arange(num_channels)
    return lift, inv_root_s, gather, root_t


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


def spectral_overlap(source: PhotonPairSource, delay_um):
    """Distinguishability overlap x(delay) for a free-space path difference.

    Both photons carry identical Gaussian spectra (intensity FWHM from the
    filter), so x(tau) = x0 * exp(-tau^2 / (2 tau_c^2)) with tau_c the
    inverse spectral standard deviation. `delay_um` may be an array; the
    overlap then has its shape.
    """
    delay = np.asarray(delay_um, dtype=float)
    if not np.isfinite(delay).all():
        raise InvalidInput("delay must be finite")
    tau_c = source.coherence_time_s()
    x0 = source.intrinsic_overlap

    def overlap(d):
        # math.exp, not np.exp: the two differ in the last bit on some
        # arguments, which moves the fitted fields at roundoff
        try:
            return x0 * math.exp(-0.5 * (d / SPEED_OF_LIGHT_UM_PER_S / tau_c) ** 2)
        except OverflowError:  # the exponent's limit is -inf
            return 0.0

    if delay.ndim == 0:
        return overlap(float(delay))
    return np.array([overlap(d) for d in delay.ravel().tolist()]).reshape(delay.shape)


def two_photon_coincidence(
    unitary: np.ndarray,
    in_channels: tuple[int, int],
    out_channels: tuple[int, int],
    overlap,
):
    """Coincidence probability for one photon in each input channel.

    P = x * P_indistinguishable + (1 - x) * P_distinguishable, with
    P_indistinguishable = |U_ki U_lj + U_kj U_li|^2 (the 2x2 permanent) and
    P_distinguishable = |U_ki|^2 |U_lj|^2 + |U_kj|^2 |U_li|^2. `unitary`
    may be a stack (..., m, m) and `overlap` an array; they broadcast.
    """
    i, j = in_channels
    k, l = out_channels
    if i == j or k == l:
        raise InvalidInput("input and output channel pairs must be distinct")
    x = np.asarray(overlap, dtype=float)
    if not ((0.0 <= x) & (x <= 1.0)).all():
        raise InvalidInput("overlap must lie in [0, 1]")
    u = np.asarray(unitary, dtype=np.complex128)
    m = u.shape[-1]
    if not all(0 <= c < m for c in (i, j, k, l)):
        raise InvalidInput(
            f"channels {in_channels} -> {out_channels} outside 0..{m - 1}"
        )
    a, b, c, d = u[..., k, i], u[..., l, j], u[..., k, j], u[..., l, i]
    # Real arithmetic and hypot round alike on every CPU, as Python's complex
    # scalars do; numpy's complex multiply and abs over arrays may fuse
    # multiply-adds, which moves the fringe fits at roundoff.
    amp_re = (a.real * b.real - a.imag * b.imag) + (c.real * d.real - c.imag * d.imag)
    amp_im = (a.real * b.imag + a.imag * b.real) + (c.real * d.imag + c.imag * d.real)
    p_indist = np.hypot(amp_re, amp_im) ** 2
    a2, b2, c2, d2 = (np.hypot(z.real, z.imag) ** 2 for z in (a, b, c, d))
    p_dist = a2 * b2 + c2 * d2
    return x * p_indist + (1.0 - x) * p_dist


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
