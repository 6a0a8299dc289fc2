import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from modeweaver import fock
from modeweaver.coupling import coupler_unitary
from modeweaver.errors import (
    InvalidInput,
    NotUnitary,
    PhotonNumberMismatch,
    SizeLimit,
)
from modeweaver.fock import (
    PhotonPairSource,
    PureState,
    check_unitary,
    coalescence_enhancement,
    evolve,
    fock_basis,
    hom_visibility,
    permanent,
    spectral_overlap,
    transition_amplitude,
    two_photon_coincidence,
)


def naive_permanent(a: np.ndarray) -> complex:
    n = a.shape[0]
    return sum(
        math.prod(a[i, p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


class TestPermanent:
    def test_identity(self):
        for n in (1, 3, 6):
            assert permanent(np.eye(n)) == pytest.approx(1.0, abs=1e-12)

    def test_all_ones(self):
        assert permanent(np.ones((3, 3))) == pytest.approx(6.0, abs=1e-12)
        assert permanent(np.ones((5, 5))) == pytest.approx(120.0, abs=1e-10)
        assert permanent(np.ones((16, 16))) == pytest.approx(
            math.factorial(16), rel=1e-12
        )

    def test_one_by_one(self):
        assert permanent(np.array([[2.5 + 1j]])) == pytest.approx(2.5 + 1j)

    def test_against_naive_oracle(self, rng):
        assert permanent(np.zeros((0, 0))) == 1.0
        for n in range(1, 9):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            expected = naive_permanent(a)
            assert permanent(a) == pytest.approx(expected, rel=1e-11)

    # n = 16 spans the 11-row sign block and the looped tail rows.
    def test_block_diagonal_factorizes(self, rng):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        per_a, per_b = permanent(a), permanent(b)
        assert per_a == pytest.approx(naive_permanent(a), rel=1e-11)
        assert per_b == pytest.approx(naive_permanent(b), rel=1e-11)
        block = np.zeros((16, 16), dtype=np.complex128)
        block[:8, :8] = a
        block[8:, 8:] = b
        assert permanent(block) == pytest.approx(per_a * per_b, rel=1e-12)

    # 11 fills the sign block exactly, 12 and 13 loop over one and two tail
    # rows, 20 is the cap. Shuffled rows and columns spread each block over
    # the sign block and the tail.
    @pytest.mark.parametrize("sizes", [(6, 5), (6, 6), (7, 6), (7, 7, 6)])
    def test_shuffled_blocks_against_naive(self, rng, sizes):
        n = sum(sizes)
        matrix = np.zeros((n, n), dtype=np.complex128)
        expected = 1.0
        start = 0
        for size in sizes:
            block = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            matrix[start:start + size, start:start + size] = block
            expected *= naive_permanent(block)
            start += size
        shuffled = matrix[rng.permutation(n)][:, rng.permutation(n)]
        assert permanent(shuffled) == pytest.approx(expected, rel=1e-11)

    def test_memory_stays_within_the_sign_block(self, rng):
        a = haar_unitary(16, rng)
        permanent(a)
        tracemalloc.start()
        try:
            permanent(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6  # three 16 x 1024 complex arrays are 0.79 MB

    def test_row_permutation_invariance(self, rng):
        a = haar_unitary(16, rng)
        shuffled = a[rng.permutation(16)]
        assert permanent(shuffled) == pytest.approx(permanent(a), rel=1e-12)

    def test_size_cap(self):
        with pytest.raises(SizeLimit):
            permanent(np.eye(21))

    def test_non_square(self):
        with pytest.raises(InvalidInput):
            permanent(np.ones((2, 3)))


class TestTransitionAmplitude:
    def test_identity_routing(self):
        u = np.eye(3)
        assert transition_amplitude(u, (1, 1, 0), (1, 1, 0)) == pytest.approx(1.0)
        assert transition_amplitude(u, (1, 1, 0), (1, 0, 1)) == pytest.approx(0.0)

    def test_vacuum(self):
        assert transition_amplitude(np.eye(2), (0, 0), (0, 0)) == 1.0

    def test_hom_cancellation(self):
        u = coupler_unitary(0.5)
        amp = transition_amplitude(u, (1, 1), (1, 1))
        assert abs(amp) < 1e-12

    def test_unbalanced_coincidence(self):
        u = coupler_unitary(0.55)
        p = abs(transition_amplitude(u, (1, 1), (1, 1))) ** 2
        assert p == pytest.approx((1 - 2 * 0.55) ** 2, abs=1e-12)

    def test_photon_number_mismatch(self):
        with pytest.raises(PhotonNumberMismatch):
            transition_amplitude(np.eye(2), (1, 1), (1, 0))

    def test_probability_conservation(self, rng):
        u = haar_unitary(3, rng)
        occ_in = (1, 1, 0)
        total = sum(
            abs(transition_amplitude(u, occ_in, occ_out)) ** 2
            for occ_out in fock_basis(2, 3)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def transition_matrix(u: np.ndarray, num_photons: int) -> np.ndarray:
    """<t| U |s> over the Fock basis, one permanent per entry."""
    basis = fock_basis(num_photons, u.shape[0])
    return np.array(
        [[transition_amplitude(u, s, t) for s in basis] for t in basis]
    )


class TestEvolve:
    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("n", range(5))
    def test_matches_permanents(self, rng, m, n):
        u = haar_unitary(m, rng)
        expected = transition_matrix(u, n)
        dim = len(expected)
        dense = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        inputs = [dense / np.linalg.norm(dense)] + [np.eye(dim)[i] for i in range(dim)]
        for amps in inputs:
            out = evolve(u, PureState(m, n, amps)).amplitudes
            assert np.max(np.abs(out - expected @ amps)) < 1e-12

    @pytest.mark.parametrize("m, n", [(8, 5), (10, 4)])
    def test_large_against_transition_amplitudes(self, rng, m, n):
        u = haar_unitary(m, rng)
        basis = fock_basis(n, m)
        dense = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        dense /= np.linalg.norm(dense)
        single = rng.integers(len(basis))
        out_dense = evolve(u, PureState(m, n, dense)).amplitudes
        out_single = evolve(u, PureState(m, n, np.eye(len(basis))[single])).amplitudes
        for t in rng.choice(len(basis), size=4, replace=False):
            column = [transition_amplitude(u, s, basis[t]) for s in basis]
            assert abs(out_dense[t] - np.dot(column, dense)) < 1e-12
            assert abs(out_single[t] - column[single]) < 1e-12

    @pytest.mark.parametrize("m", range(1, 11))
    def test_zero_and_one_photon(self, rng, m):
        vacuum = np.array([0.6 - 0.8j])
        out = evolve(haar_unitary(m, rng), PureState(m, 0, vacuum)).amplitudes
        assert out.tolist() == vacuum.tolist() and out is not vacuum
        u = haar_unitary(m, rng)
        amps = rng.normal(size=m) + 1j * rng.normal(size=m)
        out = evolve(u, PureState(m, 1, amps)).amplitudes
        assert np.max(np.abs(out - u @ amps)) < 1e-14

    def test_memory_stays_below_the_top_level(self, rng):
        # The images of all 715 four-photon basis states take 8.2 MB and
        # building them a 93 MB temporary; the evolve itself peaks near 9 MB.
        u = haar_unitary(10, rng)
        dim = len(fock_basis(4, 10))
        state = PureState(10, 4, np.ones(dim) / math.sqrt(dim))
        evolve(u, state)
        tracemalloc.start()
        try:
            evolve(u, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_uses_no_permanents(self, rng, monkeypatch):
        def forbidden(*args):
            raise AssertionError("evolve must not compute permanents")

        monkeypatch.setattr(fock, "permanent", forbidden)
        monkeypatch.setattr(fock, "transition_amplitude", forbidden)
        u = haar_unitary(4, rng)
        dim = len(fock_basis(3, 4))
        amps = np.ones(dim) / math.sqrt(dim)
        assert evolve(u, PureState(4, 3, amps)).norm() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 5),
        n=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_norm_preserved_property(self, m, n, seed):
        rng = np.random.default_rng(seed)
        dim = len(fock_basis(n, m))
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = PureState(m, n, amps / np.linalg.norm(amps))
        assert evolve(haar_unitary(m, rng), state).norm() == pytest.approx(
            1.0, abs=1e-10
        )

    def test_dense_eight_modes_four_photons(self, rng):
        dim = len(fock_basis(4, 8))
        assert dim == 330
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = PureState(8, 4, amps / np.linalg.norm(amps))
        out = evolve(haar_unitary(8, rng), state)
        assert out.amplitudes.shape == (dim,)
        assert out.norm() == pytest.approx(1.0, abs=1e-10)

    def test_norm_preserved(self, rng):
        u = haar_unitary(3, rng)
        basis = fock_basis(2, 3)
        amps = np.zeros(len(basis), dtype=np.complex128)
        amps[basis.index((1, 1, 0))] = 1.0
        state = PureState(3, 2, amps)
        out = evolve(u, state)
        assert out.norm() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_unitary(self):
        state = PureState(2, 1, np.array([1.0, 0.0], dtype=np.complex128))
        with pytest.raises(NotUnitary):
            evolve(np.ones((2, 2)), state)

    def test_channel_mismatch(self):
        state = PureState(3, 1, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(InvalidInput):
            evolve(np.eye(2), state)

    def test_check_unitary_tol(self):
        check_unitary(np.eye(2) * (1 + 1e-14))
        with pytest.raises(NotUnitary):
            check_unitary(np.eye(2) * 1.001)
        with pytest.raises(NotUnitary, match="deviates from identity by 1.000e-03"):
            check_unitary([[1.0, 1e-3], [0.0, 1.0]])  # off-diagonal deviation
        with pytest.raises(NotUnitary, match="by nan"):
            check_unitary(np.full((2, 2), np.nan))


class TestPureState:
    @pytest.mark.parametrize(
        "channels, photons, amplitudes",
        [
            (2, 2, np.array([1.0, 0.0])),
            (2, 2, np.zeros(4)),
            (2, 2, np.zeros((3, 1))),
            (2, 2, np.float64(1.0)),
            (0, 0, np.array([1.0])),
            (2, -1, np.array([1.0])),
        ],
        ids=["short", "long", "two_dim", "scalar", "no_channels", "negative_photons"],
    )
    def test_rejects_inconsistent_shapes(self, channels, photons, amplitudes):
        with pytest.raises(InvalidInput):
            PureState(channels, photons, amplitudes)

    @pytest.mark.parametrize(
        "channels, photons",
        [(2, 1.5), (2.0, 1), (2, np.float64(1.0)), (2, "1")],
        ids=["fractional_photons", "float_channels", "numpy_float", "string"],
    )
    def test_rejects_non_integer_counts(self, channels, photons):
        with pytest.raises(InvalidInput, match="must be an integer"):
            PureState(channels, photons, np.ones(2))

    def test_vacuum_and_single_photon(self):
        assert PureState(3, 0, np.array([1.0])).norm() == 1.0
        assert PureState(3, 1, np.array([0.0, 1.0, 0.0])).norm() == 1.0


class TestFockBasis:
    def test_counts(self):
        # multiset coefficient C(n + m - 1, n)
        assert len(fock_basis(2, 2)) == 3
        assert len(fock_basis(2, 4)) == 10
        assert len(fock_basis(3, 3)) == 10

    def test_photon_totals(self):
        assert all(sum(occ) == 2 for occ in fock_basis(2, 4))

    def test_rejects_negative_photon_number(self):
        with pytest.raises(InvalidInput, match="photon number"):
            fock_basis(-1, 2)

    @pytest.mark.parametrize(
        "photons, channels, name",
        [(1.5, 2, "photon number"), (2, 2.0, "channel count"), (2, 0, "channel count")],
    )
    def test_rejects_non_integer_counts(self, photons, channels, name):
        with pytest.raises(InvalidInput, match=f"^{name} must be an integer"):
            fock_basis(photons, channels)

    def test_numpy_integer_counts(self):
        assert fock_basis(np.int64(2), np.int64(3)) == fock_basis(2, 3)


class TestSource:
    def test_overlap_at_zero(self):
        src = PhotonPairSource()
        assert spectral_overlap(src, 0.0) == pytest.approx(0.92)

    def test_overlap_symmetric_and_decaying(self):
        src = PhotonPairSource()
        for d in (50.0, 120.0, 300.0):
            assert spectral_overlap(src, d) == pytest.approx(
                spectral_overlap(src, -d), abs=1e-15
            )
        xs = [spectral_overlap(src, d) for d in (0, 100, 200, 400)]
        assert xs == sorted(xs, reverse=True)

    def test_overlap_fwhm(self):
        src = PhotonPairSource()
        fwhm = src.overlap_fwhm_um()
        assert fwhm == pytest.approx(192.06, abs=0.01)
        assert spectral_overlap(src, fwhm / 2) == pytest.approx(
            0.92 / 2, abs=1e-12
        )

    def test_overlap_against_spectral_integral(self):
        # oracle: x(tau) as the Fourier transform of the normalized Gaussian
        # intensity spectrum, integrated numerically
        src = PhotonPairSource()
        c_nm = 2.99792458e17
        fwhm_omega = (
            2 * math.pi * c_nm * src.filter_fwhm_nm / src.center_wavelength_nm**2
        )
        sigma = fwhm_omega / (2 * math.sqrt(2 * math.log(2)))
        omega = np.linspace(-8 * sigma, 8 * sigma, 20001)
        spectrum = np.exp(-(omega**2) / (2 * sigma**2))
        spectrum /= np.trapezoid(spectrum, omega)
        for delay_um in (0.0, 60.0, 150.0, 300.0):
            tau = delay_um / 2.99792458e14
            x_numeric = abs(np.trapezoid(spectrum * np.exp(1j * omega * tau), omega))
            assert spectral_overlap(src, delay_um) == pytest.approx(
                0.92 * x_numeric, abs=1e-6
            )

    def test_overlap_of_array_is_per_delay(self, monkeypatch):
        src = PhotonPairSource()
        delays = np.array([[0.0, -150.0], [1e157, -1e300]])
        expected = [[spectral_overlap(src, d) for d in row] for row in delays]
        calls = []
        coherence_time_s = PhotonPairSource.coherence_time_s

        def counting(source):
            calls.append(source)
            return coherence_time_s(source)

        monkeypatch.setattr(PhotonPairSource, "coherence_time_s", counting)
        overlap = spectral_overlap(src, delays)
        assert overlap.tolist() == expected
        assert expected[1] == [0.0, 0.0]  # the limit of a huge delay
        assert len(calls) == 1  # tau_c once per call, not once per delay

    def test_validation(self):
        with pytest.raises(InvalidInput):
            PhotonPairSource(intrinsic_overlap=1.1)
        with pytest.raises(InvalidInput):
            PhotonPairSource(filter_fwhm_nm=0.0)
        with pytest.raises(InvalidInput):
            spectral_overlap(PhotonPairSource(), math.inf)
        with pytest.raises(InvalidInput):
            spectral_overlap(PhotonPairSource(), np.array([0.0, math.nan]))


class TestTwoPhotonCoincidence:
    def test_indistinguishable_balanced(self):
        u = coupler_unitary(0.5)
        assert two_photon_coincidence(u, (0, 1), (0, 1), 1.0) < 1e-12

    def test_distinguishable_is_classical(self):
        u = coupler_unitary(0.3)
        p = two_photon_coincidence(u, (0, 1), (0, 1), 0.0)
        t2, r2 = 0.7, 0.3
        assert p == pytest.approx(t2 * t2 + r2 * r2, abs=1e-12)

    def test_convex_mixture(self):
        u = coupler_unitary(0.55)
        p0 = two_photon_coincidence(u, (0, 1), (0, 1), 0.0)
        p1 = two_photon_coincidence(u, (0, 1), (0, 1), 1.0)
        x = 0.92
        assert two_photon_coincidence(u, (0, 1), (0, 1), x) == pytest.approx(
            x * p1 + (1 - x) * p0, abs=1e-12
        )

    def test_manual_enumeration(self):
        # eta = 0.3: amplitude for 11 -> 11 is t^2 - r^2 (symmetric convention
        # puts i on both cross terms)
        u = coupler_unitary(0.3)
        p1 = two_photon_coincidence(u, (0, 1), (0, 1), 1.0)
        assert p1 == pytest.approx((0.7 - 0.3) ** 2, abs=1e-12)

    def test_stack_matches_permanent(self, rng):
        # the closed form over a stack, against each matrix's permanent
        for m in (2, 3, 4):
            stack = np.array([haar_unitary(m, rng) for _ in range(6)])
            overlap = rng.uniform(0.0, 1.0, 6)
            for (i, j), (k, l) in itertools.product(
                itertools.combinations(range(m), 2), repeat=2
            ):
                occ_in = tuple(int(c in (i, j)) for c in range(m))
                occ_out = tuple(int(c in (k, l)) for c in range(m))
                expected = [
                    x * abs(transition_amplitude(u, occ_in, occ_out)) ** 2
                    + (1 - x) * abs(u[k, i] * u[l, j]) ** 2
                    + (1 - x) * abs(u[k, j] * u[l, i]) ** 2
                    for u, x in zip(stack, overlap)
                ]
                got = two_photon_coincidence(stack, (i, j), (k, l), overlap)
                assert got.shape == (6,)
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)

    def test_invalid(self):
        u = coupler_unitary(0.5)
        with pytest.raises(InvalidInput):
            two_photon_coincidence(u, (0, 0), (0, 1), 1.0)
        with pytest.raises(InvalidInput):
            two_photon_coincidence(u, (0, 1), (0, 1), 1.5)
        with pytest.raises(InvalidInput):
            two_photon_coincidence(u, (0, 1), (0, 1), np.array([0.5, math.nan]))
        with pytest.raises(InvalidInput, match="outside"):
            two_photon_coincidence(u, (0, 2), (0, 1), 1.0)


class TestVisibilityAndCoalescence:
    def test_balanced_is_unity(self):
        assert hom_visibility(0.5) == pytest.approx(1.0)

    def test_frozen_values(self):
        assert hom_visibility(0.55) == pytest.approx(99.0 / 101.0, abs=1e-12)
        assert hom_visibility(0.64) == pytest.approx(288.0 / 337.0, abs=1e-12)

    def test_symmetry_and_bound(self):
        for eta in np.linspace(0.05, 0.95, 19):
            v = hom_visibility(eta)
            assert v == pytest.approx(hom_visibility(1 - eta), abs=1e-12)
            assert v <= 1.0 + 1e-12

    def test_matches_coincidence_definition(self):
        # V = 1 - P_min/P_max with P from the two-photon calculation
        for eta in (0.3, 0.55, 0.64):
            u = coupler_unitary(eta)
            p_dip = two_photon_coincidence(u, (0, 1), (0, 1), 1.0)
            p_far = two_photon_coincidence(u, (0, 1), (0, 1), 0.0)
            assert hom_visibility(eta) == pytest.approx(
                1.0 - p_dip / p_far, abs=1e-12
            )

    def test_coalescence_eta_independent(self):
        values = {coalescence_enhancement(eta, 0.92) for eta in (0.2, 0.5, 0.8)}
        assert len(values) == 1
        assert values.pop() == pytest.approx(1.92)

    def test_coalescence_from_amplitudes(self):
        # both photons exiting the same arm: |amp|^2 for 11 -> 20 is
        # 2 t^2 r^2, versus the single classical assignment t^2 r^2
        eta, x = 0.55, 0.92
        u = coupler_unitary(eta)
        p_same_indist = abs(transition_amplitude(u, (1, 1), (2, 0))) ** 2
        p_same_dist = abs(u[0, 0]) ** 2 * abs(u[0, 1]) ** 2
        ratio = (x * p_same_indist + (1 - x) * p_same_dist) / p_same_dist
        assert coalescence_enhancement(eta, x) == pytest.approx(ratio, abs=1e-12)

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            hom_visibility(1.2)
        with pytest.raises(InvalidInput):
            coalescence_enhancement(0.0, 0.9)
        with pytest.raises(InvalidInput):
            coalescence_enhancement(0.5, 1.5)
