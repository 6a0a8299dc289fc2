import math

import numpy as np
import pytest

from modeweaver.coupling import (
    REFERENCE_GRATING_DEPTH_NM,
    REFERENCE_KAPPA_PER_PERIOD,
    DirectionalCouplerSpec,
    GratingSpec,
    coupler_unitary,
    detuned_splitting,
    grating_from_geometry,
    multiplexer_transfer,
    splitting_ratio,
)
from modeweaver.errors import InvalidInput
from modeweaver.wgmodes import ModeId, WaveguideGeometry

TE0 = ModeId("TE", 0)
TE1 = ModeId("TE", 1)
TE2 = ModeId("TE", 2)

# high-precision sin^2(kappa N) evaluations, frozen from mpmath
SIN2_0_615 = 0.332881136437749
SIN2_0_820 = 0.534574224327031
SIN2_1_025 = 0.730536345688356


class TestSplittingRatio:
    def test_frozen_values(self):
        assert splitting_ratio(0.041, 15) == pytest.approx(SIN2_0_615, abs=1e-12)
        assert splitting_ratio(0.041, 20) == pytest.approx(SIN2_0_820, abs=1e-12)
        assert splitting_ratio(0.041, 25) == pytest.approx(SIN2_1_025, abs=1e-12)

    def test_limits(self):
        assert splitting_ratio(0.041, 0) == 0.0
        assert splitting_ratio(math.pi / 2, 1) == pytest.approx(1.0)

    def test_bounded(self):
        for n in range(0, 200, 7):
            assert 0.0 <= splitting_ratio(0.041, n) <= 1.0

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            splitting_ratio(-0.01, 10)
        with pytest.raises(InvalidInput):
            splitting_ratio(0.041, -1)


class TestDetunedSplitting:
    def test_zero_detuning_reduces(self):
        for kappa, length in [(0.006, 133.5), (0.02, 40.0)]:
            assert detuned_splitting(kappa, 0.0, length) == pytest.approx(
                splitting_ratio(kappa * length, 1), abs=1e-12
            )

    def test_large_detuning_suppresses(self):
        assert detuned_splitting(0.006, 10.0, 133.5) < 1e-5

    def test_envelope_bound(self):
        kappa, delta = 0.006, 0.004
        bound = kappa**2 / (kappa**2 + delta**2)
        for length in np.linspace(0, 500, 40):
            assert detuned_splitting(kappa, delta, length) <= bound + 1e-12

    def test_against_rk4_oracle(self):
        # integrate the two-mode coupled equations directly:
        # A' = i k B exp(+2 i d z), B' = i k A exp(-2 i d z)
        kappa, delta, length = 0.006, 0.003, 133.5

        def deriv(z, y):
            a, b = y
            return np.array(
                [
                    1j * kappa * b * np.exp(2j * delta * z),
                    1j * kappa * a * np.exp(-2j * delta * z),
                ]
            )

        steps = 4000
        h = length / steps
        y = np.array([1.0 + 0j, 0.0 + 0j])
        z = 0.0
        for _ in range(steps):
            k1 = deriv(z, y)
            k2 = deriv(z + h / 2, y + h / 2 * k1)
            k3 = deriv(z + h / 2, y + h / 2 * k2)
            k4 = deriv(z + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            z += h
        cross_power = abs(y[1]) ** 2
        assert detuned_splitting(kappa, delta, length) == pytest.approx(
            cross_power, abs=1e-6
        )


class TestCouplerUnitary:
    def test_amplitudes(self):
        u = coupler_unitary(0.55)
        t, r = math.sqrt(0.45), math.sqrt(0.55)
        assert u[0, 0] == pytest.approx(t, abs=1e-12)
        assert u[0, 1] == pytest.approx(1j * r, abs=1e-12)
        assert u[1, 0] == pytest.approx(1j * r, abs=1e-12)
        assert u[1, 1] == pytest.approx(t, abs=1e-12)

    def test_unitary(self):
        for eta in (0.0, 0.3, 0.5345, 1.0):
            u = coupler_unitary(eta)
            dev = np.max(np.abs(u.conj().T @ u - np.eye(2)))
            assert dev < 1e-12

    def test_eta_out_of_range(self):
        with pytest.raises(InvalidInput):
            coupler_unitary(1.2)
        with pytest.raises(InvalidInput):
            coupler_unitary(-0.1)


class TestGratingSpec:
    def make(self, **kw):
        defaults = dict(
            period_um=6.675,
            depth_nm=24.0,
            num_periods=20,
            kappa_per_period=0.041,
            mode_pair=(TE0, TE2),
            symmetry="symmetric",
        )
        defaults.update(kw)
        return GratingSpec(**defaults)

    def test_eta_and_length(self):
        spec = self.make()
        assert spec.eta == pytest.approx(SIN2_0_820, abs=1e-12)
        assert spec.length_um == pytest.approx(6.675 * 20)

    def test_parity_rule(self):
        with pytest.raises(InvalidInput):
            self.make(mode_pair=(TE0, TE1))
        self.make(mode_pair=(TE0, TE1), symmetry="asymmetric")

    def test_dict_round_trip(self):
        spec = self.make()
        assert GratingSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(InvalidInput):
            self.make(period_um=0.0)
        with pytest.raises(InvalidInput):
            self.make(symmetry="chiral")


class TestGratingFromGeometry:
    GEOM = WaveguideGeometry(1600, 190)

    def test_designed_period(self):
        spec = grating_from_geometry(self.GEOM, (TE0, TE2))
        assert spec.period_um == pytest.approx(6.675, rel=0.25)
        assert spec.length_um == pytest.approx(spec.period_um * 20)

    def test_depth_scaling(self):
        shallow = grating_from_geometry(self.GEOM, (TE0, TE2), depth_nm=12)
        deep = grating_from_geometry(self.GEOM, (TE0, TE2), depth_nm=48)
        assert shallow.kappa_per_period == pytest.approx(0.0205, abs=1e-12)
        assert deep.kappa_per_period == pytest.approx(0.082, abs=1e-12)

    def test_reference_depth_anchor(self):
        spec = grating_from_geometry(
            self.GEOM, (TE0, TE2), depth_nm=REFERENCE_GRATING_DEPTH_NM
        )
        assert spec.kappa_per_period == REFERENCE_KAPPA_PER_PERIOD

    def test_kappa_override(self):
        spec = grating_from_geometry(self.GEOM, (TE0, TE2), kappa_override=0.05)
        assert spec.kappa_per_period == 0.05

    def test_symmetry_assignment(self):
        assert grating_from_geometry(self.GEOM, (TE0, TE2)).symmetry == "symmetric"
        assert grating_from_geometry(self.GEOM, (TE0, TE1)).symmetry == "asymmetric"


class TestMultiplexer:
    def test_leak_split(self):
        powers = multiplexer_transfer(1, 0.01, 3)
        assert powers[1] == pytest.approx(0.99)
        assert powers[0] == pytest.approx(0.005)
        assert powers[2] == pytest.approx(0.005)
        assert powers.sum() == pytest.approx(1.0)

    def test_no_crosstalk(self):
        powers = multiplexer_transfer(2, 0.0, 4)
        assert powers[2] == 1.0
        assert powers.sum() == 1.0

    def test_channel_bounds(self):
        with pytest.raises(InvalidInput):
            multiplexer_transfer(5, 0.0, 3)

    def test_spec_validation(self):
        with pytest.raises(InvalidInput):
            DirectionalCouplerSpec(target_channel=0, crosstalk=1.0)
        with pytest.raises(InvalidInput):
            DirectionalCouplerSpec(target_channel=-1)
