import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modeweaver.coupling import (
    REFERENCE_GRATING_DEPTH_NM,
    REFERENCE_KAPPA_PER_PERIOD,
    GratingSpec,
    coupler_unitary,
    grating_from_geometry,
    splitting_ratio,
)
from modeweaver.errors import InvalidInput
from modeweaver.fock import check_unitary
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


class TestCouplerUnitary:
    def test_amplitudes(self):
        u = coupler_unitary(0.55)
        t, r = math.sqrt(0.45), math.sqrt(0.55)
        assert u[0, 0] == pytest.approx(t, abs=1e-12)
        assert u[0, 1] == pytest.approx(1j * r, abs=1e-12)
        assert u[1, 0] == pytest.approx(1j * r, abs=1e-12)
        assert u[1, 1] == pytest.approx(t, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(eta=st.floats(0.0, 1.0))
    @example(eta=0.0)
    @example(eta=1.0)
    @example(eta=5e-324)  # the smallest subnormal
    @example(eta=1.0 - 1e-16)
    def test_unitary(self, eta):
        # unitary by construction over all of [0, 1], so compile_circuit
        # need not check each coupler
        check_unitary(coupler_unitary(eta))  # at its default 1e-12

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
        )
        defaults.update(kw)
        return GratingSpec(**defaults)

    def test_eta_and_length(self):
        spec = self.make()
        assert spec.eta == pytest.approx(SIN2_0_820, abs=1e-12)
        assert spec.length_um == pytest.approx(6.675 * 20)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            self.make(period_um=0.0)
        for field in ("period_um", "depth_nm", "kappa_per_period"):
            with pytest.raises(InvalidInput, match="must be finite"):
                self.make(**{field: math.nan})


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

    def test_nan_depth_rejected(self):
        with pytest.raises(InvalidInput, match="must be finite"):
            grating_from_geometry(self.GEOM, (TE0, TE2), depth_nm=math.nan)

    def test_kappa_override(self):
        spec = grating_from_geometry(self.GEOM, (TE0, TE2), kappa_override=0.05)
        assert spec.kappa_per_period == 0.05

    def test_symmetry_assignment(self):
        assert grating_from_geometry(self.GEOM, (TE0, TE2)).symmetry == "symmetric"
        assert grating_from_geometry(self.GEOM, (TE0, TE1)).symmetry == "asymmetric"

