import math

import numpy as np
import pytest

from modeweaver import wgmodes
from modeweaver.errors import DegeneratePhaseMatch, InvalidInput, ModeCutoff
from modeweaver.wgmodes import (
    MaterialStack,
    ModeId,
    WaveguideGeometry,
    dispersion_sweep,
    effective_index,
    grating_period,
    slab_neff,
)

TE0 = ModeId("TE", 0)
TE1 = ModeId("TE", 1)
TE2 = ModeId("TE", 2)

# independent dense-scan bisection of the tangent-form slab relation,
# frozen for (n_core=1.98, n_clad=1.45, t=190 nm, lambda=808 nm, TE0)
SLAB_TE0_190_ORACLE = 1.7100313597780021


def tangent_form_residual(n_eff, n_core, n_clad, t, lam, order, q=1.0):
    half_kt = math.pi * t / lam
    v = half_kt * math.sqrt(n_core**2 - n_clad**2)
    u = half_kt * math.sqrt(n_core**2 - n_eff**2)
    w = math.sqrt(max(v * v - u * u, 0.0))
    return u * math.tan(u - order * math.pi / 2) - q * w


class TestSlab:
    def test_thick_slab_limit(self):
        n = slab_neff(1.98, 1.45, 10000, 808, "TE", 0)
        assert abs(n - 1.98) < 1e-3

    def test_far_below_cutoff(self):
        with pytest.raises(ModeCutoff):
            slab_neff(1.98, 1.45, 20, 808, "TE", 2)

    def test_against_bisection_oracle(self):
        n = slab_neff(1.98, 1.45, 190, 808, "TE", 0)
        assert n == pytest.approx(SLAB_TE0_190_ORACLE, abs=1e-10)
        assert abs(tangent_form_residual(n, 1.98, 1.45, 190, 808, 0)) < 1e-8

    def test_phase_residual_tight(self):
        for order in (0, 1, 2):
            n = slab_neff(1.98, 1.45, 900, 808, "TE", order)
            r = tangent_form_residual(n, 1.98, 1.45, 900, 808, order)
            assert abs(r) < 1e-10

    def test_tm_differs_from_te(self):
        n_te = slab_neff(1.98, 1.45, 190, 808, "TE", 0)
        n_tm = slab_neff(1.98, 1.45, 190, 808, "TM", 0)
        assert n_tm < n_te  # TM is less confined in a thin high-contrast slab

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInput):
            slab_neff(1.45, 1.98, 190, 808)
        with pytest.raises(InvalidInput):
            slab_neff(1.98, 1.45, -5, 808)
        with pytest.raises(InvalidInput):
            slab_neff(1.98, 1.45, 190, 808, "TX", 0)


class TestEffectiveIndex:
    def test_published_index_difference(self):
        geom = WaveguideGeometry(1600, 190)
        dn = effective_index(geom, TE0) - effective_index(geom, TE2)
        assert dn == pytest.approx(0.12, abs=0.03)

    def test_mode_order_monotonicity(self):
        geom = WaveguideGeometry(1600, 190)
        n = [effective_index(geom, ModeId("TE", k)) for k in range(3)]
        assert n[0] > n[1] > n[2]

    def test_bounds(self):
        geom = WaveguideGeometry(1600, 190)
        stack = geom.stack
        for order in range(3):
            n = effective_index(geom, ModeId("TE", order))
            assert stack.n_clad < n < stack.n_core

    def test_single_mode_regime(self):
        # 420 nm wide guide: TE1 is cut off or squeezed against the cladding
        geom = WaveguideGeometry(420, 190)
        try:
            n = effective_index(geom, TE1)
        except ModeCutoff:
            return
        assert n - geom.stack.n_clad < 1e-3


class TestGratingPeriod:
    def test_published_value(self):
        assert grating_period(808, 0.12105) == pytest.approx(6.675, abs=5e-4)

    def test_exact_inverse(self):
        for dn in (0.05, 0.12105, 0.3):
            assert grating_period(808, dn) * dn * 1e3 == pytest.approx(
                808, rel=1e-15
            )

    def test_degenerate(self):
        with pytest.raises(DegeneratePhaseMatch):
            grating_period(808, 1e-12)

    def test_scale_invariance(self):
        assert grating_period(1616, 0.2421) == pytest.approx(
            grating_period(808, 0.12105), rel=1e-12
        )


class TestDispersionSweep:
    def test_monotone_in_width(self):
        widths = np.arange(400, 2001, 100)
        curve = dispersion_sweep(widths, [TE0, TE1, TE2])
        for mode in (TE0, TE1, TE2):
            values = [n for _, m, n in curve.rows if m == mode]
            assert values == sorted(values)

    def test_single_point_consistency(self):
        curve = dispersion_sweep([1600], [TE2])
        ((_, _, n),) = curve.rows
        assert n == effective_index(WaveguideGeometry(1600, 190), TE2)

    def test_cutoff_recorded_as_absent(self):
        curve = dispersion_sweep([400, 1600], [TE2])
        assert [w for w, _, _ in curve.rows] == [1600]

    def test_csv_format(self):
        curve = dispersion_sweep([420, 1600], [TE0])
        lines = curve.to_csv().splitlines()
        assert lines[0] == "sweep_param,mode_family,mode_order,n_eff"
        assert lines[1].startswith("420,TE,0,")
        assert len(lines) == 3

    def test_empty_sweep(self):
        with pytest.raises(InvalidInput):
            dispersion_sweep([], [TE0])


class TestMaterials:
    def test_frozen_constants_match_sellmeier(self):
        assert wgmodes.SI3N4_INDEX_808 == wgmodes.silicon_nitride_index(808)
        assert wgmodes.SIO2_INDEX_808 == wgmodes.silica_index(808)
        # frozen oracle evaluations of the published Sellmeier relations
        assert wgmodes.SI3N4_INDEX_808 == pytest.approx(2.023634, abs=1e-5)
        assert wgmodes.SIO2_INDEX_808 == pytest.approx(1.453180, abs=1e-5)

    def test_stack_validation(self):
        with pytest.raises(InvalidInput):
            MaterialStack(n_core=1.4, n_clad=1.45)
        with pytest.raises(InvalidInput):
            WaveguideGeometry(-1, 190)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: WaveguideGeometry(math.nan, 190),
            lambda: WaveguideGeometry(1600, math.nan),
            lambda: MaterialStack(n_core=math.inf),
            lambda: MaterialStack(wavelength_nm=math.nan),
        ],
        ids=["width", "height", "n_core", "wavelength"],
    )
    def test_rejects_non_finite(self, make):
        with pytest.raises(InvalidInput, match="must be finite"):
            make()

    @pytest.mark.parametrize("wavelength_nm", [1e300, math.inf, math.nan, 0.0, -808.0])
    @pytest.mark.parametrize(
        "index", [wgmodes.silicon_nitride_index, wgmodes.silica_index]
    )
    def test_sellmeier_domain(self, index, wavelength_nm):
        with pytest.raises(InvalidInput):
            index(wavelength_nm)

    def test_sellmeier_resonance(self):
        # just above the 135 nm Si3N4 pole n^2 < 0; on it the sum divides by zero
        for wavelength_nm in (100.0, 135.3406):
            with pytest.raises(InvalidInput):
                wgmodes.silicon_nitride_index(wavelength_nm)

    def test_mode_id_parse(self):
        assert ModeId.parse("te2") == TE2
        with pytest.raises(InvalidInput):
            ModeId.parse("TX1")
