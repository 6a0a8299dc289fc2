import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeweaver import wgmodes
from modeweaver.errors import DegeneratePhaseMatch, InvalidInput, ModeCutoff
from modeweaver.wgmodes import (
    MaterialStack,
    ModeId,
    WaveguideGeometry,
    dispersion_sweep,
    effective_index,
    effective_indices,
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
        assert math.isnan(slab_neff(1.98, 1.45, 20, 808, "TE", 2))

    def test_against_bisection_oracle(self):
        n = float(slab_neff(1.98, 1.45, 190, 808, "TE", 0))
        assert n == pytest.approx(SLAB_TE0_190_ORACLE, abs=1e-10)
        assert abs(tangent_form_residual(n, 1.98, 1.45, 190, 808, 0)) < 1e-8

    def test_phase_residual_tight(self):
        n = slab_neff(1.98, 1.45, 900, 808, "TE", [0, 1, 2])
        for order in (0, 1, 2):
            r = tangent_form_residual(n[order], 1.98, 1.45, 900, 808, order)
            assert abs(r) < 1e-10

    def test_tm_differs_from_te(self):
        n_te, n_tm = slab_neff(1.98, 1.45, 190, 808, ["TE", "TM"], 0)
        assert n_tm < n_te  # TM is less confined in a thin high-contrast slab

    def test_broadcast_shape(self):
        n = slab_neff([1.9, 1.98], 1.45, [[400.0], [900.0], [1600.0]], 808, "TE", 1)
        assert n.shape == (3, 2)
        assert n[0, 0] < n[1, 0] < n[2, 0]
        assert n[2, 0] < n[2, 1]

    def test_invalid_inputs(self):
        for args in [
            (1.45, 1.98, 190, 808),
            ([1.98, 1.4], 1.45, 190, 808),
            (1.98, 1.45, -5, 808),
            (1.98, 1.45, [190, math.nan], 808),
            (1.98, 1.45, 190, 808, "TX", 0),
            (1.98, 1.45, 190, 808, ["TE", "TX"], 0),
            (1.98, 1.45, 190, 808, "TE", [0, -1]),
        ]:
            with pytest.raises(InvalidInput):
                slab_neff(*args)


# 200-bit roots of the phase-form slab relation (mpmath bisection on the
# float arguments) at TestSlabSolverStop.ARGS, orders 0-8, rounded to double
SLAB_TM_3000_ORACLES = [
    1.8955896734492217,
    1.882315173752842,
    1.8600464003809145,
    1.8285695459945297,
    1.7875983734661798,
    1.7368109682381474,
    1.675962425695984,
    1.605243534476424,
    1.5266260630485378,
]


@pytest.fixture
def residual_evaluations(monkeypatch):
    """Counts the residual evaluations of slab_neff: one np.arctan2 call each."""
    calls = []
    arctan2 = np.arctan2

    def counted(*args, **kwargs):
        calls.append(args)
        return arctan2(*args, **kwargs)

    monkeypatch.setattr(wgmodes.np, "arctan2", counted)
    return calls


class TestSlabSolverStop:
    ARGS = (1.9, 1.45, 3000, 808, "TM")

    def solve(self, residual_evaluations, order):
        residual_evaluations.clear()
        n = float(slab_neff(*self.ARGS, order))
        oracle = SLAB_TM_3000_ORACLES[order]
        assert abs(n - oracle) <= 2 * math.ulp(oracle)
        assert len(residual_evaluations) <= 10
        return n

    @pytest.mark.parametrize("order", [5, 6, 7, 8])
    def test_high_orders_stop_at_the_ulp_of_u(self, residual_evaluations, order):
        # u >= 8 here, where an ulp of u (1.8e-15) is wider than any fixed
        # stop width below 1e-15, so only a stop relative to u ends the solve
        n = self.solve(residual_evaluations, order)
        n_core, _, thickness, wavelength, _ = self.ARGS
        assert math.pi * thickness / wavelength * math.sqrt(n_core**2 - n**2) >= 8

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_low_orders_near_the_root(self, residual_evaluations, order):
        self.solve(residual_evaluations, order)

    def test_each_element_stops_at_its_own_break(self):
        orders = list(range(9))
        n = slab_neff(*self.ARGS, orders)
        single = [float(slab_neff(*self.ARGS, order)) for order in orders]
        assert [x.hex() for x in n.tolist()] == [x.hex() for x in single]


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

    @pytest.mark.parametrize(
        "geometry, mode, message",
        [
            (WaveguideGeometry(1600, 190), ModeId("TE", 9),
             "TE9 not guided at width 1600 nm, height 190 nm"),
            (WaveguideGeometry(1600, 1e-3), TE0,
             "TE0 not guided at width 1600 nm, height 0.001 nm"),
            (WaveguideGeometry(1e308, 190), ModeId("TM", 0),
             "TM0 not guided at width 1e+308 nm, height 190 nm"),
        ],
    )
    def test_cutoff_names_the_requested_mode(self, geometry, mode, message):
        with pytest.raises(ModeCutoff) as info:
            effective_index(geometry, mode)
        assert str(info.value) == message

    def test_indices_of_several_modes(self):
        geom = WaveguideGeometry(1600, 190)
        modes = [TE2, TE0, ModeId("TM", 1)]
        assert effective_indices(geom, modes) == [
            effective_index(geom, mode) for mode in modes
        ]
        with pytest.raises(ModeCutoff, match="^TE9 not guided"):
            effective_indices(geom, [TE0, ModeId("TE", 9), ModeId("TE", 10)])

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
        rows = dispersion_sweep(widths, [TE0, TE1, TE2])
        for mode in (TE0, TE1, TE2):
            values = [n for _, m, n in rows if m == mode]
            assert values == sorted(values)

    def test_single_point_consistency(self):
        ((_, _, n),) = dispersion_sweep([1600], [TE2])
        assert n == effective_index(WaveguideGeometry(1600, 190), TE2)

    def test_cutoff_recorded_as_absent(self):
        rows = dispersion_sweep([400, 1600], [TE2])
        assert [w for w, _, _ in rows] == [1600]

    def test_empty_sweep(self):
        with pytest.raises(InvalidInput):
            dispersion_sweep([], [TE0])

    @pytest.mark.parametrize(
        "widths, height, message",
        [
            ([400, 0, math.nan], 190, "width and height must be positive"),
            ([400, -5], 190, "width and height must be positive"),
            ([400, 800, math.nan], 190, "width_nm must be finite, got nan"),
            ([1e300, math.inf], 190, "width_nm must be finite, got inf"),
            ([400, math.nan], math.nan, "height_nm must be finite, got nan"),
            ([math.nan], math.nan, "width_nm must be finite, got nan"),
            ([400, 800], 0, "width and height must be positive"),
        ],
    )
    def test_first_invalid_width_raises(self, widths, height, message):
        with pytest.raises(InvalidInput) as info:
            dispersion_sweep(widths, [TE0], height_nm=height)
        assert str(info.value) == message

    def test_every_width_is_a_geometry(self):
        # a width WaveguideGeometry rejects is rejected even where a float
        # array would accept it
        with pytest.raises(TypeError):
            dispersion_sweep([400.0, "500"], [TE0])

    def test_one_vertical_solve_per_sweep(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return slab_neff(*args)

        monkeypatch.setattr(wgmodes, "slab_neff", counted)
        widths = np.arange(400, 3001, 50)
        modes = [TE0, ModeId("TM", 1), TE2, ModeId("TM", 0), TE1]
        dispersion_sweep(widths, modes)
        vertical, lateral = calls
        assert vertical[2:] == (190.0, 808.0, ["TE", "TM"], 0)
        assert np.shape(lateral[2]) == (len(widths), 1)
        assert lateral[4:] == (["TM", "TE", "TM", "TE", "TM"], [0, 1, 2, 0, 1])

    def test_cut_off_edge_matches_per_point_solve(self):
        # these widths sit about 1e-9 above TE2's cut-off width. A 200-bit
        # solve puts n_eff within half an ulp of n_clad for the first two
        # and one ulp above it for the third, so a returned row may only be
        # within an ulp of those
        wavelength = 1046.1721846727482
        stack = MaterialStack(
            wgmodes.silicon_nitride_index(wavelength),
            wgmodes.silica_index(wavelength),
            wavelength,
        )
        height = 948.3669491714678
        widths = [790.1977399001582, 790.1977444655257, 790.1977502449289]
        exact = [1.4498461880556892, 1.4498461880556892, 1.4498461880556894]
        assert exact[0] == stack.n_clad
        reference = []
        for width in widths:
            try:
                n = effective_index(WaveguideGeometry(width, height, stack), TE2)
            except ModeCutoff:
                continue
            reference.append((width, TE2, n))
        rows = dispersion_sweep(widths, [TE2], stack, height)
        assert rows == reference
        for width, _, n in rows:
            expected = exact[widths.index(width)]
            assert abs(n - expected) <= math.ulp(expected)

    @settings(max_examples=60, deadline=None)
    @given(sweep=st.data())
    def test_matches_per_point_solves(self, sweep):
        """Rows, their order, the guided set and every n_eff bit equal
        those of one effective_index solve per (width, mode)."""
        draw = sweep.draw
        wavelength = draw(st.floats(600.0, 1800.0), label="wavelength")
        height = draw(
            st.one_of(st.floats(80.0, 1000.0), st.sampled_from([1e-3, 1.0, 10.0])),
            label="height",
        )
        modes = draw(
            st.lists(
                st.builds(ModeId, st.sampled_from(["TE", "TM"]), st.integers(0, 8)),
                min_size=1,
                max_size=4,
            ),
            label="modes",
        )
        stack = MaterialStack(
            wgmodes.silicon_nitride_index(wavelength),
            wgmodes.silica_index(wavelength),
            wavelength,
        )
        widths = draw(
            st.lists(st.floats(20.0, 8000.0), min_size=1, max_size=20), label="widths"
        )
        for mode in modes:
            # widths just either side of the lateral cut-off, V = order*pi/2
            n_vertical = float(
                slab_neff(stack.n_core, stack.n_clad, height, wavelength, mode.family)
            )
            if math.isnan(n_vertical) or mode.order == 0:
                continue
            aperture = math.sqrt(n_vertical**2 - stack.n_clad**2)
            if aperture == 0.0:
                continue
            cutoff = mode.order * wavelength / (2.0 * aperture)
            offsets = draw(
                st.lists(
                    st.tuples(st.floats(-1.0, 1.0), st.integers(-16, -2)), max_size=6
                ),
                label=f"{mode} offsets",
            )
            widths += [cutoff * (1.0 + m * 10.0**e) for m, e in offsets]

        reference = []
        for width in widths:
            geometry = WaveguideGeometry(width, height, stack)
            for mode in modes:
                try:
                    reference.append((width, mode, effective_index(geometry, mode)))
                except ModeCutoff:
                    pass
        rows = dispersion_sweep(widths, modes, stack, height)
        assert rows == reference
        assert all(type(n) is float for _, _, n in rows)


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
