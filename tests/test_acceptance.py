"""End-to-end acceptance suite.

Each test checks one published-device criterion and prints a one-line
pass/fail verdict directly to the terminal (bypassing capture) so the
acceptance status is visible in the run log.
"""

import itertools
import json
import math

import numpy as np
import pytest

from conftest import haar_unitary
from modeweaver import cli, circuit as circuit_mod, coupling, experiments, fock, wgmodes

# frozen high-precision references
ETA_N20 = 0.534574224327031  # sin^2(0.041 * 20)
V_55 = 99.0 / 101.0  # 2*0.55*0.45 / (0.55^2 + 0.45^2)


def verdict(capsys, number, ok, text):
    with capsys.disabled():
        print(f"[criterion {number:2d}] {'pass' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_1_grating_period(capsys):
    geom = wgmodes.WaveguideGeometry(1600.0, 190.0)
    n_te0, n_te2 = wgmodes.effective_indices(
        geom, [wgmodes.ModeId("TE", 0), wgmodes.ModeId("TE", 2)]
    )
    dn = n_te0 - n_te2
    period_design = wgmodes.grating_period(808.0, dn)
    period_fixed = wgmodes.grating_period(808.0, 0.12105)
    ok = (
        abs(period_design - 6.675) <= 6.675 * 0.25
        and abs(period_fixed - 6.675) < 5e-4
    )
    verdict(
        capsys, 1, ok,
        f"grating period: designed {period_design:.4g} um (6.675 +- 25%), "
        f"fixed-dn {period_fixed:.6g} um (6.675 to 4 digits)",
    )


def test_criterion_2_splitting(capsys):
    eta20 = coupling.splitting_ratio(0.041, 20)
    brackets = {
        15: (coupling.splitting_ratio(0.041, 15), 1.0 / 3.0),
        20: (eta20, 0.5),
        25: (coupling.splitting_ratio(0.041, 25), 2.0 / 3.0),
    }
    ok = abs(eta20 - ETA_N20) < 1e-6 and abs(eta20 - 0.5345) < 1e-4
    ok = ok and abs(eta20 - 0.5) < 0.07  # "approximately 50:50"
    ok = ok and all(abs(eta - frac) <= 0.07 for eta, frac in brackets.values())
    verdict(
        capsys, 2, ok,
        f"splitting: eta(0.041, 20) = {eta20:.6f}, N in (15, 20, 25) "
        "brackets (1/3, 1/2, 2/3) within 0.07",
    )


def test_criterion_3_visibility_chain(capsys):
    v55 = fock.hom_visibility(0.55)
    v64 = fock.hom_visibility(0.64)
    dip = experiments.run_hom_dip(0.55)
    dip64 = experiments.run_hom_dip(0.64)
    ok = abs(v55 - V_55) < 1e-6 and abs(v55 - 0.9802) < 5e-5
    ok = ok and abs(0.92 * v55 - 0.90) <= 0.008 + 0.005
    ok = ok and abs(dip.metrics["visibility"] - 0.92 * v55) < 1e-3
    ok = ok and abs(0.92 * v64 - 0.78) <= 0.003 + 0.008
    ok = ok and abs(dip64.metrics["visibility"] - 0.92 * v64) < 1e-3
    verdict(
        capsys, 3, ok,
        f"visibility chain: V(0.55) = {v55:.6f}, x0*V = "
        f"{dip.metrics['visibility']:.4f} ~ 0.90; "
        f"x0*V(0.64) = {dip64.metrics['visibility']:.4f} ~ 0.78",
    )


def test_criterion_4_dip_width(capsys):
    src = fock.PhotonPairSource()
    # spectral-integral oracle: half width of |FT of the intensity spectrum|
    c_nm = 2.99792458e17
    fwhm_omega = 2 * math.pi * c_nm * src.filter_fwhm_nm / src.center_wavelength_nm**2
    sigma = fwhm_omega / (2 * math.sqrt(2 * math.log(2)))
    omega = np.linspace(-8 * sigma, 8 * sigma, 40001)
    spectrum = np.exp(-(omega**2) / (2 * sigma**2))
    spectrum /= np.trapezoid(spectrum, omega)

    def x_of(t):
        return abs(np.trapezoid(spectrum * np.exp(1j * omega * t), omega))

    # x falls from 1 at tau = 0; bisect its 0.5 crossing on [0, 2 ps]
    lo, hi = 0.0, 2e-12
    assert x_of(lo) > 0.5 > x_of(hi)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if x_of(mid) > 0.5 else (lo, mid)
    tau_half = 0.5 * (lo + hi)
    fwhm_oracle_um = 2.0 * tau_half * fock.SPEED_OF_LIGHT_UM_PER_S
    dip = experiments.run_hom_dip(0.55)
    fwhm = dip.metrics["fwhm_um"]
    ok = abs(fwhm - fwhm_oracle_um) / fwhm_oracle_um < 0.01
    ok = ok and abs(fwhm - 194.0) <= 30.0
    verdict(
        capsys, 4, ok,
        f"dip width: simulated FWHM {fwhm:.2f} um vs integral oracle "
        f"{fwhm_oracle_um:.2f} um (< 1%), inside 194 +- 30 um",
    )


def test_criterion_5_coalescence(capsys):
    ratio_ideal = fock.coalescence_enhancement(0.55, 1.0)
    ratio_measured = fock.coalescence_enhancement(0.55, 0.92)
    grid = np.linspace(0.05, 0.95, 20)
    spread = max(fock.coalescence_enhancement(float(e), 0.92) for e in grid) - \
        min(fock.coalescence_enhancement(float(e), 0.92) for e in grid)
    peaks = experiments.run_hom_peak(0.55)
    measured = peaks["arm_a"].metrics["enhancement_ratio"]
    ok = abs(ratio_ideal - 2.0) < 1e-9
    ok = ok and abs(ratio_measured - 1.92) < 1e-9
    ok = ok and spread < 1e-10
    ok = ok and abs(measured - 1.92) < 1e-3
    verdict(
        capsys, 5, ok,
        f"coalescence: ratio 2.000 at x0 = 1, {measured:.4f} ~ 1.92 at "
        f"x0 = 0.92, eta-independent to {spread:.1e}",
    )


def test_criterion_6_noon(capsys):
    classical, quantum = experiments.run_noon(0.66, 0.66)
    v_cl = classical.metrics["visibility"]
    v_q = quantum.metrics["visibility"]
    ratio = quantum.metrics["period_ratio"]
    # dense-phase enumeration of the two-photon fringe: visibility of the
    # doubled-frequency component (amplitude over offset, as in the fit)
    x0 = 0.92
    phis = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    probs = []
    for phi in phis:
        circuit = experiments._noon_circuit(0.66, 0.66, float(phi))
        u = circuit_mod.compile_circuit(circuit)
        probs.append(fock.two_photon_coincidence(u, (0, 1), (0, 1), x0))
    probs = np.asarray(probs)
    offset = float(np.mean(probs))
    amp2 = 2.0 * abs(np.mean(probs * np.exp(-2j * phis)))
    v_enum = amp2 / offset
    ok = abs(v_cl - 0.814) < 1e-3 and abs(v_cl - 0.82) <= 0.08
    ok = ok and abs(ratio - 0.5) < 1e-6
    ok = ok and abs(v_q - 0.86) <= 0.06 and abs(v_enum - 0.86) <= 0.06
    verdict(
        capsys, 6, ok,
        f"two-photon fringe: classical V = {v_cl:.4f} (~0.814), period ratio "
        f"= {ratio:.7f} (0.5 +- 1e-6), quantum V = {v_q:.4f} "
        f"(enumeration {v_enum:.4f}, 0.86 +- 0.06)",
    )


def test_criterion_7_oracle_equivalence(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 5))
        u = haar_unitary(m, rng)
        i, j = 0, 1
        for k, l in itertools.combinations(range(m), 2):
            occ_in = tuple(1 if c in (i, j) else 0 for c in range(m))
            occ_out = tuple(1 if c in (k, l) else 0 for c in range(m))
            p_perm = abs(fock.transition_amplitude(u, occ_in, occ_out)) ** 2
            p_path = abs(u[k, i] * u[l, j] + u[k, j] * u[l, i]) ** 2
            worst = max(worst, abs(p_perm - p_path))
    worst_perm = 0.0
    for n in range(2, 7):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        naive = sum(
            math.prod(a[r, p[r]] for r in range(n))
            for p in itertools.permutations(range(n))
        )
        scale = max(abs(naive), 1.0)
        worst_perm = max(worst_perm, abs(fock.permanent(a) - naive) / scale)
    ok = worst < 1e-12 and worst_perm < 1e-12
    verdict(
        capsys, 7, ok,
        f"oracles: path enumeration deviation {worst:.1e}, "
        f"Glynn vs naive {worst_perm:.1e} (both < 1e-12)",
    )


def test_criterion_8_unitarity(capsys):
    rng = np.random.default_rng(8)
    worst_u = 0.0
    for _ in range(50):
        elements = []
        for _ in range(10):
            a, b = rng.choice(4, size=2, replace=False)
            elements.append(
                circuit_mod.GratingBS(channels=(int(a), int(b)), eta=float(rng.uniform()))
            )
            elements.append(
                circuit_mod.PhaseShifter(
                    channels=(int(rng.integers(4)),), phase_rad=float(rng.uniform(0, 7))
                )
            )
        u = circuit_mod.compile_circuit(circuit_mod.Circuit(4, tuple(elements)))
        worst_u = max(worst_u, float(np.max(np.abs(u.conj().T @ u - np.eye(4)))))
    worst_norm = 0.0
    basis = fock.fock_basis(2, 3)
    for _ in range(20):
        u = haar_unitary(3, rng)
        amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        amps /= np.linalg.norm(amps)
        state = fock.PureState(3, 2, amps.astype(np.complex128))
        worst_norm = max(worst_norm, abs(fock.evolve(u, state).norm() - 1.0))
    ok = worst_u < 1e-10 and worst_norm < 1e-10
    verdict(
        capsys, 8, ok,
        f"unitarity: compiled-circuit deviation {worst_u:.1e}, evolved-state "
        f"norm error {worst_norm:.1e} (both < 1e-10)",
    )


def test_criterion_9_reck(capsys):
    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(100):
        m = 2 + trial % 7  # m in 2..8
        u = haar_unitary(m, rng)
        decomposition = circuit_mod.reck_decompose(u)
        mesh = circuit_mod.reck_circuit(decomposition)
        err = float(np.max(np.abs(circuit_mod.compile_circuit(mesh) - u)))
        worst = max(worst, err)
    ok = worst < 1e-10
    verdict(
        capsys, 9, ok,
        f"mesh decomposition: worst recomposition error {worst:.1e} over "
        "100 unitaries, m = 2..8 (< 1e-10)",
    )


def test_criterion_10_determinism(capsys, tmp_path):
    outs = []
    for run_dir in ("run1", "run2"):
        code = cli.main(
            ["reproduce-paper", "--seed", "7", "--output", str(tmp_path / run_dir)]
        )
        assert code == 0
        outs.append(tmp_path / run_dir)
    capsys.readouterr()
    files1 = sorted(p.name for p in outs[0].iterdir())
    files2 = sorted(p.name for p in outs[1].iterdir())
    identical = files1 == files2 and all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in files1
    )
    summary = json.loads((outs[0] / "summary.json").read_text())
    ok = identical and summary["all_passed"] is True
    verdict(
        capsys, 10, ok,
        f"determinism: {len(files1)} output files byte-identical across two "
        "seeded runs; summary reports all targets passed",
    )
