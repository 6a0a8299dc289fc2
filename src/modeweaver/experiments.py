"""Scripted interference experiments: delay and heater-power scans with
curve fits (visibility, width, period), and the paper run, which compares
them with the published values, declared as one table in `reproduce_all`.

Fits start from moments (the Gaussian dip) or from a given period (the
fringes) and refine by damped Gauss-Newton (Levenberg-style) with analytic
Jacobians. The fringe fit refuses a scan that spans under 1.5 start
periods or whose largest step is not below half a start period.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from . import coupling, wgmodes
from .circuit import (
    Circuit,
    CoincidenceConfig,
    GratingBS,
    PhaseShifter,
    heater_phase,
    simulate_counts,
)
from .coupling import splitting_ratio
from .errors import FitDiverged, InsufficientSpan, InvalidInput
from .fock import (
    PhotonPairSource,
    check_overlap,
    coalescence_enhancement,
    hom_visibility,
)

GAUSS_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

# The device heater's power for a 2 pi phase (W): the paper run's P_2pi and
# the noon-scan command's default.
P_2PI_W = 1.3


# ---------------------------------------------------------------------------
# least-squares machinery


def _damped_gauss_newton(evaluate, p0, max_iter=200, tol=1e-13):
    """Minimize ||r(p)||^2, where `evaluate(p)` gives the residual r and
    its Jacobian from one model evaluation; returns (params, covariance,
    residual), the residual at the returned params.

    Levenberg damping: the step solves (J^T J + lam diag(J^T J)) d = -J^T r,
    with lam shrinking on accepted steps and growing on rejected ones. The
    fit converges when the gradient vanishes against the cost, when an
    accepted step is below 1e-12 of every parameter, a parameter below 1e-6
    of the largest counting as 1e-6 of the largest (so a centre or phase at
    zero can pass), or at the roundoff floor (cost below 1e-20), where any
    step that does not lower the cost, accepted or rejected, ends the fit:
    there the cost only drifts in roundoff. Raises FitDiverged if the
    starting cost is not finite, or if the iteration cap is hit without
    convergence.
    """
    p = np.asarray(p0, dtype=float).copy()
    r, j = evaluate(p)
    cost = float(r @ r)
    if not math.isfinite(cost):
        raise FitDiverged(f"starting cost is not finite ({cost})")
    lam = 1e-3
    converged = False
    for _ in range(max_iter):
        jtj = j.T @ j
        g = j.T @ r
        if np.max(np.abs(g)) < tol * max(cost, 1e-30):
            converged = True
            break
        damping = np.diag(np.clip(np.diag(jtj), 1e-12, None))
        for _ in range(25):
            try:
                step = np.linalg.solve(jtj + lam * damping, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = p + step
            r_new, j_new = evaluate(p_new)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                size = np.abs(p_new)
                rel_step = np.max(
                    np.abs(step) / np.maximum(size, max(1e-6 * size.max(), 1e-12))
                )
                rel_drop = (cost - cost_new) / max(cost, 1e-300)
                p, r, j, cost = p_new, r_new, j_new, cost_new
                lam = max(lam * 0.3, 1e-12)
                converged = rel_step < 1e-12 or (rel_drop < 1e-14 and cost < 1e-20)
                break
            if cost < 1e-20:
                converged = True
                break
            lam *= 10.0
        else:
            # no step accepted: stuck at a (possibly perfect) minimum
            converged = cost < 1e-18
        if converged:
            break
    if not converged and not cost <= 1e-18:  # a NaN cost fails this too
        raise FitDiverged(
            f"no convergence after {max_iter} iterations "
            f"(final cost {cost:.3e}, damping lambda {lam:.3e})"
        )
    dof = max(len(r) - len(p), 1)
    s2 = cost / dof
    try:
        cov = s2 * np.linalg.inv(j.T @ j)
    except np.linalg.LinAlgError:
        cov = np.full((len(p), len(p)), np.nan)
    return p, cov, r


class GaussianFit(NamedTuple):
    amplitude: float
    center: float
    sigma: float
    offset: float
    stderr: dict
    residual_norm: float

    kind = "gaussian"  # not annotated: an annotation would make it a field

    @property
    def visibility(self) -> float:
        return abs(self.amplitude) / self.offset if self.offset else 0.0

    @property
    def fwhm(self) -> float:
        return GAUSS_FWHM_FACTOR * abs(self.sigma)


# The fits run with numpy's floating-point warnings off: an overflowing trial
# step has a non-finite cost and is rejected, and a fit that never reaches a
# finite cost raises FitDiverged.
@np.errstate(all="ignore")
def fit_gaussian(x, y) -> GaussianFit:
    """Fit offset + amplitude * exp(-(x - center)^2 / (2 sigma^2)).

    Initialization by moments; requires >= 5 points with offset-dominated
    tails. Flat data, which hold no dip or peak whose width could be
    measured, raise InsufficientSpan.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 5:
        raise InvalidInput("gaussian fit needs at least 5 points")
    n_tail = max(len(x) // 10, 1)
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    y_scale = max(float(np.max(np.abs(ys))), 1e-30)
    ys = ys / y_scale  # dimensionless residuals keep convergence tests scale-free
    offset0 = float(np.mean(np.concatenate([ys[:n_tail], ys[-n_tail:]])))
    dev = ys - offset0
    idx = int(np.argmax(np.abs(dev)))
    amp0 = float(dev[idx])
    if abs(amp0) < 1e-12:
        raise InsufficientSpan("flat data: no dip or peak to fit")
    center0 = float(xs[idx])
    weights = np.abs(dev)
    sigma0 = math.sqrt(
        float(np.sum(weights * (xs - center0) ** 2) / np.sum(weights))
    )
    sigma0 = max(sigma0, xs[1] - xs[0])

    def evaluate(p):
        a, c, s, o = p
        d = xs - c
        d2 = d**2
        e = np.exp(-d2 / (2.0 * s * s))
        j = np.empty((len(xs), 4))
        j[:, 0] = e
        j[:, 1] = a * e * d / (s * s)
        j[:, 2] = a * e * d2 / (s**3)
        j[:, 3] = 1.0
        return o + a * e - ys, j

    p, cov, r = _damped_gauss_newton(evaluate, [amp0, center0, sigma0, offset0])
    err = np.sqrt(np.abs(np.diag(cov)))
    return GaussianFit(
        amplitude=float(p[0]) * y_scale,
        center=float(p[1]),
        sigma=float(abs(p[2])),
        offset=float(p[3]) * y_scale,
        stderr={
            "amplitude": err[0] * y_scale,
            "center": err[1],
            "sigma": err[2],
            "offset": err[3] * y_scale,
        },
        residual_norm=float(np.linalg.norm(r)) * y_scale,
    )


class SinusoidFit(NamedTuple):
    amplitude: float
    offset: float
    period: float
    phase: float
    stderr: dict
    residual_norm: float

    kind = "sinusoid"

    @property
    def visibility(self) -> float:
        return abs(self.amplitude) / self.offset if self.offset else 0.0


def _harmonic_ls(x, y, freq, harmonics):
    """Coefficients of the linear least squares of y on
    [1, cos(2 pi h f x), sin(2 pi h f x), ...] over the harmonics h."""
    columns = [np.ones_like(x)]
    for h in harmonics:
        arg = 2 * np.pi * h * freq * x
        columns += [np.cos(arg), np.sin(arg)]
    coef, *_ = np.linalg.lstsq(np.column_stack(columns), y, rcond=None)
    return coef


@np.errstate(all="ignore")
def fit_sinusoid(x, y, start_period, leakage=False) -> SinusoidFit:
    """Fit C + A cos(2 pi x / P + theta), starting from `start_period`: the
    linear least-squares coefficients at that period start damped
    Gauss-Newton, which then fits the period to the data.

    An unbalanced two-photon fringe also carries a component at half its
    frequency. With `leakage`, the fit adds B cos(pi x / P + psi), which
    keeps the extracted period unbiased; parameters are ordered
    [A, C, P, theta, B, psi]. Reported parameters describe the main
    component. Requires >= 8 points spanning >= 1.5 start periods, with
    every step between sorted points below half a start period, and a
    finite start period > 0.
    """
    if not (math.isfinite(start_period) and start_period > 0):
        raise InvalidInput(f"start period must be finite and > 0, got {start_period}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 8:
        raise InvalidInput("sinusoid fit needs at least 8 points")
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    span = xs[-1] - xs[0]
    if span <= 0:
        raise InvalidInput("degenerate scan span")
    if not math.isfinite(2 * math.pi * float(np.max(np.abs(xs))) / start_period):
        raise InvalidInput(f"fringe phase 2 pi x / {start_period:.4g} is not finite")
    scale = max(float(np.max(np.abs(ys))), 1.0)
    if float(np.std(ys)) < 1e-12 * scale:
        raise InsufficientSpan("constant data: no oscillation to fit")
    if span < 1.5 * start_period:
        raise InsufficientSpan(
            f"span {span:.4g} < 1.5 periods ({start_period:.4g} each)"
        )
    step = float(np.max(np.diff(xs)))
    if not step < 0.5 * start_period:
        raise InsufficientSpan(
            f"largest step {step:.4g} is not below half the start period "
            f"{start_period:.4g}"
        )
    y_scale = max(float(np.max(np.abs(ys))), 1e-30)
    ys = ys / y_scale
    harmonics = (1.0, 0.5) if leakage else (1.0,)
    coef0 = _harmonic_ls(xs, ys, 1.0 / start_period, harmonics)
    # p = [A, C, P, theta] or [A, C, P, theta, B, psi]
    n_params = 2 * len(harmonics) + 2
    amp_idx = [0, *range(4, n_params, 2)]
    phase_idx = [3, *range(5, n_params, 2)]
    p0 = np.empty(n_params)
    p0[1], p0[2] = coef0[0], start_period
    p0[amp_idx] = np.hypot(coef0[1::2], coef0[2::2])
    p0[phase_idx] = np.arctan2(-coef0[2::2], coef0[1::2])

    def evaluate(p):
        w = 2 * np.pi / p[2]
        model = p[1]
        j = np.empty((len(xs), len(p)))
        j[:, 1] = 1.0
        d_period = 0.0
        for h, ia, ip in zip(harmonics, amp_idx, phase_idx):
            arg = h * w * xs + p[ip]
            cos, sin = np.cos(arg), np.sin(arg)
            model = model + p[ia] * cos
            j[:, ia] = cos
            j[:, ip] = -p[ia] * sin
            d_period = d_period + h * p[ia] * sin
        j[:, 2] = d_period * w * xs / p[2]
        return model - ys, j

    p, cov, r = _damped_gauss_newton(evaluate, p0)
    err = np.sqrt(np.abs(np.diag(cov)))
    return SinusoidFit(
        amplitude=float(abs(p[0])) * y_scale,
        offset=float(p[1]) * y_scale,
        period=float(abs(p[2])),
        phase=float(p[3] + (math.pi if p[0] < 0 else 0.0)),
        stderr={
            "amplitude": err[0] * y_scale,
            "offset": err[1] * y_scale,
            "period": err[2],
            "phase": err[3],
        },
        residual_norm=float(np.linalg.norm(r)) * y_scale,
    )


# ---------------------------------------------------------------------------
# scan experiments


def default_delay_grid() -> np.ndarray:
    """+-500 um in 10 um steps: covers the ~190 um overlap width."""
    return np.arange(-500.0, 500.0 + 1e-9, 10.0)


def default_power_grid() -> np.ndarray:
    """0..2.6 W in 0.05 W steps: two classical heater periods."""
    return np.arange(0.0, 2.6 + 1e-9, 0.05)


class ScanResult(NamedTuple):
    """A fitted scan: its count columns, the fit with its derived metrics,
    and the scan's config."""

    name: str
    scan: tuple[str, str]  # the swept quantity's (name, unit)
    observable: str  # the key of the fitted column in `counts`
    counts: dict  # column name -> array, as simulate_counts returns them
    fit: GaussianFit | SinusoidFit
    metrics: dict
    config: dict

    def fit_dict(self) -> dict:
        """The fit as a plain dict: `params` holds the fit's fields other
        than its stderr and residual norm."""
        params = self.fit._asdict()
        stderr = params.pop("stderr")
        residual_norm = params.pop("residual_norm")
        return {
            "name": self.name,
            "scan": {"name": self.scan[0], "unit": self.scan[1]},
            "observable": self.observable,
            "fit_kind": self.fit.kind,
            "params": params,
            "stderr": stderr,
            "metrics": self.metrics,
            "residual_norm": residual_norm,
            "config": self.config,
        }


def _delay_scan(name, circuit, eta, source, config, grid, metrics,
                same_as=None, **extra):
    """Net coincidences of `circuit` with the pair's relative delay swept
    over `grid`, fitted with a Gaussian; `metrics(fit)` gives the reported
    metrics and `extra` joins the recorded config. The fit depends only on
    the grid and the net column: when both equal those of the scan `same_as`
    bit for bit, its fit is reused."""
    counts = simulate_counts(circuit, source, config, grid, grid)
    if same_as is not None and all(
        counts[key].tobytes() == same_as.counts[key].tobytes()
        for key in ("scan_value", "net")
    ):
        fit = same_as.fit
    else:
        fit = fit_gaussian(grid, counts["net"])
    return ScanResult(
        name, ("delay", "um"), "net", counts, fit, metrics(fit),
        {
            "eta": eta,
            **extra,
            "source": dataclasses.asdict(source),
            "config": config.to_dict(),
            "delay_grid": grid.tolist(),
        },
    )


def run_hom_dip(
    eta: float,
    source: PhotonPairSource = PhotonPairSource(),
    delay_grid=None,
    config: CoincidenceConfig = CoincidenceConfig(),
    name: str = "hom_dip",
) -> ScanResult:
    """Two-photon dip: coincidences between the coupler outputs vs delay."""
    grid = default_delay_grid() if delay_grid is None else np.asarray(delay_grid, float)
    circuit = Circuit(num_channels=2, elements=(GratingBS(channels=(0, 1), eta=eta),))
    return _delay_scan(
        name, circuit, eta, source, config, grid,
        lambda fit: {
            "visibility": fit.visibility,
            "fwhm_um": fit.fwhm,
            "center_um": fit.center,
        },
    )


def run_splitting_vs_N(
    kappa: float,
    n_values,
    intrinsic_overlap: float = 0.92,
) -> list[dict]:
    """Splitting ratio and dip visibility versus grating period count; a
    zero kappa is the zero-depth grating, which never splits."""
    check_overlap(intrinsic_overlap, "intrinsic overlap")
    rows = []
    for n in n_values:
        eta = splitting_ratio(kappa, n)
        v_ideal = hom_visibility(eta)
        rows.append(
            {
                "N": int(n),
                "eta": eta,
                "visibility_ideal": v_ideal,
                "visibility_measured": intrinsic_overlap * v_ideal,
            }
        )
    return rows


def run_hom_peak(
    eta: float,
    source: PhotonPairSource = PhotonPairSource(),
    delay_grid=None,
    config: CoincidenceConfig = CoincidenceConfig(),
) -> dict[str, ScanResult]:
    """Bunching peak per output arm: each arm feeds an ideal 50:50 splitter
    and coincidences are taken between that splitter's two outputs.

    Arm A takes outputs (0, 2) and arm B outputs (1, 3). Both arms are
    simulated. When arm B's net column equals arm A's bit for bit, as it
    does for the default source, arm B reuses arm A's `GaussianFit` object
    instead of fitting again; the two results then share its `stderr` dict,
    which must not be mutated."""
    if not 0.0 < eta < 1.0:
        raise InvalidInput("eta must lie strictly inside (0, 1)")
    grid = default_delay_grid() if delay_grid is None else np.asarray(delay_grid, float)
    base_elements = (
        GratingBS(channels=(0, 1), eta=eta),
        GratingBS(channels=(0, 2), eta=0.5),
        GratingBS(channels=(1, 3), eta=0.5),
    )

    def metrics(fit: GaussianFit) -> dict:
        ratio = 1.0 + fit.amplitude / fit.offset if fit.offset else float("nan")
        return {"enhancement_ratio": ratio, "fwhm_um": fit.fwhm}

    results = {}
    for arm, outputs in (("arm_a", (0, 2)), ("arm_b", (1, 3))):
        circuit = Circuit(
            num_channels=4, elements=base_elements, output_channels=outputs
        )
        results[arm] = _delay_scan(
            f"hom_peak_{arm}", circuit, eta, source, config, grid, metrics,
            same_as=results.get("arm_a"), outputs=list(outputs),
        )
    return results


def _noon_circuit(eta1: float, eta2: float, phase) -> Circuit:
    """The cascaded interferometer with heater phase `phase` (rad), an
    array of phases for a scan."""
    return Circuit(
        num_channels=2,
        elements=(
            GratingBS(channels=(0, 1), eta=eta1),
            PhaseShifter(channels=(1,), phase_rad=phase),
            GratingBS(channels=(0, 1), eta=eta2),
        ),
    )


def run_noon(
    eta1: float,
    eta2: float,
    p_2pi_w: float = P_2PI_W,
    power_grid=None,
    source: PhotonPairSource = PhotonPairSource(),
    config: CoincidenceConfig = CoincidenceConfig(),
) -> tuple[ScanResult, ScanResult]:
    """Classical and two-photon fringes of the cascaded interferometer.

    Classical: singles of one output with a single input arm lit, fitted
    from P_2pi. Quantum: coincidences with a photon pair at zero delay; its
    fringe is fitted with the half-frequency leakage term, from half the
    fitted classical period, so the extracted period is exact. The fits
    raise InsufficientSpan unless every power step is below half its start
    period; for the two-photon fit that is about P_2pi/4, the Nyquist limit
    of its fringe.
    """
    grid = default_power_grid() if power_grid is None else np.asarray(power_grid, float)
    circuit = _noon_circuit(eta1, eta2, heater_phase(p_2pi_w, grid))
    classical_source = dataclasses.replace(
        source, singles_rates_hz=(source.singles_rates_hz[0], 0.0)
    )
    classical_counts = simulate_counts(circuit, classical_source, config, grid)
    classical_fit = fit_sinusoid(grid, classical_counts["singles_a"], p_2pi_w)

    quantum_counts = simulate_counts(circuit, source, config, grid)
    quantum_fit = fit_sinusoid(
        grid, quantum_counts["net"], classical_fit.period / 2.0, leakage=True
    )

    shared_config = {
        "eta1": eta1,
        "eta2": eta2,
        "heater": {"p_2pi_w": p_2pi_w, "phi0_rad": 0.0},
        "source": dataclasses.asdict(source),
        "config": config.to_dict(),
        "power_grid": grid.tolist(),
    }
    scan = ("heater_power", "W")
    classical = ScanResult(
        "noon_classical", scan, "singles_a", classical_counts, classical_fit,
        {
            "visibility": classical_fit.visibility,
            "period_w": classical_fit.period,
        },
        shared_config,
    )
    quantum = ScanResult(
        "noon_quantum", scan, "net", quantum_counts, quantum_fit,
        {
            "visibility": quantum_fit.visibility,
            "period_w": quantum_fit.period,
            "period_ratio": quantum_fit.period / classical_fit.period,
        },
        shared_config,
    )
    return classical, quantum


# ---------------------------------------------------------------------------
# reference targets


class PaperTarget(NamedTuple):
    """One published value with the tolerance used for acceptance."""

    name: str
    expected: float
    uncertainty: float
    tolerance: float
    computed: float = math.nan

    @property
    def passed(self) -> bool:
        return (
            math.isfinite(self.computed)
            and abs(self.computed - self.expected) <= self.tolerance
        )

    def to_dict(self) -> dict:
        return {**self._asdict(), "passed": self.passed}


def reproduce_all(seed: int | None = None, poisson: bool = False):
    """Run every reference experiment with device-default parameters, then
    compare the results with the published values, one row each.

    Returns (scan_results, tables, targets): fitted scans keyed by name,
    plain tables keyed by name, and the target comparison list.
    """
    config = CoincidenceConfig(poisson=poisson, seed=seed)
    source = PhotonPairSource()
    eta = 0.55  # the near-balanced coupler of the dip and the peaks

    te0, te2 = wgmodes.ModeId("TE", 0), wgmodes.ModeId("TE", 2)
    design = coupling.grating_from_geometry(
        wgmodes.WaveguideGeometry(1600.0, 190.0), (te0, te2)
    )
    splitting_rows = run_splitting_vs_N(0.041, [15, 20, 25])
    eta_by_n = {row["N"]: row["eta"] for row in splitting_rows}
    dip = run_hom_dip(eta, source, config=config)
    # odd-parity pair through the asymmetric grating
    dip_te1 = run_hom_dip(0.64, source, config=config, name="hom_dip_te0_te1")
    peaks = run_hom_peak(eta, source, config=config)
    classical, quantum = run_noon(0.66, 0.66, source=source, config=config)

    period_um = 6.675
    targets = [PaperTarget(*row) for row in (
        # (name, expected, uncertainty, tolerance, computed)
        ("grating_period_design_um", period_um, 0.0, period_um * 0.25,
         design.period_um),
        ("grating_period_fixed_dn_um", period_um, 0.0, 5e-4,
         wgmodes.grating_period(808.0, 0.12105)),
        ("splitting_ratio_n20", 0.5345, 0.0, 1e-4, eta_by_n[20]),
        *((f"splitting_bracket_n{n}", frac, 0.0, 0.07, eta_by_n[n])
          for n, frac in ((15, 1.0 / 3.0), (20, 0.5), (25, 2.0 / 3.0))),
        ("hom_dip_visibility", 0.90, 0.008, 0.013, dip.metrics["visibility"]),
        ("hom_ideal_visibility", 0.99, 0.0, 0.015, hom_visibility(eta)),
        ("dip_fwhm_um", 194.0, 10.0, 30.0, dip.metrics["fwhm_um"]),
        ("hom_te0_te1_visibility", 0.78, 0.003, 0.011,
         dip_te1.metrics["visibility"]),
        ("coalescence_ratio_ideal", 2.0, 0.0, 1e-9,
         coalescence_enhancement(eta, 1.0)),
        ("coalescence_ratio_measured", 1.0 + source.intrinsic_overlap, 0.0, 1e-3,
         peaks["arm_a"].metrics["enhancement_ratio"]),
        ("noon_classical_visibility", 0.82, 0.08, 0.08,
         classical.metrics["visibility"]),
        ("noon_period_ratio", 0.5, 0.0, 1e-6, quantum.metrics["period_ratio"]),
        ("noon_quantum_visibility", 0.86, 0.01, 0.06,
         quantum.metrics["visibility"]),
    )]
    scans = {s.name: s for s in (dip, dip_te1, *peaks.values(), classical, quantum)}
    tables = {"grating_design": [design.to_dict()], "splitting_vs_n": splitting_rows}
    return scans, tables, targets
