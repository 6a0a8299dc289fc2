"""Scripted interference experiments: delay and heater-power scans with
curve fits (visibility, width, period) and comparison targets.

Fits use moment/grid initialization followed by damped Gauss-Newton
(Levenberg-style) refinement with analytic Jacobians.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .circuit import (
    Circuit,
    CoincidenceConfig,
    GratingBS,
    HeaterModel,
    Loss,
    PhaseShifter,
    RelativeDelay,
    heater_phase,
    simulate_counts,
)
from .coupling import splitting_ratio
from .errors import FitDiverged, InsufficientSpan, InvalidInput
from .fock import PhotonPairSource, hom_visibility

DEFAULT_DEVICE_LOSS_DB = 0.2
GAUSS_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))


# ---------------------------------------------------------------------------
# least-squares machinery


def _damped_gauss_newton(residual, jacobian, p0, max_iter=200, tol=1e-13):
    """Minimize ||residual(p)||^2; returns (params, covariance).

    Levenberg damping: the step solves (J^T J + lam diag(J^T J)) d = -J^T r,
    with lam shrinking on accepted steps. Raises FitDiverged if the
    iteration cap is hit without convergence.
    """
    p = np.asarray(p0, dtype=float).copy()
    r = residual(p)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    for _ in range(max_iter):
        j = jacobian(p)
        jtj = j.T @ j
        g = j.T @ r
        if np.max(np.abs(g)) < tol * max(cost, 1e-30):
            converged = True
            break
        accepted = False
        for _ in range(25):
            damped = jtj + lam * np.diag(np.clip(np.diag(jtj), 1e-12, None))
            try:
                step = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = p + step
            r_new = residual(p_new)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                rel_step = np.max(
                    np.abs(step) / np.maximum(np.abs(p_new), 1e-12)
                )
                rel_drop = (cost - cost_new) / max(cost, 1e-300)
                p, r, cost = p_new, r_new, cost_new
                lam = max(lam * 0.3, 1e-12)
                accepted = True
                if rel_step < 1e-12 or (rel_drop < 1e-14 and cost < 1e-20):
                    converged = True
                break
            lam *= 10.0
        if converged:
            break
        if not accepted:
            # stuck at a (possibly perfect) minimum
            if cost < 1e-18:
                converged = True
                break
    if not converged and not cost <= 1e-18:  # a NaN cost fails this too
        raise FitDiverged(
            f"no convergence after {max_iter} iterations "
            f"(final cost {cost:.3e}, damping lambda {lam:.3e})"
        )
    j = jacobian(p)
    dof = max(len(r) - len(p), 1)
    s2 = cost / dof
    try:
        cov = s2 * np.linalg.inv(j.T @ j)
    except np.linalg.LinAlgError:
        cov = np.full((len(p), len(p)), np.nan)
    return p, cov


@dataclass(frozen=True)
class GaussianFit:
    kind: ClassVar[str] = "gaussian"

    amplitude: float
    center: float
    sigma: float
    offset: float
    stderr: dict
    residual_norm: float

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
    tails. Flat data short-circuit to amplitude 0.
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
    scale = max(float(np.max(np.abs(ys))), 1.0)
    if abs(amp0) < 1e-12 * scale:
        return GaussianFit(
            amplitude=0.0,
            center=float(np.mean(xs)),
            sigma=(xs[-1] - xs[0]) / 4.0,
            offset=float(np.mean(ys)) * y_scale,
            stderr={},
            residual_norm=float(np.linalg.norm(ys - np.mean(ys))) * y_scale,
        )
    center0 = float(xs[idx])
    weights = np.abs(dev)
    sigma0 = math.sqrt(
        float(np.sum(weights * (xs - center0) ** 2) / np.sum(weights))
    )
    sigma0 = max(sigma0, (xs[1] - xs[0]) if len(xs) > 1 else 1.0)

    def model(p):
        a, c, s, o = p
        return o + a * np.exp(-((xs - c) ** 2) / (2.0 * s * s))

    def residual(p):
        return model(p) - ys

    def jacobian(p):
        a, c, s, o = p
        e = np.exp(-((xs - c) ** 2) / (2.0 * s * s))
        j = np.empty((len(xs), 4))
        j[:, 0] = e
        j[:, 1] = a * e * (xs - c) / (s * s)
        j[:, 2] = a * e * (xs - c) ** 2 / (s**3)
        j[:, 3] = 1.0
        return j

    p, cov = _damped_gauss_newton(residual, jacobian, [amp0, center0, sigma0, offset0])
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
        residual_norm=float(np.linalg.norm(residual(p))) * y_scale,
    )


@dataclass(frozen=True)
class SinusoidFit:
    kind: ClassVar[str] = "sinusoid"

    amplitude: float
    offset: float
    period: float
    phase: float
    stderr: dict
    residual_norm: float

    @property
    def visibility(self) -> float:
        return abs(self.amplitude) / self.offset if self.offset else 0.0


def _harmonic_ls(x, y, freq, harmonics):
    """Linear least squares of y on [1, cos(2 pi h f x), sin(2 pi h f x), ...]
    over the harmonics h; returns (coefficients, sum of squared residuals)."""
    columns = [np.ones_like(x)]
    for h in harmonics:
        arg = 2 * np.pi * h * freq * x
        columns += [np.cos(arg), np.sin(arg)]
    design = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    sse = float(np.sum((design @ coef - y) ** 2))
    return coef, sse


def _best_frequency(x, y, freqs):
    """Index of the first frequency in `freqs` at which a least-squares fit
    of y on [1, cos(2 pi f x), sin(2 pi f x)] leaves the least residual.

    Generalised Lomb-Scargle periodogram (Zechmeister & Kuerster, A&A 496,
    577, 2009) in explained-variance form: with centred y and centred
    columns, the cos column c and the sin column orthogonalised against it,
    s, a frequency explains (y.c)^2/|c|^2 + (y.s)^2/|s|^2 of |y|^2. A column
    whose squared norm is below 1e-12 N is roundoff and explains nothing,
    such as the sin column at exactly Nyquist on a uniform grid.
    """
    block = 64  # frequencies per pass: 0.5 MB per temporary at 1000 points
    y = y - np.mean(y)
    negligible = 1e-12 * len(x)

    def kept_norm2(column):
        # zero a negligible column; its norm becomes 1 so its term is 0
        norm2 = np.einsum("fn,fn->f", column, column)
        kept = norm2 > negligible
        column *= kept[:, None]
        return np.where(kept, norm2, 1.0)

    best_index, best_score = 0, -np.inf
    for start in range(0, len(freqs), block):
        arg = (2 * np.pi * freqs[start:start + block])[:, None] * x
        cos, sin = np.cos(arg), np.sin(arg)
        cos -= np.mean(cos, axis=1, keepdims=True)
        sin -= np.mean(sin, axis=1, keepdims=True)
        cos_norm2 = kept_norm2(cos)
        sin -= cos * (np.einsum("fn,fn->f", sin, cos) / cos_norm2)[:, None]
        sin_norm2 = kept_norm2(sin)
        score = (cos @ y) ** 2 / cos_norm2 + (sin @ y) ** 2 / sin_norm2
        i = int(np.argmax(score))
        if score[i] > best_score:
            best_index, best_score = start + i, score[i]
    return best_index


@np.errstate(all="ignore")
def fit_sinusoid(x, y, leakage_start_period=None) -> SinusoidFit:
    """Fit C + A cos(2 pi x / P + theta), starting from the best period of a
    2000-point frequency grid.

    An unbalanced two-photon fringe also carries a component at half its
    frequency. Given `leakage_start_period`, the fit starts from that period
    and adds B cos(pi x / P + psi), which keeps the extracted period
    unbiased; parameters are ordered [A, C, P, theta, B, psi]. Reported
    parameters describe the main component. Requires >= 8 points spanning
    >= 1.5 periods.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 8:
        raise InvalidInput("sinusoid fit needs at least 8 points")
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    span = xs[-1] - xs[0]
    if span <= 0:
        raise InvalidInput("degenerate scan span")
    scale = max(float(np.max(np.abs(ys))), 1.0)
    if float(np.std(ys)) < 1e-12 * scale:
        raise InsufficientSpan("constant data: no oscillation to fit")
    y_scale = max(float(np.max(np.abs(ys))), 1e-30)
    ys = ys / y_scale
    if leakage_start_period is None:
        harmonics = (1.0,)
        steps = np.diff(xs)
        min_spacing = float(np.min(steps[steps > 0]))  # repeated x add no resolution
        f_lo = 0.5 / span
        f_hi = 0.5 / max(min_spacing, 1e-12)
        freqs = np.linspace(f_lo, f_hi, 2000)
        f0 = freqs[_best_frequency(xs, ys, freqs)]
        coef0, _ = _harmonic_ls(xs, ys, f0, harmonics)
        start_period = 1.0 / f0
    else:
        harmonics = (1.0, 0.5)
        start_period = leakage_start_period
        coef0, _ = _harmonic_ls(xs, ys, 1.0 / start_period, harmonics)
    if span < 1.5 * start_period:
        raise InsufficientSpan(
            f"span {span:.4g} < 1.5 periods ({start_period:.4g} each)"
        )
    # p = [A, C, P, theta] or [A, C, P, theta, B, psi]
    n_params = 2 * len(harmonics) + 2
    amp_idx = [0, *range(4, n_params, 2)]
    phase_idx = [3, *range(5, n_params, 2)]
    p0 = np.empty(n_params)
    p0[1], p0[2] = coef0[0], start_period
    p0[amp_idx] = np.hypot(coef0[1::2], coef0[2::2])
    p0[phase_idx] = np.arctan2(-coef0[2::2], coef0[1::2])

    def arguments(p):
        w = 2 * np.pi / p[2]
        return w, [h * w * xs + p[i] for h, i in zip(harmonics, phase_idx)]

    def residual(p):
        model = p[1]
        for a, arg in zip(p[amp_idx], arguments(p)[1]):
            model = model + a * np.cos(arg)
        return model - ys

    def jacobian(p):
        w, args = arguments(p)
        j = np.empty((len(xs), len(p)))
        j[:, 1] = 1.0
        d_period = 0.0
        for h, ia, ip, arg in zip(harmonics, amp_idx, phase_idx, args):
            sin = np.sin(arg)
            j[:, ia] = np.cos(arg)
            j[:, ip] = -p[ia] * sin
            d_period = d_period + h * p[ia] * sin
        j[:, 2] = d_period * w * xs / p[2]
        return j

    p, cov = _damped_gauss_newton(residual, jacobian, p0)
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
        residual_norm=float(np.linalg.norm(residual(p))) * y_scale,
    )


# ---------------------------------------------------------------------------
# scan experiments


def default_delay_grid() -> np.ndarray:
    """+-500 um in 10 um steps: covers the ~190 um overlap width."""
    return np.arange(-500.0, 500.0 + 1e-9, 10.0)


def default_power_grid() -> np.ndarray:
    """0..2.6 W in 0.05 W steps: two classical heater periods."""
    return np.arange(0.0, 2.6 + 1e-9, 0.05)


@dataclass(frozen=True)
class ScanResult:
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
        params = dataclasses.asdict(self.fit)
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


def _delay_scan(name, circuit, eta, source, config, delay_grid, metrics, **extra):
    """Net coincidences versus the delay on input arm 0, fitted with a
    Gaussian; `metrics(fit)` gives the reported metrics and `extra` joins
    the recorded config."""
    grid = default_delay_grid() if delay_grid is None else np.asarray(delay_grid, float)
    counts = simulate_counts(circuit.with_delay(0, grid), source, config, grid)
    fit = fit_gaussian(grid, counts["net"])
    return ScanResult(
        name, ("delay", "um"), "net", counts, fit, metrics(fit),
        {
            "eta": eta,
            **extra,
            "source": dataclasses.asdict(source),
            "config": dataclasses.asdict(config),
            "delay_grid": [float(v) for v in grid],
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
    circuit = Circuit(
        num_channels=2,
        elements=(
            RelativeDelay(arm=0, delay_um=0.0),
            GratingBS(channels=(0, 1), eta=eta),
            Loss(DEFAULT_DEVICE_LOSS_DB),
        ),
    )
    return _delay_scan(
        name, circuit, eta, source, config, delay_grid,
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
    """Splitting ratio and dip visibility versus grating period count."""
    if kappa <= 0:
        raise InvalidInput("kappa must be positive")
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
    name: str = "hom_peak",
) -> dict[str, ScanResult]:
    """Bunching peak per output arm: each arm feeds an ideal 50:50 splitter
    and coincidences are taken between that splitter's two outputs."""
    if not 0.0 < eta < 1.0:
        raise InvalidInput("eta must lie strictly inside (0, 1)")
    base_elements = (
        RelativeDelay(arm=0, delay_um=0.0),
        GratingBS(channels=(0, 1), eta=eta),
        Loss(DEFAULT_DEVICE_LOSS_DB),
        GratingBS(channels=(0, 2), eta=0.5),
        GratingBS(channels=(1, 3), eta=0.5),
    )

    def metrics(fit: GaussianFit) -> dict:
        ratio = 1.0 + fit.amplitude / fit.offset if fit.offset else float("nan")
        return {"enhancement_ratio": ratio, "fwhm_um": fit.fwhm}

    results = {}
    for arm, outputs in (("arm_a", (0, 2)), ("arm_b", (1, 3))):
        circuit = Circuit(
            num_channels=4,
            elements=base_elements,
            input_channels=(0, 1),
            output_channels=outputs,
        )
        results[arm] = _delay_scan(
            f"{name}_{arm}", circuit, eta, source, config, delay_grid, metrics,
            outputs=list(outputs),
        )
    return results


def _noon_circuit(eta1: float, eta2: float) -> Circuit:
    return Circuit(
        num_channels=2,
        elements=(
            RelativeDelay(arm=0, delay_um=0.0),
            GratingBS(channels=(0, 1), eta=eta1),
            PhaseShifter(channels=(1,), name="heater"),
            GratingBS(channels=(0, 1), eta=eta2),
            Loss(DEFAULT_DEVICE_LOSS_DB),
        ),
    )


def run_noon(
    eta1: float,
    eta2: float,
    heater: HeaterModel = HeaterModel(),
    power_grid=None,
    source: PhotonPairSource = PhotonPairSource(),
    config: CoincidenceConfig = CoincidenceConfig(),
    name: str = "noon",
) -> tuple[ScanResult, ScanResult]:
    """Classical and two-photon fringes of the cascaded interferometer.

    Classical: singles of one output with a single input arm lit. Quantum:
    coincidences with a photon pair at zero delay; its fringe is fitted with
    the half-frequency leakage term, from half the classical period, so the
    extracted period is exact.
    """
    grid = default_power_grid() if power_grid is None else np.asarray(power_grid, float)
    circuit = _noon_circuit(eta1, eta2).with_phase("heater", heater_phase(heater, grid))
    classical_source = dataclasses.replace(
        source, singles_rates_hz=(source.singles_rates_hz[0], 0.0)
    )
    classical_counts = simulate_counts(circuit, classical_source, config, grid)
    classical_fit = fit_sinusoid(grid, classical_counts["singles_a"])

    quantum_counts = simulate_counts(circuit, source, config, grid)
    quantum_fit = fit_sinusoid(
        grid, quantum_counts["net"],
        leakage_start_period=classical_fit.period / 2.0,
    )

    shared_config = {
        "eta1": eta1,
        "eta2": eta2,
        "heater": dataclasses.asdict(heater),
        "source": dataclasses.asdict(source),
        "config": dataclasses.asdict(config),
        "power_grid": [float(v) for v in grid],
    }
    scan = ("heater_power", "W")
    classical = ScanResult(
        f"{name}_classical", scan, "singles_a", classical_counts, classical_fit,
        {
            "visibility": classical_fit.visibility,
            "period_w": classical_fit.period,
        },
        shared_config,
    )
    quantum = ScanResult(
        f"{name}_quantum", scan, "net", quantum_counts, quantum_fit,
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


@dataclass(frozen=True)
class PaperTarget:
    """One published value with the tolerance used for acceptance."""

    name: str
    expected: float
    uncertainty: float
    tolerance: float
    computed: float = math.nan

    def __post_init__(self):
        if self.tolerance < self.uncertainty:
            raise InvalidInput(
                f"{self.name}: tolerance {self.tolerance} < "
                f"uncertainty {self.uncertainty}"
            )

    @property
    def passed(self) -> bool:
        return (
            math.isfinite(self.computed)
            and abs(self.computed - self.expected) <= self.tolerance
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "uncertainty": self.uncertainty,
            "tolerance": self.tolerance,
            "computed": self.computed,
            "passed": self.passed,
        }


def reproduce_all(seed: int | None = None, poisson: bool = False):
    """Run every reference experiment with device-default parameters.

    Returns (scan_results, tables, targets): fitted scans keyed by name,
    plain tables keyed by name, and the target comparison list.
    """
    from . import coupling, wgmodes
    from .fock import coalescence_enhancement

    config = CoincidenceConfig(poisson=poisson, seed=seed)
    source = PhotonPairSource()

    scans: dict[str, ScanResult] = {}
    tables: dict[str, list[dict]] = {}
    targets: list[PaperTarget] = []

    # grating design from geometry
    geometry = wgmodes.WaveguideGeometry(1600.0, 190.0)
    te0, te2 = wgmodes.ModeId("TE", 0), wgmodes.ModeId("TE", 2)
    design = coupling.grating_from_geometry(geometry, (te0, te2))
    tables["grating_design"] = [design.to_dict()]
    targets.append(
        PaperTarget(
            "grating_period_design_um", 6.675, 0.0, 6.675 * 0.25,
            computed=design.period_um,
        )
    )
    targets.append(
        PaperTarget(
            "grating_period_fixed_dn_um", 6.675, 0.0, 5e-4,
            computed=wgmodes.grating_period(808.0, 0.12105),
        )
    )

    # splitting ratios vs period count
    splitting_rows = run_splitting_vs_N(0.041, [15, 20, 25])
    tables["splitting_vs_n"] = splitting_rows
    eta_by_n = {row["N"]: row["eta"] for row in splitting_rows}
    targets.append(
        PaperTarget("splitting_ratio_n20", 0.5345, 0.0, 1e-4,
                    computed=eta_by_n[20])
    )
    for n, frac in ((15, 1.0 / 3.0), (20, 0.5), (25, 2.0 / 3.0)):
        targets.append(
            PaperTarget(f"splitting_bracket_n{n}", frac, 0.0, 0.07,
                        computed=eta_by_n[n])
        )

    # two-photon dip, near-balanced device
    dip = run_hom_dip(0.55, source, config=config)
    scans["hom_dip"] = dip
    targets.append(
        PaperTarget("hom_dip_visibility", 0.90, 0.008, 0.013,
                    computed=dip.metrics["visibility"])
    )
    targets.append(
        PaperTarget("hom_ideal_visibility", 0.99, 0.0, 0.015,
                    computed=hom_visibility(0.55))
    )
    targets.append(
        PaperTarget("dip_fwhm_um", 194.0, 10.0, 30.0,
                    computed=dip.metrics["fwhm_um"])
    )

    # odd-parity pair through the asymmetric grating
    dip_te1 = run_hom_dip(0.64, source, config=config, name="hom_dip_te0_te1")
    scans["hom_dip_te0_te1"] = dip_te1
    targets.append(
        PaperTarget("hom_te0_te1_visibility", 0.78, 0.003, 0.011,
                    computed=dip_te1.metrics["visibility"])
    )

    # bunching peaks
    peaks = run_hom_peak(0.55, source, config=config)
    scans.update({scan.name: scan for scan in peaks.values()})
    targets.append(
        PaperTarget("coalescence_ratio_ideal", 2.0, 0.0, 1e-9,
                    computed=coalescence_enhancement(0.55, 1.0))
    )
    targets.append(
        PaperTarget(
            "coalescence_ratio_measured", 1.0 + source.intrinsic_overlap,
            0.0, 1e-3,
            computed=peaks["arm_a"].metrics["enhancement_ratio"],
        )
    )

    # cascaded interferometer fringes
    classical, quantum = run_noon(0.66, 0.66, source=source, config=config)
    scans["noon_classical"] = classical
    scans["noon_quantum"] = quantum
    targets.append(
        PaperTarget("noon_classical_visibility", 0.82, 0.08, 0.08,
                    computed=classical.metrics["visibility"])
    )
    targets.append(
        PaperTarget("noon_period_ratio", 0.5, 0.0, 1e-6,
                    computed=quantum.metrics["period_ratio"])
    )
    targets.append(
        PaperTarget("noon_quantum_visibility", 0.86, 0.01, 0.06,
                    computed=quantum.metrics["visibility"])
    )

    return scans, tables, targets
