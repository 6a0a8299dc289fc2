"""Span tracer that wraps modeweaver's public functions from outside.

Each target is patched on the module where its caller looks the name up
(``experiments.simulate_counts`` rather than ``circuit.simulate_counts``,
because ``experiments`` imports it by name), so the program itself is
unchanged. Spans nest on one stack; a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name)
TARGETS = (
    ("modeweaver.cli", "main", "cli"),
    ("modeweaver.experiments", "reproduce_all", "experiments.reproduce_all"),
    ("modeweaver.experiments", "run_hom_dip", "experiments.run_hom_dip"),
    ("modeweaver.experiments", "run_hom_peak", "experiments.run_hom_peak"),
    ("modeweaver.experiments", "run_noon", "experiments.run_noon"),
    ("modeweaver.experiments", "run_splitting_vs_N", "experiments.run_splitting_vs_N"),
    ("modeweaver.experiments", "fit_gaussian", "experiments.fit_gaussian"),
    ("modeweaver.experiments", "fit_sinusoid", "experiments.fit_sinusoid"),
    ("modeweaver.experiments", "fit_fringe_with_leakage",
     "experiments.fit_fringe_with_leakage"),
    ("modeweaver.experiments", "simulate_counts", "circuit.simulate_counts"),
    ("modeweaver.circuit", "compile_circuit", "circuit.compile_circuit"),
    ("modeweaver.circuit", "coupler_unitary", "coupling.coupler_unitary"),
    ("modeweaver.circuit", "two_photon_coincidence", "fock.two_photon_coincidence"),
    ("modeweaver.coupling", "grating_from_geometry", "coupling.grating_from_geometry"),
    ("modeweaver.fock", "transition_amplitude", "fock.transition_amplitude"),
    ("modeweaver.fock", "permanent", "fock.permanent"),
    ("modeweaver.fock", "evolve", "fock.evolve"),
    ("modeweaver.wgmodes", "dispersion_sweep", "wgmodes.dispersion_sweep"),
    ("modeweaver.wgmodes", "effective_index", "wgmodes.effective_index"),
    ("modeweaver.wgmodes", "slab_neff", "wgmodes.slab_neff"),
)

DELAY_SCANS = ("experiments.run_hom_dip", "experiments.run_hom_peak")

# Per-layer metrics, name -> unit. A name ending in .calls or .self_s reads
# the span named by the rest of it.
LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "experiments.fit_sinusoid.calls": "calls",
    "experiments.fit_sinusoid.self_s": "s",
    "experiments.fit_gaussian.self_s": "s",
    "experiments.fit_fringe_with_leakage.self_s": "s",
    "experiments.scan_points": "points",
    "circuit.simulate_counts.self_s": "s",
    "circuit.compile_circuit.calls": "calls",
    "circuit.compile_circuit.self_s": "s",
    "circuit.compiles_per_point": "compiles/point",
    "coupling.coupler_unitary.calls": "calls",
    "coupling.grating_from_geometry.self_s": "s",
    "fock.two_photon_coincidence.calls": "calls",
    "fock.transition_amplitude.calls": "calls",
    "fock.permanent.calls": "calls",
    "fock.permanent.self_s": "s",
    "fock.permanent.max_n": "n",
    "fock.permanent.ops_computed": "ops",
    "fock.evolve.self_s": "s",
    "wgmodes.effective_index.calls": "calls",
    "wgmodes.effective_index.self_s": "s",
    "wgmodes.slab_neff.calls": "calls",
    "wgmodes.slab_neff.self_s": "s",
    "wgmodes.dispersion_sweep.self_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Records calls and self time per span name while installed."""

    def __init__(self):
        self._stack: list[list] = []  # [span name, time covered by children]
        self._originals: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.scan_points = 0
        self.delay_points = 0
        self.delay_compiles = 0
        self.permanent_max_n = 0
        self.permanent_ops = 0

    def _in_delay_scan(self) -> bool:
        return any(frame[0] in DELAY_SCANS for frame in self._stack)

    def _on_enter(self, name: str, args, kwargs) -> None:
        if name == "circuit.simulate_counts":
            points = len(args[3] if len(args) > 3 else kwargs["scan_values"])
            self.scan_points += points
            if self._in_delay_scan():
                self.delay_points += points
        elif name == "circuit.compile_circuit":
            if self._in_delay_scan():
                self.delay_compiles += 1
        elif name == "fock.permanent":
            n = int(np.shape(args[0] if args else kwargs["matrix"])[0])
            self.permanent_max_n = max(self.permanent_max_n, n)
            self.permanent_ops += n * (1 << n)

    def _wrap(self, name: str, func):
        @functools.wraps(func)
        def span(*args, **kwargs):
            self._on_enter(name, args, kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration

        return span

    def install(self) -> None:
        """Patch every target that exists; a missing one is skipped, so its
        counters read 0."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            func = getattr(module, attr, None)
            if func is None:
                continue
            self._originals.append((module, attr, func))
            setattr(module, attr, self._wrap(name, func))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, func = self._originals.pop()
            setattr(module, attr, func)

    def layer_metrics(self, output_bytes: int) -> dict:
        """Per-layer values of the spans recorded since the last reset."""
        values = {}
        for metric in LAYER_UNITS:
            span, _, field = metric.rpartition(".")
            if field == "calls":
                values[metric] = self.calls[span]
            elif field == "self_s":
                values[metric] = self.self_s[span]
        values["cli.output_bytes"] = output_bytes
        values["experiments.scan_points"] = self.scan_points
        values["circuit.compiles_per_point"] = (
            self.delay_compiles / self.delay_points if self.delay_points else 0.0
        )
        values["fock.permanent.max_n"] = self.permanent_max_n
        values["fock.permanent.ops_computed"] = self.permanent_ops
        return values
