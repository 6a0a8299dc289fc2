"""Exception hierarchy shared by all modeweaver modules."""

import math


class ModeweaverError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(ModeweaverError):
    """An argument is outside its physical or numerical domain."""


class ModeCutoff(ModeweaverError):
    """The requested mode order is not guided at this geometry/wavelength."""


class DegeneratePhaseMatch(ModeweaverError):
    """The effective-index difference is (numerically) zero; no grating is needed."""


class SizeLimit(ModeweaverError):
    """Matrix size exceeds the supported permanent cap."""


class PhotonNumberMismatch(ModeweaverError):
    """Input and output Fock states carry different total photon numbers."""


class ChannelMismatch(ModeweaverError):
    """A circuit element references channels outside the circuit's mode count."""


class NotUnitary(ModeweaverError):
    """A matrix expected to be unitary is not, within tolerance."""


class FitDiverged(ModeweaverError):
    """Iterative least-squares refinement failed to converge."""


class InsufficientSpan(ModeweaverError):
    """Scan data do not span enough periods, or sample them too coarsely,
    for a reliable sinusoid fit."""


def require_finite(**values: float) -> None:
    """Raise InvalidInput naming the first of `values` that is NaN or infinite.

    Validators call this before their range checks, which NaN passes.
    """
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidInput(f"{name} must be finite, got {value}")
