"""The contract of the package's value classes: none can be changed after
construction, the validated ones check every construction, and the ones
that key dicts or feed output keep their equality and field order."""

import dataclasses
import math

import numpy as np
import pytest

from modeweaver.circuit import (
    Circuit,
    CoincidenceConfig,
    GratingBS,
    PhaseShifter,
    ReckDecomposition,
    ReckStage,
)
from modeweaver.coupling import GratingSpec
from modeweaver.errors import InvalidInput
from modeweaver.experiments import (
    GaussianFit,
    PaperTarget,
    ScanResult,
    SinusoidFit,
    run_hom_dip,
    run_noon,
)
from modeweaver.fock import PhotonPairSource, PureState
from modeweaver.wgmodes import MaterialStack, ModeId, WaveguideGeometry

TE0, TE2 = ModeId("TE", 0), ModeId("TE", 2)
GAUSSIAN = GaussianFit(1.0, 0.0, 80.0, 4.0, {}, 0.0)

VALUES = {
    "GratingBS": lambda: GratingBS((0, 1), 0.5),
    "PhaseShifter": lambda: PhaseShifter((1,), 0.3),
    "Circuit": lambda: Circuit(2, (GratingBS((0, 1), 0.5),)),
    "ReckStage": lambda: ReckStage((0, 1), 0.5, 0.1),
    "ReckDecomposition": lambda: ReckDecomposition((), np.zeros(2)),
    "GaussianFit": lambda: GAUSSIAN,
    "SinusoidFit": lambda: SinusoidFit(1.0, 4.0, 1.3, 0.0, {}, 0.0),
    "ScanResult": lambda: ScanResult("s", ("delay", "um"), "net", {}, GAUSSIAN, {}, {}),
    "CoincidenceConfig": lambda: CoincidenceConfig(),
    "GratingSpec": lambda: GratingSpec(6.9, 24.0, 20, 0.041, (TE0, TE2)),
    "MaterialStack": lambda: MaterialStack(),
    "WaveguideGeometry": lambda: WaveguideGeometry(1600.0, 190.0),
    "ModeId": lambda: ModeId("TE", 2),
    "PureState": lambda: PureState(2, 1, np.array([1.0, 0.0], dtype=complex)),
    "PhotonPairSource": lambda: PhotonPairSource(),
    "PaperTarget": lambda: PaperTarget("x", 1.0, 0.0, 0.1),
}

# (class, a field, a value its check rejects)
INVALID = [
    ("GratingSpec", "period_um", 0.0),
    ("MaterialStack", "n_core", 1.0),
    ("WaveguideGeometry", "width_nm", -1.0),
    ("ModeId", "family", "TX"),
    ("PureState", "amplitudes", np.zeros(3)),
    ("PhotonPairSource", "intrinsic_overlap", 2.0),
    ("PhotonPairSource", "pair_rate_hz", math.nan),
    ("PhotonPairSource", "pair_rate_hz", math.inf),
    ("PhotonPairSource", "singles_rates_hz", (math.nan, 1.0)),
    ("PhotonPairSource", "singles_rates_hz", (1.0, math.inf)),
    ("PhotonPairSource", "singles_rates_hz", (1.0,)),
]
# a class's first row is named by the class, a later one by its field and value too
INVALID_IDS = [
    f"{name}-{field}={bad}" if name in [row[0] for row in INVALID[:k]] else name
    for k, (name, field, bad) in enumerate(INVALID)
]


def _first_field(value) -> str:
    if dataclasses.is_dataclass(value):
        return dataclasses.fields(value)[0].name
    return value._fields[0]


@pytest.mark.parametrize("name", VALUES)
def test_immutable(name):
    value = VALUES[name]()
    field = _first_field(value)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_mode_id_is_equal_by_value_and_hashable():
    assert ModeId("TE", 2) == ModeId.parse("te2") == TE2
    assert ModeId("TE", 2) != ModeId("TM", 2)
    assert hash(ModeId("TE", 2)) == hash(TE2)
    assert {ModeId("TE", 2): 1}[TE2] == 1


def test_fit_params_keep_field_order():
    dip = run_hom_dip(0.55)
    classical, quantum = run_noon(0.66, 0.66)
    assert list(dip.fit_dict()["params"]) == ["amplitude", "center", "sigma", "offset"]
    for scan in (classical, quantum):
        assert list(scan.fit_dict()["params"]) == ["amplitude", "offset", "period", "phase"]
    assert [dip.fit_dict()["fit_kind"], quantum.fit_dict()["fit_kind"]] == [
        "gaussian", "sinusoid"
    ]


@pytest.mark.parametrize("name, field, bad", INVALID, ids=INVALID_IDS)
def test_replace_runs_the_check(name, field, bad):
    with pytest.raises(InvalidInput):
        dataclasses.replace(VALUES[name](), **{field: bad})
