"""The value types are frozen dataclasses: fields cannot be reassigned."""

import dataclasses

import numpy as np
import pytest

from qmac import eacode, gaussian, info, qmat, seqdecode, simuldecode, typicality
from qmac.qmat import FactorSpace

from conftest import bell_state


def _instances():
    space = FactorSpace(("A",), (2,))
    eye = np.eye(2)
    d1 = eacode.type_decompose(bell_state("Ap", "A"), 1)
    d2 = eacode.type_decompose(bell_state("Bp", "B"), 1)
    cnot = qmat.named_channel("cnot-mac")
    povm = qmat.PovmSet(space, {0: eye})
    return [
        space,
        qmat.Operator(space, eye),
        qmat.DensityOperator(space, eye / 2),
        qmat.PureState(space, [1.0, 0.0]),
        qmat.named_channel("identity:2"),
        povm,
        eacode.sample_code(d1, 2, 0),
        typicality.typical_projector(qmat.DensityOperator(space, eye / 2), 1, 1.0),
        typicality.MeasuredConstants(0.1, 1.0, 2.0, 0.0),
        info.RateRegion(1.0, 1.0, 1.5),
        gaussian.CovarianceState(("A",), eye),
        gaussian.SymplecticMap(eye),
        gaussian.BosonicMacParams(0.5, 1.0, 1.0),
        seqdecode.PackingConstants(0.1, 1.0, 2.0, 2),
        seqdecode.PackingBound(0.5, True),
        seqdecode.SeqReport(0.5, 0.1, 0.0, False, 0.1, 1.0, 2.0, 1, 2, 0, 3),
        simuldecode.mac_typical_projectors(cnot, (d1, d2), 1.0),
        simuldecode.coherent_decoder(povm),
        simuldecode.MacReport(1, 2, 2, 0.1, 0.1, 0.1, (0, 1), "simultaneous", {}),
    ]


INSTANCES = _instances()


def test_every_value_type_is_covered():
    assert len({type(x) for x in INSTANCES}) == len(INSTANCES) == 19


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda x: type(x).__name__)
def test_fields_cannot_be_assigned(obj):
    fields = dataclasses.fields(obj)
    assert fields
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(obj, f.name, getattr(obj, f.name))


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda x: type(x).__name__)
def test_repr_prints_no_matrix(obj):
    assert "array(" not in repr(obj)


class TestValueEquality:
    def test_factor_space(self):
        a = FactorSpace(["A", "B"], [2, 3])
        b = FactorSpace(("A", "B"), (2, 3))
        assert a == b and hash(a) == hash(b)
        assert a != FactorSpace(("A", "B"), (3, 2))
        assert a != FactorSpace(("B", "A"), (2, 3))

    def test_array_types_compare_by_identity(self):
        space = FactorSpace(("A",), (2,))
        a = qmat.Operator(space, np.eye(2))
        b = qmat.Operator(space, np.eye(2))
        assert a == a and a != b
