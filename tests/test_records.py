"""The package's result records and its lazily resolved public names."""

import importlib
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import tpbases
from tpbases.bases import BasisFamily, BasisSpec, standard_nodes
from tpbases.errors import DomainError
from tpbases.experiments import ExperimentConfig, _spectral_verdict
from tpbases.linalg import collocation_matrix
from tpbases.spectral import RootEnclosure, SpectralReport, spectral_report


def _bernstein_report(n=3):
    m = collocation_matrix(BasisSpec(BasisFamily.BERNSTEIN, n),
                           standard_nodes(n))
    return spectral_report(m)


@pytest.mark.parametrize("record, field", [
    (RootEnclosure(F(1, 3), F(1, 2), None), "low"),
    (_bernstein_report(), "lambda_min"),
    (BasisSpec(BasisFamily.DP, 3), "degree"),
])
def test_record_fields_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_enclosure_width_and_midpoint():
    enc = RootEnclosure(F(1, 3), F(1, 2), (1, -2))
    assert enc.width == F(1, 6)
    assert enc.midpoint == F(5, 12)


@pytest.mark.parametrize("kwargs, message", [
    ({"degree": 0}, "degree must be >= 1, got 0"),
    ({"degree": 2, "weights": (F(1), F(2))}, "need 3 weights, got 2"),
    ({"degree": 1, "weights": (F(1), F(0))},
     "all weights must be strictly positive"),
])
def test_basis_spec_validation_messages(kwargs, message):
    with pytest.raises(DomainError) as info:
        BasisSpec(BasisFamily.BERNSTEIN, **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("degrees, message", [
    ((), "degrees must be a nonempty list of integers >= 1"),
    ((3, 0), "degrees must be a nonempty list of integers >= 1"),
    ((4, 3, 4), "degree 4 is given more than once"),
])
def test_experiment_config_validation_messages(degrees, message):
    with pytest.raises(ValueError) as info:
        ExperimentConfig(degrees=degrees)
    assert str(info.value) == message


def test_equal_spectral_reports_compare_equal():
    # the spectral ordering of a basis against itself is decided by this
    # equality, without refining
    rep = _bernstein_report()
    twin = _bernstein_report()
    assert rep is not twin and rep == twin
    assert rep != _bernstein_report(4)
    holds, witness = _spectral_verdict(rep, twin, F(1, 10**30))
    assert holds is True and witness is None


def test_every_public_name_resolves_to_its_module_object():
    for name in tpbases.__all__:
        obj = getattr(tpbases, name)
        module = importlib.import_module(obj.__module__)
        assert getattr(module, name) is obj, name
    from tpbases import SpectralReport as exported
    assert exported is SpectralReport


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tpbases.no_such_name
    with pytest.raises(ImportError):
        from tpbases import no_such_name  # noqa: F401


def test_importing_the_package_loads_no_submodule():
    code = ("import sys, tpbases\n"
            "print(sorted(m for m in sys.modules if m.startswith('tpbases.')))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"
