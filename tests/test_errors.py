"""The error contract: every package error is invalid input (``ConfigError``,
CLI exit 1) or a numerical abort of valid input (``NumericalAbort``, exit 2),
and callers read the kind, not a list of classes."""

import inspect
import json
import math
from fractions import Fraction

import pytest

import vhbilliards.cli as cli
import vhbilliards.lab as lab
from vhbilliards import errors
from vhbilliards.errors import BilliardError, ConfigError, NumericalAbort
from vhbilliards.geometry import save_table, unit_square

ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
          if issubclass(cls, BilliardError) and cls is not BilliardError]

# the three classes that exited 2 before the hierarchy was rooted by kind,
# and their new base; every other class exits 1, as it did
EXIT_2 = {"NumericalAbort", "SingularOrbit", "EventBudgetExceeded",
          "TooManySingular"}


class PlantedAbort(NumericalAbort):
    """A numerical failure that neither the CLI nor the lab names."""


def test_layer_bases_are_gone():
    names = {cls.__name__ for cls in ERRORS}
    assert {"ConfigError", "NumericalAbort", "GeometryError",
            "StalledState", "GridMismatch"} <= names
    assert not names & {"WordError", "DynamicsError", "SpectralError"}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_is_exactly_one_kind(cls):
    assert issubclass(cls, ConfigError) != issubclass(cls, NumericalAbort)
    assert issubclass(cls, NumericalAbort) == (cls.__name__ in EXIT_2)
    assert issubclass(cls, ValueError) == issubclass(cls, ConfigError)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    save_table(unit_square(), path)
    return str(path)


@pytest.mark.parametrize("cls", ERRORS + [PlantedAbort],
                         ids=lambda cls: cls.__name__)
def test_cli_exit_code_is_the_kind(cls, square_file, monkeypatch, capsys):
    def planted(*args, **kwargs):
        raise cls("planted")

    monkeypatch.setattr(cli, "tiling_parameters", planted)
    code = cli.main(["validate", square_file])
    assert code == (2 if cls is PlantedAbort or cls.__name__ in EXIT_2 else 1)
    assert (code == 2) == issubclass(cls, NumericalAbort)
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": cls.__name__, "message": "planted"}


def test_gdelta_ladder_ends_on_any_abort(monkeypatch):
    # an abort the lab does not name still ends the stability ladder below
    # its first rung, while an input error still propagates
    def probe(error):
        def broken(*args, **kwargs):
            raise error
        monkeypatch.setattr(lab, "_probe_against", broken)
        monkeypatch.setattr(lab, "TAU_FACTOR", 4)
        return lab.gdelta_demo("ENWS", (Fraction(1, 2), Fraction(30)),
                               q_list=[2], j_max=1, n_list=[2], m=4,
                               seed=1, theta_count=4)

    row = probe(PlantedAbort("planted")).rows[0]
    assert row.eta_emp == 0.0 and math.isnan(row.max_delta_at_eta)
    with pytest.raises(ConfigError, match="planted"):
        probe(ConfigError("planted"))
