"""One owner per rule: no error message is raised from two places in the
package, and each entry point reaches a rule through its owner. A rule
checked twice drifts apart (one copy accepts what the other refuses), so the
second copy calls the first owner instead."""

import ast
import builtins
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from shapr2 import BackgroundSet, Dataset, LinearModel, ShapleyMatrix, StumpEnsemble, errors
from shapr2.errors import InvalidValue
from shapr2.models import Stump, check_boosting_options, tune_iterations
from shapr2.simulation import GridSpec, UniformCorrelationSpec

SOURCE = Path(errors.__file__).parent

#: The classes whose constructor call carries a rule's message: the
#: package's own errors and Python's built-in exceptions.
EXCEPTIONS = {
    name
    for module in (errors, builtins)
    for name, value in vars(module).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def _message(node) -> str | None:
    """The text of a message argument, with ``{}`` for each f-string
    placeholder; None when the argument is not a string literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)
    return None


def raised_messages(source: Path = SOURCE) -> dict[str, list[str]]:
    """``{message: ["file.py:line", ...]}`` for every ``raise C(message, ...)``
    in ``source/*.py`` whose ``C`` is in :data:`EXCEPTIONS`. A helper that
    builds the error (``raise _cannot(...)``) is not a constructor, so it is
    skipped: its one definition is the owner."""
    sites = defaultdict(list)
    for path in sorted(source.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            call = node.exc if isinstance(node, ast.Raise) else None
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in EXCEPTIONS and call.args):
                message = _message(call.args[0])
                if message is not None:
                    sites[message].append(f"{path.name}:{node.lineno}")
    return sites


def test_no_message_is_raised_from_two_places():
    sites = raised_messages()
    assert len(sites) > 50  # the scan sees the package, not an empty folder
    twice = {message: where for message, where in sites.items() if len(where) > 1}
    assert not twice, "rules with two owners:\n" + "\n".join(
        f"  {message!r} at {', '.join(where)}" for message, where in sorted(twice.items())
    )


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: LinearModel(0.0, ["a"]), "coefficients"),
        (lambda: LinearModel(object(), [1.0]), "intercept"),
        (lambda: Dataset(x=[["a"]]), "x"),
        (lambda: StumpEnsemble(0.0, (Stump(0, "a", 1.0, 2.0),), 0.1, 1), "stump parameters"),
        (lambda: GridSpec(noise_sd="a"), "noise_sd"),
        (lambda: UniformCorrelationSpec(0.0, 10, (1.0, (2.0, 3.0)), 1.0, 0), "coefficients"),
        (lambda: UniformCorrelationSpec("a", 10, (1.0,), 1.0, 0), "rho"),
        (lambda: GridSpec(rho_values=["a"]), "rho"),
    ],
    ids=["string-coefficient", "object-intercept", "string-x", "string-threshold", "string-noise",
         "ragged-coefficients", "string-cell-rho", "string-grid-rho"],
)
def test_unreadable_floats_are_invalid_values(build, name):
    """``as_float_array`` owns "readable as floats": a value numpy cannot
    read is an InvalidValue naming its parameter, not a bare numpy error."""
    with pytest.raises(InvalidValue, match=f"^{name} cannot be read as floats: "):
        build()


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: StumpEnsemble(0.0, (), "0.5", 1), "learning_rate"),
        (lambda: check_boosting_options(3, "0.5"), "learning_rate"),
        (lambda: tune_iterations(Dataset(x=[[0.0], [1.0]], y=[0.0, 1.0]), "0.5"), "target_r2"),
        (lambda: tune_iterations(Dataset(x=[[0.0], [1.0]], y=[0.0, 1.0]), None), "target_r2"),
        (lambda: ShapleyMatrix(np.zeros((2, 1)), "a"), "phi0"),
        (lambda: ShapleyMatrix(np.zeros((2, 1)), object()), "phi0"),
        (lambda: BackgroundSet(np.zeros((3, 1))).subsample(2.5, 0), "background_subsample"),
    ],
    ids=["string-learning-rate", "string-boosting-rate", "string-target", "none-target", "string-phi0",
         "object-phi0", "float-subsample"],
)
def test_non_numbers_are_invalid_values(build, name):
    """A number option given a value that is no number of its kind is an
    InvalidValue naming the option, not a bare TypeError or ValueError from
    comparing or converting it."""
    with pytest.raises(InvalidValue, match=f"^{name} "):
        build()
