import io
import contextlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shapr2.cli import main
from shapr2.models import Stump, StumpEnsemble

DATA_DIR = Path(__file__).parent / "data"


class CliResult:
    def __init__(self, code: int, stdout: str, stderr: str):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr


def run_cli(*argv: str) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


@pytest.fixture
def cli():
    return run_cli


# ---------------------------------------------------------------------------
# Random stump ensembles for property tests

_LEAVES = st.floats(-5.0, 5.0, allow_nan=False)
_POOLS = st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=4)


@st.composite
def stump_cases(draw, n_inputs=1, max_rows=5, extra=st.nothing(), pools=_POOLS):
    """``(model, *inputs)``: a stump ensemble, possibly without stumps, and
    ``n_inputs`` arrays of rows for it.

    Thresholds come from a small pool of floats, a draw of ``pools``, so one
    feature often carries a threshold twice. Each input cell is a threshold
    from that pool (so it sits exactly on a split), any float in [-3, 3], or
    a draw of ``extra``.
    """
    n_features = draw(st.integers(1, 4))
    pool = draw(pools)
    stump = st.builds(
        Stump,
        feature_index=st.integers(0, n_features - 1),
        threshold=st.sampled_from(pool),
        left_value=_LEAVES,
        right_value=_LEAVES,
    )
    model = StumpEnsemble(
        init_value=draw(_LEAVES),
        stumps=tuple(draw(st.lists(stump, max_size=12))),
        learning_rate=draw(st.floats(0.01, 1.0)),
        n_features=n_features,
    )
    cells = st.one_of(st.sampled_from(pool), st.floats(-3.0, 3.0, allow_nan=False), extra)
    shape = st.tuples(st.integers(1, max_rows), st.just(n_features))
    return (model, *[draw(hnp.arrays(np.float64, shape, elements=cells)) for _ in range(n_inputs)])
