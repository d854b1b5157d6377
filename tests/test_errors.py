import pickle

import numpy as np
import pytest

from mortdecomp.errors import (
    ConfigError,
    DegenerateDesignError,
    EmptyInputError,
    NonConvergenceError,
    RowError,
    SchemaError,
    SingularDesignError,
)


@pytest.mark.parametrize(
    "error",
    [
        ConfigError("bad config"),
        SchemaError("bad schema"),
        EmptyInputError("no rows"),
        RowError(7, "non-numeric cell 'x'"),
        DegenerateDesignError("sex"),
        DegenerateDesignError("sex", "column 3 of group 'sex' is constant"),
        SingularDesignError(1.25e-19),
        NonConvergenceError("no convergence after 50 iterations", last_iterate=np.array([0.5, -1.0])),
    ],
    ids=lambda e: type(e).__name__,
)
def test_errors_survive_pickling(error):
    # an error raised in a fit process reaches the parent through a pickle
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back).keys() == vars(error).keys()
    for name, value in vars(error).items():
        assert np.array_equal(getattr(back, name), value), name
