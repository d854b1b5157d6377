"""Shared pytest wiring: collect acceptance-criterion lines and print
them in the terminal summary, where output capture cannot hide them;
and a fixed large generator with the memory probe its bounds are
checked with."""

import gc
import tracemalloc

import pytest

from mortdecomp.dataset import default_schema
from mortdecomp.simulate import SyntheticConfig, SyntheticSurveySpec


ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def traced_peak(call, *args):
    """``call(*args)`` and the most memory, in MB, that tracemalloc saw allocated during it above
    what was allocated when it started (numpy reports its array buffers to tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        return result, (tracemalloc.get_traced_memory()[1] - start) / 1e6
    finally:
        tracemalloc.stop()


# Every field of the default schema, with a missing birth interval on 30% of births.
_FIELD_DISTRIBUTIONS = {
    "wealth_rank": {"dist": "uniform", "low": 0.0, "high": 1.0},
    "maternal_education": {"dist": "uniform", "low": 0.0, "high": 12.0},
    "maternal_age": {"dist": "uniform", "low": 16.0, "high": 43.0},
    "birth_order": {"dist": "choice", "values": [1, 2, 3, 4, 5, 6], "probs": [0.3, 0.25, 0.2, 0.12, 0.08, 0.05]},
    "birth_interval": {"dist": "uniform", "low": 10.0, "high": 60.0, "missing_prob": 0.3},
    "sex": {"dist": "choice", "values": ["female", "male"], "probs": [0.49, 0.51]},
    "residence": {"dist": "choice", "values": ["rural", "urban"], "probs": [0.6, 0.4]},
}


@pytest.fixture(scope="session")
def large_dgp() -> SyntheticConfig:
    """A fixed generator of two surveys of 20000 births each (800 clusters of 25) under the default
    schema: large enough that a copy of a column, or of the design, shows in a memory bound."""
    beta = [0.0, -0.15, -0.3, -0.4, -0.5, 0.0, -0.05, -0.1, -0.15, 0.0, 0.05, 0.1, 0.15,
            0.05, 0.1, 0.15, 0.2, 0.1, 0.05, 0.0, -0.05, 0.05, 0.2, -0.15]
    surveys = [
        SyntheticSurveySpec(tuple([intercept] + beta[1:]), sigma2, 800, 25, year, _FIELD_DISTRIBUTIONS)
        for intercept, sigma2, year in ((-1.2, 0.2, 1998), (-1.55, 0.15, 2012))
    ]
    return SyntheticConfig(default_schema(), *surveys)
