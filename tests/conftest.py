"""Shared matrices, classified windows and the slow-test gate used across
the test suite."""

import functools
import os

import pytest

from mclex import classify, matrix, parse_matrix
from mclex.enumeration import _probe_bits

# Run the heavy enumeration tests only when MCLEX_SLOW=1 is set.
slow = pytest.mark.skipif(
    os.environ.get("MCLEX_SLOW") != "1",
    reason="set MCLEX_SLOW=1 to run the heavy enumeration tests",
)


@pytest.fixture(autouse=True)
def cold_probe_blocks():
    """Each test leaves the process's probe blocks cold, as a fresh process
    has them, so a later test that counts signing sees its own blocks."""
    yield
    _probe_bits.cache_clear()


@functools.lru_cache(maxsize=None)
def classified(window):
    """classify(*window), taken once per session: the acceptance sizes and
    the enumeration tests read the same windows."""
    return classify(*window)


TRIVIAL = parse_matrix("| 1")
ANTI_TRIVIAL = parse_matrix("| *")
UNITAL = parse_matrix("1 * | 1 ; * 1 | 1")
SUBTRACTION = parse_matrix("1 * | 1 ; 1 1 | *")

# Two presentations of the same two-row strongly unital class; the second is
# the canonical one (smallest column-major reading).
SU2 = parse_matrix("1 * * | 1 ; 2 2 1 | 1")
SU2_CANON = parse_matrix("1 * * | 1 ; 2 1 2 | 1")
# Its three-row one-variable presentation.
SU3 = parse_matrix("1 1 * | 1 ; * * 1 | 1 ; 1 * 1 | *")

MALTSEV = parse_matrix("1 2 2 | 1 ; 2 2 1 | 1")
MALTSEV_CANON = parse_matrix("1 2 2 | 1 ; 2 1 2 | 1")
MAJORITY = parse_matrix("2 1 1 | 1 ; 1 2 1 | 1 ; 1 1 2 | 1")
ARITHMETICAL = parse_matrix("1 2 2 | 1 ; 2 2 1 | 1 ; 1 2 1 | 1")
MINORITY = matrix([(1, 2, 2, 1), (2, 1, 2, 1), (2, 2, 1, 1)])

# Three-row matrix equivalent to the subtraction matrix (normality of
# projections refinement).
NORMAL_PROJECTIONS = parse_matrix("1 1 * | 1 ; 1 * 1 | * ; 1 * * | 1")
