"""Shared matrices, classified windows and the slow-test gate used across
the test suite."""

import functools
import json
import os

import pytest

from mclex import classify, matrix, parse_matrix
from mclex.closure import _derived
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


@pytest.fixture(autouse=True)
def cold_decides():
    """Each test leaves the column sets that decides derived cold, so a
    later test, the harness's tests among them, sees its own decides
    saturate."""
    yield
    _derived.cache_clear()


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


# a later candidate of SU2_CANON's class in (2, 3, 2), and not its own
# normal form
LATER_MEMBER = "1 2 2 | 1 ; * 1 * | 1"


def write_later_member_checkpoint(directory):
    """Write a full (2, 3, 2) checkpoint into the directory (a Path) that
    lists SU2_CANON's class at LATER_MEMBER; such a checkpoint used to
    resume with that member as the class's representative."""
    classify(2, 3, 2, checkpoint_dir=str(directory))
    path = directory / "classify_2_3_2.json"
    state = json.loads(path.read_text())
    (rec,) = [c for c in state["classes"] if c["rows"] == [list(r) for r in SU2_CANON.rows]]
    rec["rows"] = [list(r) for r in parse_matrix(LATER_MEMBER).rows]
    path.write_text(json.dumps(state))
