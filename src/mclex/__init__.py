"""mclex: decision procedures for matrix properties of pointed categories."""

__version__ = "0.1.0"

from ._kernel import BACKEND
from .matrix import (
    ExtendedMatrix,
    MatrixParseError,
    lex_key,
    maltsev_condition,
    matrix,
    normalize,
    parse_matrix,
)
from .degeneracy import DegeneracyClass, degeneracy_class, is_anti_trivial, is_trivial
from .closure import (
    TableauProof,
    TableauStep,
    check_tableau,
    decide,
    decide_pair,
    load_tableau,
    dump_tableau,
    saturate,
    verify_tableau,
)
from .localization import (
    AdmissibleWitness,
    is_admissible,
    loc_bottom,
    loc_equal,
    localize,
    substitute_star,
)
from .enumeration import (
    ANCHORS,
    PosetGraph,
    canonical,
    candidate_stream,
    classify,
    compute_edges,
    subposet_by_localization,
    transitive_reduction,
    window_caps,
)

__all__ = [name for name in dir() if not name.startswith("_")]
