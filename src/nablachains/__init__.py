"""Counting, classification and symbolic verification of chains of the
higher-order differential operations nabla_1..nabla_n on R^n."""

from .classify import (
    TrivialityClass,
    classify_pair,
    classify_word,
    count_nontrivial,
    enumerate_nontrivial,
)
from .counting import (
    CountSequence,
    brute_force_count,
    count_per_start,
    count_sequence,
    count_total,
    enumerate_words,
)
from .errors import (
    EnumerationCapError,
    LevelMismatchError,
    NotComposableError,
)
from .forms import (
    ComponentVector,
    DifferentialForm,
    apply_word,
    exterior_derivative,
    is_zero_operator,
    iso_from_components,
    iso_to_components,
    nabla,
)
from .graph import build_adjacency, is_composable, successors
from .polynomial import Polynomial, parse_polynomial
from .recurrence import (
    IntegerPolynomial,
    Recurrence,
    characteristic_polynomial,
    minimal_recurrence,
    recurrence_from_polynomial,
    reference_recurrences,
    verify_recurrence,
)
from .words import CompositionWord

__version__ = "0.1.0"

__all__ = [
    "CompositionWord",
    "ComponentVector",
    "CountSequence",
    "DifferentialForm",
    "EnumerationCapError",
    "IntegerPolynomial",
    "LevelMismatchError",
    "NotComposableError",
    "Polynomial",
    "Recurrence",
    "TrivialityClass",
    "apply_word",
    "brute_force_count",
    "build_adjacency",
    "characteristic_polynomial",
    "classify_pair",
    "classify_word",
    "count_nontrivial",
    "count_per_start",
    "count_sequence",
    "count_total",
    "enumerate_nontrivial",
    "enumerate_words",
    "exterior_derivative",
    "is_composable",
    "is_zero_operator",
    "iso_from_components",
    "iso_to_components",
    "minimal_recurrence",
    "nabla",
    "parse_polynomial",
    "recurrence_from_polynomial",
    "reference_recurrences",
    "successors",
    "verify_recurrence",
]
