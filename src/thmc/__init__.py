"""Exact-arithmetic toolkit for toric homogeneous Markov chain models."""

from .design import (
    DesignMatrix,
    Model,
    build_design_matrix,
    column_of_word,
    distinct_columns,
    row_labels,
)
from .intlinalg import (
    IntLattice,
    SnfResult,
    kernel_lattice_basis,
    residue_test,
    smith_normal_form,
)
from .stategraph import (
    StateGraph,
    classify_Gmn,
    cycle_decomposition,
    eulerian_path,
    pivot_paths,
)
from .words import enumerate_words, word_count

__version__ = "0.1.0"

__all__ = [
    "DesignMatrix",
    "IntLattice",
    "Model",
    "SnfResult",
    "StateGraph",
    "build_design_matrix",
    "classify_Gmn",
    "column_of_word",
    "cycle_decomposition",
    "distinct_columns",
    "enumerate_words",
    "eulerian_path",
    "kernel_lattice_basis",
    "pivot_paths",
    "residue_test",
    "row_labels",
    "smith_normal_form",
    "word_count",
]
