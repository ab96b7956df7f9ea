"""Costas array domain: representation, validation, constructions and analysis.

A *Costas array* of order ``n`` is an ``n x n`` permutation matrix whose
:math:`n(n-1)/2` displacement vectors between pairs of marks are all distinct.
Equivalently, viewing the array as a permutation ``p`` (one mark per column,
``p[i]`` giving the row of the mark in column ``i``), every row ``d`` of the
*difference triangle* ``p[i+d] - p[i]`` contains no repeated value.

This subpackage provides:

* :class:`~repro.costas.array.CostasArray` — a validated, immutable Costas array
  value object with conversions, symmetries and export helpers;
* :func:`~repro.costas.array.is_costas` / :func:`~repro.costas.array.violation_count`
  / :func:`~repro.costas.array.difference_triangle` — cheap checks usable on
  raw permutations (the Adaptive Search model of the paper, with its
  incremental count tables, is :class:`repro.models.CostasProblem`);
* :mod:`~repro.costas.constructions` — the Welch and Golomb/Lempel algebraic
  constructions (with a small finite-field substrate in
  :mod:`~repro.costas.galois`);
* :mod:`~repro.costas.enumeration` — exhaustive backtracking enumeration and
  counting, plus symmetry-class reduction;
* :mod:`~repro.costas.database` — published Costas array counts per order;
* :mod:`~repro.costas.ambiguity` — radar-oriented auto-ambiguity utilities
  (the application that motivated Costas arrays).
"""

from repro.costas.array import (
    CostasArray,
    as_permutation,
    difference_triangle,
    is_costas,
    is_permutation,
    random_permutation,
    violation_count,
    violating_pairs,
)
from repro.costas.constructions import (
    construct,
    available_constructions,
    golomb_construction,
    lempel_construction,
    welch_construction,
)
from repro.costas.enumeration import (
    count_costas_arrays,
    enumerate_costas_arrays,
    equivalence_classes,
)
from repro.costas.symmetry import (
    all_symmetries,
    canonical_form,
    complement,
    reverse,
    transpose,
)
from repro.costas.database import (
    KNOWN_COSTAS_COUNTS,
    KNOWN_EQUIVALENCE_CLASS_COUNTS,
    known_class_count,
    known_count,
    solution_density,
)
from repro.costas.ambiguity import (
    ambiguity_matrix,
    coincidence_count,
    hop_waveform,
    max_offpeak_coincidences,
    sidelobe_histogram,
    waveform_ambiguity,
)

__all__ = [
    "CostasArray",
    "as_permutation",
    "difference_triangle",
    "is_costas",
    "is_permutation",
    "random_permutation",
    "violation_count",
    "violating_pairs",
    "construct",
    "available_constructions",
    "welch_construction",
    "lempel_construction",
    "golomb_construction",
    "enumerate_costas_arrays",
    "count_costas_arrays",
    "equivalence_classes",
    "all_symmetries",
    "canonical_form",
    "reverse",
    "complement",
    "transpose",
    "KNOWN_COSTAS_COUNTS",
    "KNOWN_EQUIVALENCE_CLASS_COUNTS",
    "known_count",
    "known_class_count",
    "solution_density",
    "ambiguity_matrix",
    "coincidence_count",
    "hop_waveform",
    "max_offpeak_coincidences",
    "sidelobe_histogram",
    "waveform_ambiguity",
]
