"""Exact linearization of finite periodic dynamical systems with statistics.

Given a finite set X, a bijection T with T^n = id, and rational statistics
g_1..g_k, the span V of the shifted statistics g_i o T^j carries the
time-evolution operator U: f -> f o T with U^n = I.  This package computes,
in exact rational and cyclotomic arithmetic: the presenting matrix of U, the
multiplicity of each n-th root of unity in its spectrum, a basis of the
invariant subspace and the dimension of the 0-mesic subspace, homomesy
classifications, coboundary witnesses, and the degree-2 product extension,
together with built-in combinatorial families, the transfer-operator lifts
for the 2 x 2 order polytope, and the monomial action of the period-5
recurrence map.

The package root re-exports only the few names the scripts use; everything
else is imported from its module (`dynspan.system`, `dynspan.linearize`,
`dynspan.exact`, `dynspan.families`, `dynspan.lyness`, `dynspan.polytope`).
"""

from .families import chain_rowmotion, distinct_multiset_rotation, multiset_rotation
from .linearize import flatness_report, spectrum

__all__ = [
    "chain_rowmotion",
    "distinct_multiset_rotation",
    "flatness_report",
    "multiset_rotation",
    "spectrum",
]

__version__ = "0.1.0"
