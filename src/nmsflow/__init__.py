"""Exact-integer classification of closed orientable 3-manifolds that
carry nonsingular Morse-Smale flows with a single twisted saddle orbit.

The package root re-exports the entry points of the README's Library
section; everything else lives in its module (`classifier`, `manifolds`,
`seifert`, `surgery`, `homology`, `expressions`, `selfcheck`).
Everything computes over exact integers and `fractions.Fraction`; no
floating point is used anywhere.
"""

from .classifier import classify_quadruple
from .expressions import parse_manifold
from .homology import h1
from .manifolds import homeomorphic
