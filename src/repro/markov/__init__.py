"""Markov systems, iterated function systems, and ergodicity diagnostics.

This package is the mathematical substrate behind the paper's guarantee
section (Section VI and the Appendix): the closed loop of an AI system and
its users is modelled as a *Markov system* in the sense of Werner (2004) —
a directed graph whose edges carry state-transition maps and place-dependent
probabilities — or, when signal-dependent, as an iterated function system
(IFS).  Equal impact holds when that system is uniquely ergodic, i.e. when
it possesses a unique attractive invariant measure.

Public API
----------
Maps and systems
    :class:`AffineMap`, :class:`FunctionMap`,
    :class:`MarkovSystem`, :class:`MarkovEdge`,
    :class:`IteratedFunctionSystem`, :class:`SignalDependentIFS`.
Operators
    :func:`transition_matrix`, :func:`stationary_distribution`.
Ergodicity diagnostics
    :func:`is_strongly_connected`, :func:`is_aperiodic`, :func:`is_primitive`,
    :func:`average_contraction_factor`, :func:`check_ergodicity`,
    :class:`ErgodicityReport`.
Invariant measures
    :class:`EmpiricalMeasure`, :func:`estimate_invariant_measure`,
    :func:`wasserstein_distance_1d`, :func:`unique_ergodicity_diagnostic`.
Coupling
    :func:`coupling_distance_profile`, :func:`coupling_time`.
Spectral diagnostics
    :class:`SpectralDiagnostics`, :func:`spectral_diagnostics`,
    :func:`mixing_time_upper_bound`.
"""

from repro.markov.maps import AffineMap, FunctionMap, StateMap
from repro.markov.system import MarkovEdge, MarkovSystem
from repro.markov.ifs import IteratedFunctionSystem, SignalDependentIFS
from repro.markov.operators import stationary_distribution, transition_matrix
from repro.markov.ergodicity import (
    ErgodicityReport,
    average_contraction_factor,
    check_ergodicity,
    is_aperiodic,
    is_primitive,
    is_strongly_connected,
)
from repro.markov.invariant import (
    EmpiricalMeasure,
    estimate_invariant_measure,
    unique_ergodicity_diagnostic,
    wasserstein_distance_1d,
)
from repro.markov.coupling import coupling_distance_profile, coupling_time
from repro.markov.spectral import (
    SpectralDiagnostics,
    mixing_time_upper_bound,
    spectral_diagnostics,
)

__all__ = [
    "AffineMap",
    "FunctionMap",
    "StateMap",
    "MarkovEdge",
    "MarkovSystem",
    "IteratedFunctionSystem",
    "SignalDependentIFS",
    "transition_matrix",
    "stationary_distribution",
    "ErgodicityReport",
    "is_strongly_connected",
    "is_aperiodic",
    "is_primitive",
    "average_contraction_factor",
    "check_ergodicity",
    "EmpiricalMeasure",
    "estimate_invariant_measure",
    "wasserstein_distance_1d",
    "unique_ergodicity_diagnostic",
    "coupling_distance_profile",
    "coupling_time",
    "SpectralDiagnostics",
    "spectral_diagnostics",
    "mixing_time_upper_bound",
]
