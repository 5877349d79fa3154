"""Exact q-moments, Markov dualities and KPZ-limit moments for open ASEP."""

__version__ = "0.4.7"

from .model import (AsepState, ChamberError, ModelParams, SegmentParams,
                    SegmentState, ValidityError, current, current_segment,
                    observable_h, observable_h_segment)
from .moments import (FreeEvolutionReport, MomentResult, QuadratureSpec,
                      first_moment, free_evolution_residuals, q_moment,
                      second_moment_explicit)
from .partitions import (Diagram, canonical_diagrams, count_diagrams,
                         enumerate_diagrams, partitions_of, substitution_map)
from .simulate import McEstimate, SimConfig, dual_reweighted_estimate, estimate

__all__ = [
    "AsepState", "ChamberError", "Diagram", "FreeEvolutionReport", "McEstimate",
    "ModelParams", "MomentResult", "QuadratureSpec", "SegmentParams",
    "SegmentState", "SimConfig", "ValidityError", "canonical_diagrams",
    "count_diagrams", "current", "current_segment", "dual_reweighted_estimate",
    "enumerate_diagrams", "estimate", "first_moment", "free_evolution_residuals",
    "observable_h", "observable_h_segment", "partitions_of", "q_moment",
    "second_moment_explicit", "substitution_map",
]
