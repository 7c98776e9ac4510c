"""Divergence-free 3D vector field adjustment from horizontal-only data.

The package reconstructs a mass-consistent (divergence-free) 3D field from
its two horizontal components by a single line-search step along an
adjoint-derived descent direction. The Lagrange multiplier solves a Poisson
problem whose boundary conditions follow from the face physics, discretized
by asymmetric (Kansa) collocation with inverse multiquadric kernels and a
truncated-SVD minimum-norm dense solve that pays for the kept rank only: a
certified randomized range sketch, LAPACK dgelsd on its projection, and
dgelsd on the whole matrix when the rank is high.

Library entry points: :func:`masscons.adjust.adjust`, the line search over
a :class:`masscons.adjust.Problem` (``Problem.horizontal`` for horizontal
data, ``Problem.full`` for full observations), :func:`masscons.adjust.sasaki`,
the same search with the closed-form step (on full observations the classical
one-shot adjustment), and the ``masscons`` CLI for config-driven experiment
tables.
"""

from .adjust import (
    FLOW_THROUGH,
    MINIMIZER,
    NO_FLOW_THROUGH,
    ORACLE_NEUMANN,
    CLOSED_FORM,
    AdjustmentResult,
    FaceBcPolicy,
    Problem,
    adjust,
    boundary_data,
    build_system,
    descent_direction,
    misfit,
    poisson_rhs,
    sasaki,
)
from .collocation import GramSystem, MultiplierSolution, assemble, factorize_and_solve
from .config import ExperimentConfig, echo_config, parse_config
from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateDirectionError,
    DomainError,
    MassconsError,
    NonDescentError,
    SingularSystemError,
)
from .fields import (
    ExampleCase,
    Field2,
    Field3,
    Quadrature,
    divergence_fd,
    example_field,
    face_rule,
    gauss2_rule,
    inject,
    midpoint_rule,
)
from .geometry import BoxDomain, FaceLabel, NodeSet, Topography, classify, grid_centers
from .kernel import KernelParams, grad_phi, hess_phi, lap_phi
from .runner import REFERENCE_RESULTS, TableRow, dump_gram, run_experiment, sweep, write_reference_comparison

__version__ = "0.1.0"
