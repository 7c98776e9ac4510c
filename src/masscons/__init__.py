"""Divergence-free 3D vector field adjustment from horizontal-only data.

The package reconstructs a mass-consistent (divergence-free) 3D field from
its two horizontal components by a single line-search step along an
adjoint-derived descent direction. The Lagrange multiplier solves a Poisson
problem whose boundary conditions follow from the face physics, discretized
by asymmetric (Kansa) collocation with inverse multiquadric kernels and a
truncated-SVD dense solve.

Library entry points: :func:`masscons.adjust.adjust` (horizontal data),
:func:`masscons.adjust.sasaki` (full observations, classical one-shot), and
the ``masscons`` CLI for config-driven experiment tables.
"""

from .adjust import (
    FIELD_DIRICHLET,
    FLOW_THROUGH,
    MINIMIZER,
    NO_FLOW_THROUGH,
    ORACLE_NEUMANN,
    CLOSED_FORM,
    AdjustmentResult,
    BaseFieldPolicy,
    FaceBcPolicy,
    adjust,
    adjust_full,
    boundary_data,
    descent_direction,
    misfit,
    poisson_rhs,
    sasaki,
    step_length,
)
from .collocation import (
    DirichletLambda,
    GramSystem,
    MultiplierSolution,
    NeumannLambda,
    assemble,
    condition_number,
    dump_gram,
    factorize_and_solve,
)
from .config import ExperimentConfig, echo_config, parse_config
from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateDirectionError,
    DomainError,
    MassconsError,
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
    inject,
    l2_ip,
    midpoint_rule,
    objective,
    objective_full,
    observe,
    weighted_ip,
)
from .geometry import BoxDomain, FaceLabel, NodeSet, Topography, classify, grid_centers
from .kernel import KernelParams, grad_phi, hess_phi, lap_phi, phi
from .runner import REFERENCE_RESULTS, TableRow, run_experiment, sweep, write_reference_comparison

__version__ = "0.1.0"
