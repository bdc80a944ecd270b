"""Transient adjoint sensitivities for MNA circuit models, accelerated with
parallel-in-time (parareal) solves of the backward problems."""

from .netlist import (Netlist, Element, Parameter, NetlistError,
                      parse_netlist, serialize_netlist, builtin_circuit)
from .mna import DofMap, StampedSystem, assign_dofs, stamp_linear, assemble
from .transient import TimeGrid, Trajectory, SolverError, dc_operating_point, integrate
from .adjoint import (Qoi, AdjointSolution, SensitivitySeries, solve_adjoint,
                      pointwise_sensitivity, interval_sensitivity,
                      sensitivity_series, finite_difference_oracle,
                      finite_difference_series, mu_finite_difference, qoi_values)
from .parareal import (Propagator, PararealConfig, PararealReport, partition,
                       jump_norm, parareal_solve)
from .propagators import parareal_integrate, parareal_adjoint_solve
from .spectral import (PowerSpectrum, welch_psd, rank_parameters,
                       normalize_relative, ranking_to_json)
from .cli import speedup, efficiency, BenchRecord, run_bench, main

__version__ = "0.1.0"
