"""Galerkin approximation of invariance PDEs and moment-matching ROMs."""

from .basis import Basis, basis_count, eval_basis, eval_basis_gradient, generate_basis
from .quadrature import BoxDomain, QuadratureRule, gauss_legendre_1d, monomial_integral_exact, tensor_rule
from .problems import (
    FullOrderSystem,
    Problem,
    SignalGenerator,
    check_assumptions,
    generator_from_tables,
    linearize,
    make_cart_pendulum,
    make_linear_oscillator,
    make_rl_ladder,
    make_rl_linear,
    make_rl_vdp,
    make_test1,
    make_van_der_pol,
    system_from_tables,
)
from .assembly import GalerkinOperators, assemble_operators, jacobian_JF, residual_F
from .newton import SolverOptions, Solution, newton_step, solve_invariance
from .rom import (ReducedOrderModel, build_rom, default_gain, reduced_dynamics, stabilizing_gain,
                  verify_rom_stability)
from .simulate import Trajectory, rom_trajectory, simulate_fom, simulate_rom, steady_state_rms
from .residuals import ResidualReport, residual_at, residual_norm

__version__ = "0.1.0"
