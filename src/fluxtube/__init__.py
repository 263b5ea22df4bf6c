"""Landau levels pierced by a singular magnetic flux tube.

A spin-1/2 charged particle in two dimensions, in a uniform magnetic field
plus an idealized flux tube through the origin, solved in closed form:
exact spectra and radial eigenfunctions, the supersymmetric pairing between
the spin components, and a finite-radius shell model of the tube whose
spectrum collapses onto the idealized one as the shell shrinks.

Magnetic units throughout: lengths in lambda = sqrt(2 hbar / |e| B),
energies in hbar omega with omega = |e| B / M.
"""

from .spectrum import (
    FluxConfig,
    StateLabel,
    EigenState,
    energy_regular,
    enumerate_states,
    vacancy_line_compare,
    magnetic_units,
)
from .wavefunction import (
    RAISE,
    LOWER,
    RadialProfile,
    psi_regular,
    psi_zero_mode,
    apply_supercharge,
    inner_product,
    hamiltonian_residual,
)
from .regularization import (
    TubeModel,
    MatchResult,
    inside_solution,
    outside_solution,
    find_xi_roots,
    xi_limit_table,
)
from .oracle import ShootingProblem, shoot, oracle_eigenvalues

__version__ = "0.1.0"

__all__ = [
    "FluxConfig",
    "StateLabel",
    "EigenState",
    "energy_regular",
    "enumerate_states",
    "vacancy_line_compare",
    "magnetic_units",
    "RAISE",
    "LOWER",
    "RadialProfile",
    "psi_regular",
    "psi_zero_mode",
    "apply_supercharge",
    "inner_product",
    "hamiltonian_residual",
    "TubeModel",
    "MatchResult",
    "inside_solution",
    "outside_solution",
    "find_xi_roots",
    "xi_limit_table",
    "ShootingProblem",
    "shoot",
    "oracle_eigenvalues",
    "__version__",
]
