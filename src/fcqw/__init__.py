"""Floquet chiral quantum walk toolkit.

A numpy/scipy library for simulating the discrete-step chiral walk and
its non-chiral XY-chain counterpart: exact statevector circuits,
single-particle Floquet diagnostics (winding number, quasi-energy
spectra, effective Hamiltonian), Monte-Carlo Pauli noise with shot-count
post-processing, and a config-driven experiment harness.
"""

__version__ = "0.1.0"

from .circuits import (
    BOX_SITES,
    Circuit,
    PotentialProfile,
    TrotterConfig,
    build_fcqw_step,
    build_fcqw_walk,
    build_hopping_ladder,
    build_onsite_layer,
    build_xy_trotter,
    lower_swaps,
    simulate,
)
from .floquet import (
    BranchCutError,
    DisorderEnsemble,
    GridResolutionError,
    LevelSpacingStats,
    QuasiEnergySpectrum,
    SingleParticleOperator,
    chiral_momentum_family,
    effective_hamiltonian,
    fcqw_step_operator,
    level_spacing_stats,
    predicted_chiral_eigenphases,
    quasi_energy_phases,
    quasi_energy_spectrum,
    reduce_to_single_particle,
    sample_disorder_profiles,
    shift_matrix,
    winding_number,
    xy_chain_hamiltonian,
    xy_momentum_family,
    xy_step_operator,
    xy_step_phases,
)
from .noise import NoiseSpec, ShotResult, amplitude_decay_sweep, run_noisy
from .observables import (
    SiteDistribution,
    ipr,
    peak_amplitude,
    post_process,
    restricted_site_density_counts,
    site_density_counts,
    site_density_exact,
)
from .qasm import emit_qasm3
from .statevec import (
    GateInstruction,
    StateVector,
    apply_gate,
    basis_state,
    cnot,
    gate_matrix,
    h,
    hy,
    rz,
    swap,
    swap_as_cnots,
)

__all__ = [name for name in dir() if not name.startswith("_")]
