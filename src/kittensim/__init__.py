"""Simulation and tomography toolkit for photon-subtracted squeezed light.

Covers the full experiment chain: Fock-space state construction, loss and
phase-noise channels, homodyne sampling, temporal-mode extraction from time
traces, maximum-likelihood reconstruction, and squeezing-spectrum fitting.
Conventions: hbar = 1, x = (a + a†)/√2, vacuum quadrature variance 1/2.
"""

from .errors import KittenError, NumericsError, ValidationError
from .fock import (
    FockDensityMatrix,
    GaussianStateSpec,
    best_cat_fidelity,
    cat_fidelity,
    cat_state,
    db_from_variance,
    density_matrix_from_json,
    density_matrix_to_json,
    fidelity,
    fock_wavefunctions,
    gaussian_state,
    load_density_matrix,
    loss_adjoint,
    loss_channel,
    phase_diffusion,
    photon_subtract,
    save_density_matrix,
    state_fidelity,
    variance_from_db,
    wigner,
    wigner_origin,
)
from .quadrature import (
    QuadratureDataset,
    dataset_from_angle_blocks,
    draw_homodyne,
    homodyne_cdfs,
    load_samples_csv,
    marginal_pdf,
    marginal_variance,
    sample_homodyne,
    sample_quadratures,
    save_samples_csv,
)
from .temporal import (
    ModeFunction,
    TimeTrace,
    build_mode,
    extract_ensemble,
    extract_quadrature,
    load_trace_csv,
    load_trace_dir,
    mode_function_eval,
    mode_variance_from_spectrum,
    periodogram,
    principal_mode,
    save_trace_csv,
    shot_noise_scale,
    synthesize_gaussian_traces,
)
from .spectrum import (
    FitResult,
    SpectrumData,
    SpectrumModelParams,
    dephased_variance,
    fit_report_json,
    joint_fit,
    load_spectrum_csv,
    model_spectrum,
    save_clearance_csv,
    save_spectrum_csv,
    spectral_variances,
)
from .tomography import (
    BinnedData,
    BootstrapResult,
    ReconstructionConfig,
    ReconstructionResult,
    bin_dataset,
    bootstrap_metric,
    build_povm_stack,
    mle_reconstruct,
    reconstruct_with_angles,
)
from .pipeline import (
    ChannelSection,
    DetectionSection,
    ExperimentConfig,
    OutputsSection,
    PipelineRun,
    ReconstructionSection,
    RunReport,
    SamplingSection,
    StateSection,
    apply_link,
    load_config,
    run_pipeline,
    save_config,
    simulate_source_state,
    verify_run_dir,
)

__version__ = "0.1.0"
