"""Fresnel-domain channel estimation for OCDM radar, MIMO radar, and RadCom."""

from .analysis import (
    PaprCcdf,
    RangeCutMetrics,
    SweepResult,
    doppler_tolerance_sweep,
    papr_ccdf,
    range_cut_metrics,
)
from .channel import (
    CommChannelConfig,
    RadarChannelConfig,
    Target,
    apply_comm_channel,
    apply_radar_channel,
    normalize_target,
)
from .comms import (
    CommReport,
    data_rate_comb_pilot,
    data_rate_radcom,
    equalize_and_extract,
    estimate_comm_cfr,
    evm_and_snr,
    ofdm_demodulate,
    ofdm_grid,
    ofdm_modulate,
    ofdm_radar_process,
)
from .framing import (
    C0,
    MimoConfig,
    RadComFrameSpec,
    WaveformParams,
    build_mimo_pilot_frame,
    build_pilot_frame,
    build_radcom_frame,
    from_stream,
    qpsk_demap,
    qpsk_map,
    to_stream,
)
from .fresnel import (
    dfnt_direct,
    dfnt_fast,
    dirichlet_kernel,
    gamma_vector,
    idfnt_direct,
    idfnt_fast,
    phase_fold_correct,
)
from .rxproc import (
    PeakReport,
    RadarParams,
    RangeVelocityImage,
    compute_radar_params,
    doppler_process,
    estimate_peak,
    mimo_demux,
    radcom_extract_cir,
    receive_frame,
)

__version__ = "0.1.0"
