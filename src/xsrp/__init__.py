"""Modular steered-response-power (SRP) sound source localization.

Submodules mirror the processing chain: geometry -> synth ->
features -> grids -> srp_core -> search -> multisource -> tracking,
composed by pipeline and exposed on the command line by cli.
"""

__version__ = "0.1.0"

from .features import (
    FrameConfig,
    GccConfig,
    LagBlock,
    LagVector,
    SpectralBlock,
    SpectralGcc,
    analysis_band,
    compute_lag_vectors,
    compute_spectral_gccs,
    frame_blocks,
    frame_stack,
    lag_block,
    temporal_gcc,
)
from .geometry import (
    MicArray,
    MicPair,
    SphericalDirection,
    max_tdoa,
    tdoa,
    tdoa_far_field,
    tof,
)
from .grids import (
    CandidateGrid,
    Volume,
    VolumeGrid,
    cartesian_grid,
    doa_grid,
    partition_room,
    sample_boundary,
    subdivide,
)
from .multisource import EstimateSet, MultiConfig, deemphasize, localize_multi
from .pipeline import (
    ConfigError,
    FeatureSpec,
    GridSpec,
    MapSpec,
    PipelineConfig,
    Plan,
    config_from_dict,
    config_to_dict,
    prepare,
    validate_config,
    x_srp,
)
from .search import (
    SearchConfig,
    SearchResult,
    argmax_search,
    refine_search,
    src_search,
)
from .srp_core import (
    SrpMap,
    TdoaBounds,
    WsrpConfig,
    counter,
    srp_freq_map,
    srp_time_map,
    tdoa_bounds,
    vsrp_map,
    wsrp_map,
)
from .synth import (
    SceneSpec,
    Source,
    add_noise,
    pink_noise,
    synthesize_free_field,
    white_noise,
)
from .tracking import (
    LangevinParams,
    TrackerConfig,
    TrackerState,
    init_state,
    predict,
    resample,
    track,
    update_weights,
)
