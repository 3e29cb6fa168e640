"""Billiards in axis-parallel polygons: exact tables, directional flows,
tile-average spectral diagnostics, and experiment drivers."""

__version__ = "0.1.0"

from .errors import BilliardError  # noqa: E402
from .geometry import (  # noqa: E402
    CombinatoricsWord,
    PointLocation,
    TilingCertificate,
    VHPolygon,
    VHTable,
    approximate_pq,
    build_polygon,
    build_table,
    contains_point,
    lshape,
    load_table,
    parse_word,
    save_table,
    table_hash,
    tiling_parameters,
    unit_square,
)
from .dynamics import (  # noqa: E402
    DirectionState,
    FlowBatch,
    OrbitSegmentList,
    PhasePoint,
    UnfoldedFrame,
    flow,
    next_event,
    orbit,
    unfold_position,
)
from .spectral import (  # noqa: E402
    CorrelationSeries,
    Observable,
    QuadratureGrid,
    SampledObservable,
    basis_function,
    build_grid,
    chi,
    continuous_part,
    correlation,
    correlation_chain_check,
    inner,
    oscillation_bound_check,
    tile_average,
)
from .lab import (  # noqa: E402
    ExperimentConfig,
    ThetaSetEstimate,
    continuity_probe,
    gdelta_demo,
    random_table,
    theta_sweep,
)

__all__ = [
    "__version__",
    "BilliardError",
    "CombinatoricsWord", "PointLocation", "TilingCertificate", "VHPolygon",
    "VHTable", "approximate_pq", "build_polygon", "build_table",
    "contains_point", "lshape", "load_table", "parse_word", "save_table",
    "table_hash", "tiling_parameters", "unit_square",
    "DirectionState", "FlowBatch", "OrbitSegmentList", "PhasePoint",
    "UnfoldedFrame", "flow", "next_event", "orbit", "unfold_position",
    "CorrelationSeries", "Observable", "QuadratureGrid", "SampledObservable",
    "basis_function", "build_grid", "chi", "continuous_part",
    "correlation", "correlation_chain_check", "inner",
    "oscillation_bound_check", "tile_average",
    "ExperimentConfig", "ThetaSetEstimate", "continuity_probe", "gdelta_demo",
    "random_table", "theta_sweep",
]
