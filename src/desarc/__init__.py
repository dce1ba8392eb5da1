"""desarc: exact projective geometry over GF(q).

Constructs and verifies simplexes in perspective in every dimension: arc
sections, the vertex/axis correspondence, lifting back to arcs, configuration
self-replication, and exhaustive desk-scale enumeration.
"""

from . import errors
from .arcs import (
    Arc,
    face,
    frame_off_hyperplane,
    is_arc,
    is_simplex,
    random_arc_off_hyperplane,
)
from .configuration import (
    SemiSimplexPair,
    SweepReport,
    replicate,
    replication_trace,
    semi_partition_identity,
    substructure_counts,
    triple_perspective_axis,
    verify_symbol_incidence,
    verify_vertex_partition,
    vertex_partition_identity,
    vertex_sweep,
)
from .desargues import (
    LabeledConfiguration,
    PerspectivePair,
    axis_hyperplane,
    conway_lift_axis,
    edge_intersections,
    extract_perspective_pair,
    find_vertex,
    lift_to_arc,
    random_perspective_pair,
    random_sectioned_config,
    section_arc,
    sectioned_config,
    tspace_intersections,
)
from .enumeration import (
    EnumJob,
    EnumResult,
    count_arcs,
    count_frames,
    pgl_order,
    run_job,
)
from .field import GF
from .projlin import (
    ProjPoint,
    Subspace,
    all_points,
    coordinate_hyperplane,
    coords_in,
    hyperplane_from_dual,
    join,
    meet,
    normalize,
    point_from,
    subspace_in,
)

__version__ = "0.1.0"
