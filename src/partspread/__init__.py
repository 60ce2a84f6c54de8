"""Desk-scale toolkit for intersecting families of set partitions.

Exact enumeration and counting of set partitions, their two set encodings,
spreadness analysis and the spread-approximation peeling procedure, exact
extremal oracles, and conservative numeric verification of the quantitative
counting bounds behind them.
"""

from .errors import DomainError, IntegrityError, PreconditionError, ResourceLimitError
from .exact import ExactPow
from .partitions import (
    Partition,
    Profile,
    bell,
    count_derangements,
    count_profiled,
    enumerate_into_blocks,
    enumerate_partitions,
    enumerate_profiled,
    iter_partitions,
    partially_t_intersect,
    stirling2,
    t_intersect,
    tilde_bell,
    u_count,
)
from .setfam import (
    EdgesUniverse,
    ElementSet,
    PartsUniverse,
    PlainUniverse,
    SetFamily,
    avoid,
    covering_number,
    family_from_text,
    family_to_text,
    restrict,
    star_count,
    stars,
)
from .encoding import (
    count_extensions,
    encode_edges,
    encode_family_edges,
    encode_family_parts,
    encode_parts,
)
from .spread import (
    SpreadReport,
    find_max_violating,
    find_spread_subfamily,
    find_sunflower,
    is_r_spread,
    spread_factor,
    weak_spread,
)
from .approx import (
    ApproxResult,
    check_dominance,
    minimize_t_intersecting,
    reduction_sequence,
    spread_approximate,
    verify_approx,
)
from .extremal import (
    OracleResult,
    canonical_family,
    check_conjecture_instance,
    max_compatible_family,
)
from .verify import (
    check_bell_ratio,
    check_dobinski,
    check_encoded_spreadness,
    check_no_singleton_bound,
    check_nonintersect_count,
    check_stirling_growth,
    check_random_containment,
    containment_closed_form,
)

__version__ = "0.1.0"
