"""Resource guards for exhaustive searches.

All guards are module-level constants so that desk-scale runs stay within
minutes.  Every guarded operation accepts an explicit override, and the CLI
exposes each of them as a ``--guard-<name>`` flag.
"""

# enumerate_partitions: largest n whose Bell number we are willing to walk
# (B_13 is about 2.7e7).
ENUM_MAX_N = 13

# enumerate_profiled: largest family we materialize.
PROFILED_ENUM_MAX = 10**7

# every spreadness scan (spread_factor, weak_spread, is_r_spread and the
# reduction/dominance checks): total candidate restriction sets counted.
SPREAD_CANDIDATE_MAX = 10**7

# find_sunflower: family size cap.
SUNFLOWER_FAMILY_MAX = 10**5

# max_compatible_family: vertex cap for the exact clique search.
CLIQUE_VERTEX_MAX = 3000

# covering_number: either the universe is at most this many elements ...
COVER_UNIVERSE_MAX = 64
# ... or the family has at most this many members.
COVER_FAMILY_MAX = 10**4

# reduction_sequence property (iii): subfamily/restriction pairs scanned
# before the check is reported as skipped.
SUBFAMILY_SCAN_MAX = 10**6

# number of maximum cliques enumerated when checking extremal uniqueness.
CLIQUE_UNIQUE_MAX = 10**4


def effective(override, default):
    """Pick the override when given, the module default otherwise."""
    return default if override is None else override
