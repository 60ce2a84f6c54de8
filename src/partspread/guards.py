"""Resource guards for exhaustive searches.

The guards keep desk-scale runs within minutes.  They live in one frozen
`Limits` value: every guarded operation reads `current()`, and
`with limited(field=value):` puts changed limits in force for the block
only (a scoped context, like `decimal.localcontext`).  Every refusal goes
through `require`, before the work it guards starts.  The CLI exposes
every limit except `clique_unique_max` as a ``--guard-<name>`` flag.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

from .errors import ResourceLimitError


@dataclass(frozen=True)
class Limits:
    # enumerate_partitions: largest n whose Bell number we are willing to walk
    # (B_13 is about 2.7e7).
    enum_max_n: int = 13
    # enumerate_profiled: largest family we materialize.
    profiled_enum_max: int = 10**7
    # every spreadness scan (spread_factor, weak_spread, is_r_spread,
    # find_spread_subfamily and the reduction/dominance checks): candidate
    # restriction sets, the sum of 2^|A| over members A.
    spread_candidate_max: int = 10**7
    # find_sunflower: family size cap.
    sunflower_family_max: int = 10**5
    # max_compatible_family: vertex cap for the exact clique search.
    clique_vertex_max: int = 3000
    # covering_number: either the universe is at most this many elements ...
    cover_universe_max: int = 64
    # ... or the family has at most this many members.
    cover_family_max: int = 10**4
    # reduction_sequence property (iii): subfamily/restriction pairs scanned
    # before the check is reported as skipped.
    subfamily_scan_max: int = 10**6
    # number of maximum cliques enumerated when checking extremal uniqueness.
    clique_unique_max: int = 10**4


_current: ContextVar[Limits] = ContextVar("partspread_limits", default=Limits())


def current() -> Limits:
    """The limits in force."""
    return _current.get()


@contextmanager
def limited(**changes):
    """Put current() with `changes` replaced in force for a with-block.

    An unknown field name raises TypeError.
    """
    token = _current.set(replace(current(), **changes))
    try:
        yield _current.get()
    finally:
        _current.reset(token)


def require(field: str, used: int, what: str) -> None:
    """Refuse work of size `used` above the `field` limit in force.

    The one place a ResourceLimitError is built; its message reads
    ``<FIELD>: <what>=<used> exceeds the guard <limit>``.  A `used` of more
    than 4096 bits reads ``<what>>=2^<bits - 1>``: decimal conversion is
    quadratic in the digits, and a caught refusal pays for it too.
    """
    limit = getattr(current(), field)
    if used > limit:
        bits = used.bit_length()
        shown = f"={used}" if bits <= 4096 else f">=2^{bits - 1}"
        raise ResourceLimitError(f"{field.upper()}: {what}{shown} exceeds the guard {limit}")
