import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from partspread.partitions import Profile, enumerate_profiled
from partspread.setfam import ElementSet, PlainUniverse, SetFamily


def ksubsets_family(n: int, k: int) -> SetFamily:
    """All k-subsets of {0..n-1} over a plain universe."""
    u = PlainUniverse(n)
    return SetFamily(u, [sum(1 << i for i in c) for c in combinations(range(n), k)])


def family_of(n: int, *index_sets) -> SetFamily:
    u = PlainUniverse(n)
    return SetFamily(u, [sum(1 << i for i in s) for s in index_sets])


def element_set(f: SetFamily, indices) -> ElementSet:
    """The set of the given element indices over f's universe."""
    return ElementSet.from_indices(f.universe, indices)


def enumerate_uniform(k: int, l: int) -> list:
    """All partitions of [k*l] into l blocks of size k."""
    return enumerate_profiled(Profile.uniform(k, l))


def has_singleton(p) -> bool:
    """Some block of the partition p has one element."""
    return any(len(b) == 1 for b in p.blocks)


def select(records, name: str, **params) -> list:
    """The records called `name` whose params include every given key=value."""
    want = {f"{k}={v}" for k, v in params.items()}
    return [r for r in records if r.name == name and want <= set(r.params.split(","))]


@pytest.fixture(scope="session")
def b4_encoded():
    from partspread.encoding import encode_family_parts
    from partspread.partitions import enumerate_partitions

    return encode_family_parts(enumerate_partitions(4))


@pytest.fixture(scope="session")
def b5_encoded():
    from partspread.encoding import encode_family_parts
    from partspread.partitions import enumerate_partitions

    return encode_family_parts(enumerate_partitions(5))


@pytest.fixture(scope="session")
def b6_encoded():
    from partspread.encoding import encode_family_parts
    from partspread.partitions import enumerate_partitions

    return encode_family_parts(enumerate_partitions(6))
