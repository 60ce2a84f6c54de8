import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from partspread.errors import DomainError
from partspread.partitions import Partition, Profile, enumerate_profiled
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


class SubPartition:
    """Disjoint blocks of size >= 2; the weight is sum(|X_i| - 1)."""

    def __init__(self, blocks):
        blocks = [tuple(sorted(b)) for b in blocks]
        seen: set[int] = set()
        total = 0
        for b in blocks:
            if len(b) < 2:
                raise DomainError("subpartition blocks must have size >= 2")
            total += len(b)
            seen.update(b)
        if len(seen) != total:
            raise DomainError("subpartition blocks are not disjoint")
        blocks.sort(key=lambda b: b[0])
        self.blocks = tuple(blocks)

    @property
    def weight(self) -> int:
        return sum(len(b) - 1 for b in self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


def decode_parts(es: ElementSet) -> Partition:
    """The partition whose blocks are the parts a parts-universe set holds."""
    u = es.universe
    if u.kind != "parts":
        raise DomainError("decode_parts needs a parts-universe set")
    return Partition([sorted(u.part_at(i)) for i in es.indices()], n=u.n)


def edges_to_subpartition(es: ElementSet) -> SubPartition:
    """Blocks are the >=2-vertex connected components of the edge set, by union-find."""
    u = es.universe
    if u.kind != "edges":
        raise DomainError("edges_to_subpartition needs an edge-universe set")
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for idx in es.indices():
        i, j = u.pair_at(idx)
        parent.setdefault(i, i)
        parent.setdefault(j, j)
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    comps: dict[int, list[int]] = {}
    for v in parent:
        comps.setdefault(find(v), []).append(v)
    return SubPartition([c for c in comps.values() if len(c) >= 2])


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
