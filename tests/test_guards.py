import dataclasses

import pytest

from conftest import enumerate_uniform, family_of
from partspread import guards
from partspread.cli import GUARD_FLAGS, main
from partspread.errors import ResourceLimitError
from partspread.extremal import check_conjecture_instance, max_compatible_family
from partspread.partitions import Profile, enumerate_profiled, iter_partitions
from partspread.setfam import PlainUniverse, SetFamily, covering_number
from partspread.spread import candidate_counts, find_sunflower


def test_limited_restores_after_exit_and_exception():
    before = guards.current()
    with guards.limited(enum_max_n=5) as inside:
        assert guards.current() is inside and inside.enum_max_n == 5
    assert guards.current() == before
    with pytest.raises(RuntimeError):
        with guards.limited(enum_max_n=5):
            raise RuntimeError
    assert guards.current() == before == guards.Limits()


def test_limited_blocks_nest():
    with guards.limited(enum_max_n=5, cover_family_max=7):
        with guards.limited(enum_max_n=6):
            assert guards.current() == guards.Limits(enum_max_n=6, cover_family_max=7)
        assert guards.current() == guards.Limits(enum_max_n=5, cover_family_max=7)
    assert guards.current() == guards.Limits()


def test_limited_rejects_unknown_names():
    with pytest.raises(TypeError):
        with guards.limited(enum_max=5):
            pass
    assert guards.current() == guards.Limits()


def test_cli_guard_flags_are_limits_fields():
    fields = {f.name for f in dataclasses.fields(guards.Limits)}
    assert set(GUARD_FLAGS.values()) <= fields
    assert len(set(GUARD_FLAGS.values())) == len(GUARD_FLAGS)


def test_cli_leaves_default_limits(capsys):
    code = main(["spread", "factor", "--family", "bell:4", "--guard-spread", "10"])
    assert code == 2 and "SPREAD_CANDIDATE_MAX" in capsys.readouterr().err
    assert guards.current() == guards.Limits()
    assert main(["spread", "factor", "--family", "bell:4", "--guard-spread", "1000"]) == 0
    assert guards.current() == guards.Limits()


STAR = family_of(4, {0, 1}, {0, 2}, {0, 3})


@pytest.mark.parametrize(
    "field, small, run",
    [
        pytest.param("enum_max_n", 5, lambda: next(iter_partitions(6)), id="enum"),
        pytest.param(
            "profiled_enum_max", 14, lambda: enumerate_profiled(Profile.uniform(2, 3)),
            id="profiled",
        ),
        pytest.param("spread_candidate_max", 11, lambda: candidate_counts(STAR), id="spread"),
        pytest.param("sunflower_family_max", 2, lambda: find_sunflower(STAR, 2), id="sunflower"),
        pytest.param(
            "clique_vertex_max", 14,
            lambda: max_compatible_family(enumerate_uniform(2, 3), "t-intersect", 1),
            id="clique",
        ),
        pytest.param(
            "clique_vertex_max", 14, lambda: check_conjecture_instance(2, 3, 2),
            id="conjecture",
        ),
        # a universe above the default cover_universe_max of 64
        pytest.param(
            "cover_family_max", 2,
            lambda: covering_number(SetFamily(PlainUniverse(100), [1 << i for i in range(3)])),
            id="cover",
        ),
    ],
)
def test_refusal_names_its_field(field, small, run):
    with guards.limited(**{field: small}):
        with pytest.raises(ResourceLimitError) as info:
            run()
    assert str(info.value).startswith(f"{field.upper()}: ")
    assert str(info.value).endswith(f" exceeds the guard {small}")


def test_require_refuses_only_above_the_limit():
    with guards.limited(spread_candidate_max=12):
        guards.require("spread_candidate_max", 12, "candidate sets")
        with pytest.raises(ResourceLimitError, match="^SPREAD_CANDIDATE_MAX: candidate sets=13 "):
            guards.require("spread_candidate_max", 13, "candidate sets")
    # a count of more than 4096 bits is shown by its bit length, not in decimal
    with pytest.raises(ResourceLimitError, match=f"candidate sets={2**4096 - 1} "):
        guards.require("spread_candidate_max", 2**4096 - 1, "candidate sets")
    with pytest.raises(ResourceLimitError, match=r"candidate sets>=2\^4096 "):
        guards.require("spread_candidate_max", 2**4096, "candidate sets")
