import dataclasses

import pytest

from partspread import guards
from partspread.cli import GUARD_FLAGS, main


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
