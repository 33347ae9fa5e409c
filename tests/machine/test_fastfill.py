"""The kernel loader's build cache keys on how the object was built."""

from repro.machine import _fastfill


def test_cache_path_depends_on_the_flags(monkeypatch):
    base = _fastfill._so_path("/usr/bin/cc")
    monkeypatch.setattr(
        _fastfill, "_CFLAGS", [f for f in _fastfill._CFLAGS if f != "-ffp-contract=off"]
    )
    changed = _fastfill._so_path("/usr/bin/cc")
    assert changed != base
    assert changed.parent == base.parent


def test_cache_path_depends_on_the_compiler():
    assert _fastfill._so_path("/usr/bin/cc") != _fastfill._so_path("/usr/bin/clang")


def test_cache_path_is_stable():
    assert _fastfill._so_path("/usr/bin/cc") == _fastfill._so_path("/usr/bin/cc")
