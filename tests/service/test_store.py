"""ScheduleStore: two tiers, atomic persistence, near-miss scan."""

import numpy as np
import pytest

from repro.machine import MachineConfig
from repro.schedules import CommPattern, greedy_schedule, schedule_to_json
from repro.service import ScheduleStore, StoreEntry, derive_key


def make_entry(seed=3, staged=False, nprocs=8):
    pattern = CommPattern.synthetic(nprocs, 0.4, 512, seed=seed)
    key = derive_key(pattern, "greedy", MachineConfig(nprocs))
    serialized = schedule_to_json(greedy_schedule(pattern))
    return StoreEntry(
        key=key,
        pattern=pattern.matrix.copy(),
        order=None,
        serialized=serialized,
        staged=staged,
    )


class TestMemoryTier:
    def test_put_get_roundtrip(self):
        store = ScheduleStore()
        entry = make_entry()
        assert store.get(entry.key) is None
        store.put(entry)
        got = store.get(entry.key)
        assert got is not None
        assert got.serialized == entry.serialized
        assert len(store) == 1

    def test_clear(self):
        store = ScheduleStore()
        store.put(make_entry())
        store.clear()
        assert len(store) == 0


class TestDiskTier:
    def test_roundtrip_through_disk(self, tmp_path):
        store = ScheduleStore(tmp_path)
        entry = make_entry()
        store.put(entry)
        fresh = ScheduleStore(tmp_path)
        got = fresh.get(entry.key)
        assert got is not None
        assert got.serialized == entry.serialized
        np.testing.assert_array_equal(got.pattern, entry.pattern)
        assert got.key == entry.key

    def test_entry_file_named_by_digest(self, tmp_path):
        store = ScheduleStore(tmp_path)
        entry = make_entry()
        store.put(entry)
        assert (tmp_path / f"{entry.key.digest}.json").exists()

    def test_corrupt_file_quarantined_with_warning(self, tmp_path, capsys):
        store = ScheduleStore(tmp_path)
        store.put(make_entry())
        bad = tmp_path / ("0" * 64 + ".json")
        bad.write_text("{not json")
        fresh = ScheduleStore(tmp_path)
        assert len(fresh) == 1
        assert fresh.quarantined == 1
        assert "quarantined 1" in capsys.readouterr().err

    def test_renamed_file_quarantined(self, tmp_path, capsys):
        store = ScheduleStore(tmp_path)
        entry = make_entry()
        store.put(entry)
        # Forge: copy the valid entry under a different digest name.
        (tmp_path / ("f" * 64 + ".json")).write_text(entry.to_json())
        fresh = ScheduleStore(tmp_path)
        assert len(fresh) == 1
        assert fresh.quarantined == 1
        assert "quarantined 1" in capsys.readouterr().err

    def test_no_temp_litter_after_put(self, tmp_path):
        store = ScheduleStore(tmp_path)
        store.put(make_entry())
        assert not list(tmp_path.glob("*.tmp"))


class TestQuarantine:
    def test_corrupt_entries_move_to_corrupt_dir(self, tmp_path, capsys):
        store = ScheduleStore(tmp_path)
        store.put(make_entry())
        (tmp_path / ("0" * 64 + ".json")).write_text("{not json")
        fresh = ScheduleStore(tmp_path)
        capsys.readouterr()
        # The evidence survives, aside — never in the serving glob.
        qdir = tmp_path / "corrupt"
        assert [p.name for p in qdir.iterdir()] == ["0" * 64 + ".json"]
        assert not (tmp_path / ("0" * 64 + ".json")).exists()
        # A third start sees a clean directory: no re-warn, no recount.
        third = ScheduleStore(tmp_path)
        assert third.quarantined == 0
        assert len(third) == 1
        assert capsys.readouterr().err == ""

    def test_quarantine_counter_emitted(self, tmp_path, capsys):
        from repro import obs

        store = ScheduleStore(tmp_path)
        store.put(make_entry())
        (tmp_path / ("1" * 64 + ".json")).write_text("[]")
        (tmp_path / ("2" * 64 + ".json")).write_text("{not json")
        with obs.tracing() as tracer:
            fresh = ScheduleStore(tmp_path)
        capsys.readouterr()
        assert fresh.quarantined == 2
        counter = tracer.metrics.counters["service.store.quarantined"]
        assert counter.value == 2

    def test_quarantine_name_collisions_keep_both(self, tmp_path, capsys):
        store = ScheduleStore(tmp_path)
        store.put(make_entry())
        name = "3" * 64 + ".json"
        (tmp_path / name).write_text("{not json")
        ScheduleStore(tmp_path)
        (tmp_path / name).write_text("{not json either}")
        ScheduleStore(tmp_path)
        capsys.readouterr()
        qdir = tmp_path / "corrupt"
        assert sorted(p.name for p in qdir.iterdir()) == [name, f"{name}.1"]

    def test_torn_partial_write_is_invisible(self, tmp_path, capsys):
        """A crash mid-write leaves only a ``.tmp`` file, which must be
        neither served nor quarantined on the next start."""
        store = ScheduleStore(tmp_path)
        entry = make_entry()
        store.put(entry)
        # Simulate the torn write: a mkstemp-style temp file holding a
        # truncated prefix of a real entry (os.replace never ran).
        torn = tmp_path / f".{entry.key.digest[:12]}-abc123.tmp"
        torn.write_text(entry.to_json()[:37])
        fresh = ScheduleStore(tmp_path)
        assert len(fresh) == 1
        assert fresh.quarantined == 0
        assert torn.exists()  # left alone for crash forensics
        assert capsys.readouterr().err == ""

    def test_crashing_write_leaves_store_loadable(self, tmp_path, monkeypatch):
        """Kill the write between temp-file fill and os.replace: the
        final entry file must not exist and the reload must be clean."""
        import os as _os

        store = ScheduleStore(tmp_path)
        store.put(make_entry(seed=1))
        entry = make_entry(seed=2)
        real_replace = _os.replace

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr("repro.service.store.os.replace", exploding_replace)
        with pytest.raises(OSError):
            store.put(entry)
        monkeypatch.setattr("repro.service.store.os.replace", real_replace)
        assert not (tmp_path / f"{entry.key.digest}.json").exists()
        fresh = ScheduleStore(tmp_path)
        assert len(fresh) == 1
        assert fresh.quarantined == 0


class TestNearMisses:
    def test_finds_close_pattern(self):
        store = ScheduleStore()
        entry = make_entry()
        store.put(entry)
        m = entry.pattern.copy()
        i, j = next(zip(*np.nonzero(m)))
        m[i, j] *= 2
        drifted = CommPattern(m)
        key = derive_key(drifted, "greedy", MachineConfig(8))
        hits = store.near_misses(key, drifted, limit=4)
        assert len(hits) == 1
        dist, found = hits[0]
        assert dist == 1
        assert found.serialized == entry.serialized

    def test_respects_edit_limit(self):
        store = ScheduleStore()
        entry = make_entry()
        store.put(entry)
        m = entry.pattern.copy()
        cells = list(zip(*np.nonzero(m)))[:5]
        for i, j in cells:
            m[i, j] *= 2
        far = CommPattern(m)
        key = derive_key(far, "greedy", MachineConfig(8))
        assert store.near_misses(key, far, limit=4) == []
        assert len(store.near_misses(key, far, limit=5)) == 1

    def test_staged_entries_excluded(self):
        store = ScheduleStore()
        entry = make_entry(staged=True)
        store.put(entry)
        m = entry.pattern.copy()
        i, j = next(zip(*np.nonzero(m)))
        m[i, j] *= 2
        drifted = CommPattern(m)
        key = derive_key(drifted, "greedy", MachineConfig(8))
        assert store.near_misses(key, drifted, limit=4) == []

    def test_other_algorithm_bucket_not_scanned(self):
        store = ScheduleStore()
        entry = make_entry()
        store.put(entry)
        m = entry.pattern.copy()
        i, j = next(zip(*np.nonzero(m)))
        m[i, j] *= 2
        drifted = CommPattern(m)
        key = derive_key(drifted, "balanced", MachineConfig(8))
        assert store.near_misses(key, drifted, limit=4) == []

    def test_stacked_scan_matches_per_entry_loop(self):
        # One bucket of plain, staged and differently shaped entries
        # (a forged file can pair an 8-proc key with any matrix).
        rng = np.random.default_rng(5)
        base = make_entry(seed=3).pattern
        store = ScheduleStore()
        for i in range(24):
            m = base.copy()
            cells = rng.choice(56, size=i % 7, replace=False)
            off = np.flatnonzero(~np.eye(8, dtype=bool))[cells]
            m.flat[off] += 1 + i
            entry = make_entry(seed=100 + i, staged=i % 5 == 0)
            shape = (4, 4) if i % 6 == 1 else None
            pattern = m if shape is None else np.arange(16).reshape(shape)
            store.put(
                StoreEntry(
                    key=entry.key,
                    pattern=pattern,
                    order=None,
                    serialized=entry.serialized,
                    staged=entry.staged,
                )
            )

        def per_entry(key, pattern, limit):
            digests = store._buckets[store._bucket_key(key)]
            out = []
            for entry in (store._mem[d] for d in digests):
                if entry.staged or entry.pattern.shape != pattern.matrix.shape:
                    continue
                dist = int(np.count_nonzero(entry.pattern != pattern.matrix))
                if 1 <= dist <= limit:
                    out.append((dist, entry))
            out.sort(key=lambda de: (de[0], de[1].key.digest))
            return out

        key = make_entry(seed=3).key
        small = np.arange(16).reshape(4, 4)
        small[0, 1] = 7
        np.fill_diagonal(small, 0)
        for pattern in (CommPattern(base), CommPattern(small)):
            for limit in (0, 1, 3, 6, 100):
                got = store.near_misses(key, pattern, limit)
                want = per_entry(key, pattern, limit)
                assert [(d, e.key.digest) for d, e in got] == [
                    (d, e.key.digest) for d, e in want
                ]
                assert all(a is b for (_, a), (_, b) in zip(got, want))
        assert len(store.near_misses(key, CommPattern(base), 100)) > 5
        assert store.near_misses(key, CommPattern(small), 100)


class TestEntryJson:
    def test_roundtrip(self):
        entry = make_entry()
        back = StoreEntry.from_json(entry.to_json())
        assert back.key == entry.key
        np.testing.assert_array_equal(back.pattern, entry.pattern)
        assert back.serialized == entry.serialized
        assert back.staged == entry.staged

    def test_rejects_alien_document(self):
        with pytest.raises(ValueError):
            StoreEntry.from_json('{"format": "something-else"}')

    def test_rejects_future_version(self):
        entry = make_entry()
        doc = entry.to_json().replace('"version":1', '"version":99', 1)
        with pytest.raises(ValueError):
            StoreEntry.from_json(doc)
