"""Unit tests for edit logs and publish semantics (Section 3.1)."""

import errno

import pytest

from repro.core.editlog import EditLog, Update, extend_logs, publish
from repro.schema import InternalSchema, PeerSchema, RelationSchema
from repro.storage import Database, ZSet


def fresh_db() -> Database:
    internal = InternalSchema(
        (PeerSchema("P", (RelationSchema("R", ("a",)),)),), ()
    )
    db = Database()
    internal.setup_database(db)
    return db


def signed(**weights: dict) -> dict[str, ZSet]:
    """``signed(R={(1,): 1})`` -> ``{"R": ZSet({(1,): 1})}``."""
    return {relation: ZSet(rows) for relation, rows in weights.items()}


class TestUpdate:
    def test_sign_and_repr(self):
        plus = Update("R", (1,), is_insert=True)
        minus = Update("R", (1,), is_insert=False)
        assert plus.sign == "+"
        assert minus.sign == "-"
        assert "R" in repr(plus)

    def test_row_normalized_to_tuple(self):
        update = Update("R", [1, 2][:1], is_insert=True)
        assert update.row == (1,)


class TestEditLog:
    def test_append_and_iterate(self):
        log = EditLog("P")
        log.insert("R", (1,))
        log.delete("R", (2,))
        assert len(log) == 2
        assert [u.sign for u in log] == ["+", "-"]

    def test_drain_consumes(self):
        log = EditLog("P")
        log.insert("R", (1,))
        entries = log.drain()
        assert len(entries) == 1
        assert len(log) == 0

    def test_observers_see_each_staged_batch(self):
        log = EditLog("P")
        seen = []
        log.observe(seen.append)
        log.insert("R", (1,))
        log.extend([Update("R", (2,), True), Update("R", (3,), False)])
        assert [len(batch) for batch in seen] == [1, 2]

    @pytest.mark.parametrize("stage", ["insert", "delete", "extend"])
    def test_failed_observer_stages_nothing(self, stage):
        """Observers are the write-ahead step: when one raises (a WAL
        append that hit a full disk), the edit must not be staged, or the
        next publish would apply an edit the WAL never saw."""
        log = EditLog("P")

        def disk_full(_entries):
            raise OSError(errno.ENOSPC, "No space left on device")

        log.observe(disk_full)
        with pytest.raises(OSError):
            if stage == "extend":
                log.extend(iter([Update("R", (1,), True)]))
            else:
                getattr(log, stage)("R", (1,))
        assert len(log) == 0

    def test_extend_logs_notifies_once_across_logs(self):
        """A multi-log stage is one unit: a shared observer sees every
        entry in one call, and when it raises no log stages anything."""
        first, second = EditLog("P"), EditLog("Q")
        seen = []
        for log in (first, second):
            log.observe(seen.append)
        entries = {
            first: [Update("R", (1,), True)],
            second: [Update("S", (2,), False), Update("S", (3,), True)],
        }
        assert extend_logs(entries) == 3
        assert [len(batch) for batch in seen] == [3]
        assert [len(first), len(second)] == [1, 2]

        def disk_full(_entries):
            raise OSError(errno.ENOSPC, "No space left on device")

        second.observe(disk_full)
        with pytest.raises(OSError):
            extend_logs(entries)
        assert [len(first), len(second)] == [1, 2]


class TestPublish:
    def test_simple_insert(self):
        db = fresh_db()
        log = EditLog("P")
        log.insert("R", (1,))
        assert publish(log, db) == (signed(R={(1,): 1}), {})
        assert len(log) == 0  # consumed

    def test_insert_then_delete_nets_to_nothing(self):
        db = fresh_db()
        log = EditLog("P")
        log.insert("R", (1,))
        log.delete("R", (1,))
        assert publish(log, db) == ({}, {})

    def test_delete_of_local_contribution(self):
        db = fresh_db()
        db["R__l"].insert((1,))
        log = EditLog("P")
        log.delete("R", (1,))
        assert publish(log, db) == (signed(R={(1,): -1}), {})

    def test_delete_of_imported_data_becomes_rejection(self):
        db = fresh_db()  # (1,) not in R__l: must have been imported
        log = EditLog("P")
        log.delete("R", (1,))
        assert publish(log, db) == ({}, signed(R={(1,): 1}))

    def test_reinsert_unrejects(self):
        db = fresh_db()
        db["R__r"].insert((1,))
        log = EditLog("P")
        log.insert("R", (1,))
        assert publish(log, db) == (
            signed(R={(1,): 1}),
            signed(R={(1,): -1}),
        )

    def test_delete_insert_delete_sequence(self):
        db = fresh_db()
        log = EditLog("P")
        log.delete("R", (1,))  # rejection
        log.insert("R", (1,))  # un-reject + local
        log.delete("R", (1,))  # delete the local contribution again
        # Final state: not local, not rejected -> empty net delta.
        assert publish(log, db) == ({}, {})

    def test_noop_reinsert_of_existing_local(self):
        db = fresh_db()
        db["R__l"].insert((1,))
        log = EditLog("P")
        log.insert("R", (1,))
        assert publish(log, db) == ({}, {})

    def test_mixed_log_folds_into_one_zset_per_table(self):
        db = fresh_db()
        db["R__l"].insert((5,))
        log = EditLog("P")
        log.insert("R", (1,))
        log.insert("R", (2,))
        log.delete("R", (5,))
        log.delete("R", (9,))
        assert publish(log, db) == (
            signed(R={(1,): 1, (2,): 1, (5,): -1}),
            signed(R={(9,): 1}),
        )
