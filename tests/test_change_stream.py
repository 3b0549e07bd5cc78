"""The change log's floor: the oldest cursor the log answers in full.

A cursor below the floor — trimmed away by retention, or from before a
restart — must be told to resynchronize, never handed a partial tail as
if nothing had been lost in between.
"""

import pytest

from repro import CDSS
from repro.core import exchange
from repro.core.exchange import ExchangeError


def chain_cdss() -> CDSS:
    cdss = CDSS("floor")
    cdss.add_peer("P", {"R": ("a",)})
    cdss.add_peer("Q", {"S": ("a",)})
    cdss.add_mapping("m", "R(a) -> S(a)")
    return cdss


def publish_rows(cdss: CDSS, rows) -> None:
    for row in rows:
        cdss.peer("P").insert("R", (row,))
        cdss.update_exchange()


def test_a_fresh_log_answers_every_cursor():
    cdss = chain_cdss()
    system = cdss.system()
    system.subscribe()
    publish_rows(cdss, [1, 2])
    assert system.floor == 0
    version, batches = system.changes_since(0)
    assert version == 2
    assert [batch.version for batch in batches] == [1, 2]


def test_retention_raises_the_floor(monkeypatch):
    monkeypatch.setattr(exchange, "CHANGELOG_RETENTION", 1)
    cdss = chain_cdss()
    system = cdss.system()
    system.subscribe()
    publish_rows(cdss, [1, 2, 3])
    assert system.floor == 2
    assert system.changes_since(0) == (3, None)
    assert system.changes_since(1) == (3, None)
    version, batches = system.changes_since(2)
    assert [batch.version for batch in batches] == [3]
    assert (3,) in batches[0].changes["S"].positive()


def test_subscription_behind_the_floor_refuses_to_poll(monkeypatch):
    monkeypatch.setattr(exchange, "CHANGELOG_RETENTION", 1)
    cdss = chain_cdss()
    subscription = cdss.system().subscribe()
    publish_rows(cdss, [1])
    assert [batch.version for batch in subscription.poll()] == [1]
    publish_rows(cdss, [2, 3])
    with pytest.raises(ExchangeError, match="floor"):
        subscription.poll()
    assert subscription.cursor == 1


def test_restore_version_raises_the_floor():
    system = chain_cdss().system()
    system.restore_version(7)
    assert system.version == system.floor == 7
    assert system.changes_since(6) == (7, None)
    assert system.changes_since(7) == (7, [])
    with pytest.raises(ValueError):
        system.restore_version(6)
