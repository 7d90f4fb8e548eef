"""Fixtures shared by every test module."""

import pytest

from sitelink import runner


@pytest.fixture(autouse=True)
def _no_schedule_record(monkeypatch):
    """Start every test with an empty schedule record, so that a record an
    earlier test left behind cannot turn a full run into a reused one."""
    monkeypatch.setattr(runner, "_schedule", None)
