import os

import pytest

from fullgraph import oracle

RUN_SLOW = os.environ.get("FULLGRAPH_RUN_SLOW", "") not in ("", "0")


def pytest_collection_modifyitems(config, items):
    if RUN_SLOW:
        return
    skip = pytest.mark.skip(reason="set FULLGRAPH_RUN_SLOW=1 to run the long suite")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def empty_scan_memo(monkeypatch):
    """Start every test from an empty ``oracle._SCANS``.

    The memo lasts the whole process, so without this a test that stubs the
    scan, or counts the hosts it checks, could be served orders an earlier
    test scanned and prove nothing.
    """
    monkeypatch.setattr(oracle, "_SCANS", {})
