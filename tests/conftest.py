import os

import pytest

RUN_SLOW = os.environ.get("FULLGRAPH_RUN_SLOW", "") not in ("", "0")


def pytest_collection_modifyitems(config, items):
    if RUN_SLOW:
        return
    skip = pytest.mark.skip(reason="set FULLGRAPH_RUN_SLOW=1 to run the long suite")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
