import pytest


def pytest_collection_modifyitems(items):
    """The golden digests are pinned bit for bit, as `bitwise` says."""
    for item in items:
        if item.path.name == "test_golden.py":
            item.add_marker(pytest.mark.bitwise)
