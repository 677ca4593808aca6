"""Every test of ``test_acceptance.py`` carries the ``acceptance`` marker, so
``pytest -m "not acceptance"`` runs the unit and property tests alone."""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)
