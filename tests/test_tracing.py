"""The traced benchmark (``perfbench/run.py --trace 1``) patches module-level
names of ``stosymp``; entering its tracer fails with ``AttributeError`` as soon
as one of those names is gone."""

import os

from stosymp import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_tracer_patches_existing_names(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    write_csv = cli.write_csv
    with tracing.Tracer().install():
        assert cli.write_csv is not write_csv
    assert cli.write_csv is write_csv
