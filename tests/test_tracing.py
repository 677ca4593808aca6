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


def test_traced_run_counts_every_layer(monkeypatch, tmp_path):
    # counts that do not depend on the hardware; a stepping layer that is no
    # longer called through its module name reads 0 here
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.chdir(tmp_path)
    import tracing

    tracer = tracing.Tracer()
    with tracer.install():
        assert cli.main(["track", "--example", "ex1", "--scheme", "ses-sp-2",
                         "--dt", "0.01", "--t-end", "0.05"]) == 0
        assert cli.main(["nls", "--dt", "0.001", "--t-end", "0.003", "--h", "1"]) == 0
    stats = tracer.stats["-"]
    # each projection stepper weighs the drift against the noise and the
    # nonlinear terms in 32 stage evaluations outside the solve; ex1 at
    # c = 0.5 keeps 4I (46 map evaluations), and the 9-node lattice builds P
    # in 36 more (9 map evaluations, 12 with 4I)
    assert stats["project.map_evals"] == 55
    assert stats["splitflow.apply_stages.calls"] == 155
    assert stats["splitflow.flow_f1.calls"] == 310
    assert stats["splitflow.flow_f2.calls"] == 233
    assert stats["modelzoo.grad.calls"] == 624
