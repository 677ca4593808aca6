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
    # ex1's 4-long lambda takes its chord Jacobian inside each step's first
    # map call, with no stage evaluation outside the solve, and a step ends at
    # the lambda of its last map call: 16 iterations over 5 steps make 16 map
    # evaluations (21 with a final evaluation after the last update, 46 with
    # the 4I iteration, 41 iterations); the 9-node lattice takes 6 over 3
    # steps (9 with that final evaluation, 12 with 4I) and builds P in 1
    # stage call, its 36 central-difference points batched.  ses-sp-2's
    # Strang map calls F1 and F2 twice each, the lattice's strang-ab F1 twice
    # and F2 once; each ex1 flow takes one gradient pair
    # the steppers pass their window bounds, and each step still goes through
    # the names the tracer counts: 5 ex1 and 3 lattice steps, one solve and
    # one stage_increments call each
    assert stats["project.projection_step.calls"] == 5
    assert stats["nls.step.calls"] == 3
    assert stats["project.solve.calls"] == 8
    assert stats["splitflow.stage_increments.calls"] == 8
    assert stats["project.map_evals"] == 22
    assert stats["splitflow.apply_stages.calls"] == 23
    assert stats["splitflow.flow_f1.calls"] == 46
    assert stats["splitflow.flow_f2.calls"] == 39
    assert stats["modelzoo.grad.calls"] == 128
