"""Regenerate the golden tables, the correctness oracles of two workloads,
for every program seed:

- ``golden_order_ex1.json``: the err_x, err_y and err_norm columns of every
  ``order-ex1`` operation;
- ``golden_track_ex1.json``: the largest and last |dH/H| of every
  ``track-ex1`` operation but sympeuler's (its energy trend is a documented
  acceptance failure and is not judged).

The tables hold the values of the commit that introduced the benchmark;
regenerate them only to extend ``SEED_RANGE`` or change a workload's inputs,
never to absorb a change of the program's results.  Run from the repository
root (about 8 minutes):

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import workloads as wl  # noqa: E402
from stosymp import cli  # noqa: E402


def table(schemes, argv, read) -> dict:
    """{program seed: {scheme: read(output dir)}} over every program seed."""
    out = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as tmp:
        for pseed in range(wl.SEED_RANGE):
            out[str(pseed)] = {}
            for scheme in schemes:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv(scheme, pseed, tmp))
                if rc != 0:
                    raise RuntimeError(f"seed {pseed} {scheme}: exit {rc}")
                out[str(pseed)][scheme] = read(tmp)
    return out


def write(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main() -> int:
    write(wl.GOLDEN_ORDER, table(wl.ORDER_SCHEMES, wl.order_argv,
                                 lambda d: wl.order_errors(os.path.join(d, "order.csv"))))
    write(wl.GOLDEN_TRACK, table([s for s in wl.TRACK_SCHEMES if s != "sympeuler"],
                                 wl.track_argv, wl.track_energy))
    return 0


if __name__ == "__main__":
    sys.exit(main())
