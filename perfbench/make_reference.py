#!/usr/bin/env python3
"""Recompute heavyhex_reference.json, the heavyhex-kz check values.

    python3 perfbench/make_reference.py

The seed picks the observed ZZ edge, so one value per candidate edge covers
every seed. Run it only when a change to the numeric engine is meant to move
the value, and say so with the change: the heavyhex-kz check compares each
run against these numbers to 1e-9.
"""

from __future__ import annotations

import json
import sys
import time

import run


def main() -> int:
    run.import_package()
    import tracing
    import workloads

    values = {}
    for edge in workloads.heavyhex_edges():
        inputs = workloads.heavyhex_inputs(edge, tracing.NullTracer())
        start = time.perf_counter()
        po = workloads.heavyhex_build(inputs)
        build_s = time.perf_counter() - start
        value = workloads.heavyhex_value(po, inputs.plus)
        values[f"{edge[0]}-{edge[1]}"] = value
        print(f"edge {edge}: value {value!r}, {po.n_paulis} terms, "
              f"built in {build_s:.2f} s", flush=True)
    doc = {"workload": "heavyhex-kz", "commit": run.git_commit(), "values": values}
    workloads.HEAVYHEX_REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
