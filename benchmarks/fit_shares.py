#!/usr/bin/env python3
"""Refit the python shares of the speed factor (calibration.py) from recorded runs.

For each workload with untraced records in .bench_out/, recompute the timed
end-to-end metrics of every record with each candidate python share, and
print their spread over the records (quartile spread / median, as the
benchmark's bounds are checked), next to the spread of the raw wall times.
The share a workload should use is the one with the smallest spreads.

Run from the repository root after a set of runs of BENCHMARK.json's
run_seconds with different seeds:

    python3 benchmarks/fit_shares.py
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibration import Calibration, speed_factor  # noqa: E402
from run import OUT, ROOT, timings  # noqa: E402

SHARES = (0.0, 0.25, 0.5, 0.75, 1.0)


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def metrics(record: dict, share: float | None) -> dict[str, float]:
    """Timed metrics of one record; share None gives the raw wall times."""
    secs = record["op_seconds"]
    setups = [s["seconds"] for s in record["setups"]]
    if share is not None:
        cal = Calibration(share)
        cal.python_s, cal.lapack_s = record["kernel_python_s"], record["kernel_lapack_s"]
        secs = [t / cal.factor(k) for t, k in zip(secs, record["op_before"])]
        setups = [s["seconds"] / speed_factor([s["python_s"]], [s["lapack_s"]], share)
                  for s in record["setups"]]
    _, out = timings(secs, record["tail_percentile_cap"], record["info"]["ops_per_pass"])
    return {"setup_s": statistics.median(setups), **out}


def main() -> int:
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["run_seconds"]
    records = defaultdict(list)
    for path in sorted(OUT.glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        # Only full-length runs; smoke runs measure a truncated pass.
        if "op_before" in record and record["info"]["seconds"] == run_seconds:
            records[record["info"]["workload"]].append(record)
    for workload, recs in sorted(records.items()):
        if len(recs) < 4:
            continue
        used = recs[0]["python_share"]
        print(f"{workload}: {len(recs)} runs, python_share in use {used}")
        for share in (None, *SHARES):
            rows = [metrics(r, share) for r in recs]
            cells = "  ".join(f"{name} {spread([m[name] for m in rows]):.4f}"
                              for name in rows[0])
            print(f"  {'wall' if share is None else f's={share:.2f}':>6}  {cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
