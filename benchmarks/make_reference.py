#!/usr/bin/env python3
"""Compute the converged reference deltas the alc_numeric workload checks against.

For every (alpha, m, n) on the alc_numeric menu, solve the crossing with the
library's finite-difference backend at grid steps h = 0.005 and h = 0.0025
(delta_tol = 1e-12) and Richardson-extrapolate the second-order error away:

    delta_ref = (4 * delta(h/2) - delta(h)) / 3

The h = 0.005 solve uses the default numerical solver configuration, so it is
exactly what a benchmark op computes; the h = 0.0025 solve keeps that domain
and level count and halves the step.  The script refuses to write the file
unless delta_ref(0, 0) at alpha = 4 agrees with the converged spectral value
2.60162849e-3 to within 1e-9.

Run from the repository root (takes a few minutes on one core):

    python3 benchmarks/make_reference.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from multiwell.crossings import (  # noqa: E402
    TABLE_PAIRS, AlcQuery, _default_numeric_config, solve_crossing)
from multiwell.spectrum import SolverConfig, grid_points_for  # noqa: E402

from workloads import ALC_ALPHAS, REFERENCE_FILE  # noqa: E402

CONVERGED_00_ALPHA4 = 2.60162849e-3
CONVERGED_TOL = 1e-9
DELTA_TOL = 1e-12


def fine_config(m: int, n: int, alpha: float, step: float) -> SolverConfig:
    """The default numerical config of a query (domain, level count) at `step`."""
    cfg = _default_numeric_config(AlcQuery(m, n, alpha, backend="numerical"))
    return dataclasses.replace(cfg, grid_points=grid_points_for(cfg.half_width, step))


def main() -> int:
    entries = []
    for alpha in ALC_ALPHAS:
        for m, n in TABLE_PAIRS:
            t0 = time.perf_counter()
            coarse = solve_crossing(AlcQuery(m, n, alpha, backend="numerical"),
                                    delta_tol=DELTA_TOL).delta
            fine = solve_crossing(
                AlcQuery(m, n, alpha, backend="numerical",
                         solver=fine_config(m, n, alpha, 0.0025)),
                delta_tol=DELTA_TOL).delta
            ref = (4.0 * fine - coarse) / 3.0
            entries.append({"alpha": alpha, "m": m, "n": n,
                            "delta_h0.005": coarse, "delta_h0.0025": fine,
                            "delta_ref": ref})
            print(f"alpha={alpha:g} ({m},{n}) ref={ref:.12e} "
                  f"fd_err={abs(coarse - ref):.3e} "
                  f"[{time.perf_counter() - t0:.1f} s]", flush=True)
    check = next(e for e in entries
                 if (e["alpha"], e["m"], e["n"]) == (4.0, 0, 0))
    dev = abs(check["delta_ref"] - CONVERGED_00_ALPHA4)
    print(f"delta_ref(0,0; alpha=4) = {check['delta_ref']:.12e}, "
          f"|ref - {CONVERGED_00_ALPHA4:.8e}| = {dev:.2e}")
    if not dev <= CONVERGED_TOL:
        print(f"refusing to write: deviation exceeds {CONVERGED_TOL:g}",
              file=sys.stderr)
        return 1
    payload = {
        "method": "Richardson extrapolation (4*d(h/2) - d(h))/3 of the "
                  "finite-difference solve_crossing at h=0.005 and h=0.0025, "
                  f"delta_tol={DELTA_TOL:g}",
        "entries": entries,
    }
    REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n",
                              encoding="utf-8")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
