#!/usr/bin/env python3
"""Render the relocalization story as three SVG density figures.

Finds the crossing delta* with a coarse scan, then plots the ground-state
density just below, at, and just above it: central, mixed, and outer
localization respectively.
"""

import argparse
from pathlib import Path

from multiwell.cli import main as cli_main
from multiwell.crossings import relocalization_scan
from multiwell.spectrum import resolve_solver
from multiwell.wells import triple_well

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=4.0)
    ap.add_argument("--half-width", type=float, default=None,
                    help="grid half-width (default: resolved from the potential)")
    ap.add_argument("--grid-step", type=float, default=None,
                    help="grid spacing (default: the library's 0.005)")
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()

    # one grid for the scan and the figures, resolved at the widest delta
    cfg = resolve_solver(triple_well(args.alpha, 0.005), 1,
                         half_width=args.half_width, step=args.grid_step)
    result = relocalization_scan(args.alpha, (0.0, 0.005), 21, cfg)
    if result.crossing is None:
        raise SystemExit("no crossing found in [0, 0.005]")
    print(f"crossing delta* = {result.crossing:.6f}")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for tag, delta in (("below", result.crossing - 0.002),
                       ("at", result.crossing),
                       ("above", result.crossing + 0.002)):
        target = outdir / f"density_{tag}.svg"
        code = cli_main(["density", "--alpha", str(args.alpha),
                         "--delta", f"{delta:.8f}", "--level", "0",
                         "--half-width", repr(cfg.half_width),
                         "--grid-step", repr(cfg.step),
                         "--output", str(target)])
        if code != 0:
            raise SystemExit(code)
        print(f"wrote {target} (delta={delta:.6f})")
