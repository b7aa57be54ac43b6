#!/usr/bin/env python3
"""Full-solver relocalization scan of the triple well.

Sweeps delta in beta^2 = (2+delta)*alpha^2, records the ground-state
central weight, and reports where the probability density jumps from the
central to the outer wells.  Writes CSV + manifest under --outdir.
"""

import argparse
from pathlib import Path

from multiwell.cli import main as cli_main


def build_config(args) -> str:
    lines = [
        "kind = relocalization",
        f"alpha = {args.alpha}",
        f"delta_min = {args.delta_min}",
        f"delta_max = {args.delta_max}",
        f"steps = {args.steps}",
        "name = relocalization",
    ]
    # an omitted grid key leaves it to the library's grid resolver
    if args.half_width is not None:
        lines.append(f"half_width = {args.half_width}")
    if args.grid_step is not None:
        lines.append(f"grid_step = {args.grid_step}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=4.0)
    ap.add_argument("--delta-min", type=float, default=0.0)
    ap.add_argument("--delta-max", type=float, default=0.005)
    ap.add_argument("--steps", type=int, default=11)
    ap.add_argument("--half-width", type=float, default=None)
    ap.add_argument("--grid-step", type=float, default=None)
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = outdir / "relocalization.conf"
    config.write_text(build_config(args), encoding="utf-8")
    raise SystemExit(cli_main(["sweep", "--config", str(config),
                               "--outdir", str(outdir)]))
