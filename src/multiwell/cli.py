"""Command line: reference crossing table, spectra, density figures,
asymmetry locus, and config-driven sweeps.

Exit codes: 0 success, 2 numeric/solver failure, 64 usage or config error
(a ParameterError, raised by the library or by this module's parsing).
All CSV/JSON floats are written as %.10e so identical inputs give
byte-identical data files; only the sweep manifest carries a timestamp.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .crossings import (REFERENCE_DELTAS_ALPHA4, TABLE_PAIRS, AlcQuery,
                        LabelsUnresolvedError, NewtonError, _crossings,
                        asym_locus_cubic, crossing_table, linearized_shift,
                        pairing_gaps, relocalization_scan, tilt_scan)
from .polynomial import (ParameterError, Polynomial, RootIsolationError,
                         lattice)
from .spectrum import (ConvergenceError, classify_levels, harmonic_families,
                       resolve_solver, solve_numerical, well_weights)
from .svgfig import line_plot
from .wells import WellShape, build_symmetric, tilted_double_well, triple_well

EXIT_OK = 0
EXIT_NUMERIC = 2
EXIT_USAGE = 64

_NUMERIC_ERRORS = (ValueError, ConvergenceError, RootIsolationError,
                   LabelsUnresolvedError, NewtonError, ZeroDivisionError,
                   OverflowError, MemoryError)


def _fmt(v: float) -> str:
    return format(float(v) + 0.0, ".10e")  # +0.0 normalizes -0.0


def _json(obj, pad: str = "") -> str:
    """obj as json.dumps(obj, indent=2) writes it at indent pad, each float
    first rounded through %.10e so the output is reproducible; a dict key
    that is not a str raises TypeError.  One recursive pass of C-level
    formatting: json's own indent turns off its C encoder."""
    if isinstance(obj, float):
        value = float(_fmt(obj))
        return float.__repr__(value) if math.isfinite(value) else \
            json.dumps(value)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{\n" + ",\n".join(
            f"{inner}{encode_basestring_ascii(key)}: {_json(value, inner)}"
            for key, value in obj.items()) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[\n" + ",\n".join(inner + _json(value, inner)
                                  for value in obj) + "\n" + pad + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    "serializable")


def _dump_json(obj) -> str:
    return _json(obj) + "\n"


def _render(columns: list[str], records: list[dict], fmt: str,
            wrap=None) -> str:
    """CSV of the records' `columns`, or JSON of the whole records (passed
    through `wrap` when the list sits inside a payload object)."""
    if fmt == "json":
        return _dump_json(records if wrap is None else wrap(records))
    rows = [",".join(_fmt(r[c]) if isinstance(r[c], float) else str(r[c])
                     for c in columns) for r in records]
    return "\n".join([",".join(columns)] + rows) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# shared potential / solver plumbing

def _add_potential_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, default=None,
                     help="triple-well inner width alpha")
    sub.add_argument("--mu2", type=float, default=None,
                     help="ratio beta^2/alpha^2 (with --alpha)")
    sub.add_argument("--delta", type=float, default=None,
                     help="mu^2 = 2 + delta (with --alpha)")
    sub.add_argument("--shape", type=str, default=None,
                     help="comma-separated cumulative increments s1,s2,...")
    sub.add_argument("--potential", type=str, default=None,
                     help="comma-separated coefficients, highest degree first, "
                          "down to the constant (e.g. x^6-96x^4+2304x^2 is "
                          "1,0,-96,0,2304,0,0)")


def _add_grid_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--half-width", type=float, default=None,
                     help="grid half-width L (default: chosen from the potential)")
    sub.add_argument("--grid-step", type=float, default=None,
                     help="target grid spacing h (default 0.005)")
    sub.add_argument("--lambda", dest="lam", type=float, default=1.0,
                     help="kinetic prefactor in -lam^2 d2/dx2 (default 1)")


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ParameterError(f"could not parse {what}: {exc}") from exc


def _resolve_potential(args) -> tuple[Polynomial, str]:
    picked = [args.potential is not None, args.shape is not None,
              args.alpha is not None]
    if sum(picked) != 1:
        raise ParameterError("give exactly one of --alpha, --shape, --potential")
    if args.potential is not None:
        coeffs = _parse_floats(args.potential, "--potential")
        if len(coeffs) < 2:
            raise ParameterError("--potential needs at least two coefficients")
        return Polynomial.from_descending(coeffs), "custom potential"
    if args.shape is not None:
        increments = _parse_floats(args.shape, "--shape")
        return build_symmetric(WellShape(tuple(increments))), \
            f"shape {increments}"
    if args.mu2 is not None and args.delta is not None:
        raise ParameterError("give --mu2 or --delta, not both")
    mu2 = args.mu2 if args.mu2 is not None else 2.0 + (args.delta or 0.0)
    if mu2 <= 0.0:
        raise ParameterError("mu^2 must be positive")
    # mu2 - 2.0 is exact for 1 <= mu2 <= 4, so s2 rounds as (1 + mu2) *
    # alpha^2 and --delta d matches --mu2 2+d; passing d itself would move
    # the last bit of s2 for some negative d
    return triple_well(args.alpha, mu2 - 2.0), \
        f"alpha={args.alpha:g}, mu^2={mu2:g}"


def _solver(args, p: Polynomial, levels: int):
    return resolve_solver(p, levels, args.lam, half_width=args.half_width,
                          step=args.grid_step)


# ---------------------------------------------------------------------------
# table1

def _cmd_table1(args) -> str:
    if args.compare and abs(args.alpha - 4.0) > 1e-12:
        raise ParameterError("--compare reference values are tabulated for "
                             "alpha=4 only")
    sols = crossing_table(args.alpha)
    records = [{"m": s.m, "n": s.n, "delta": s.delta, "residual": s.residual}
               for s in sols]
    if args.compare:
        for r in records:
            ref = REFERENCE_DELTAS_ALPHA4[(r["m"], r["n"])]
            r["reference"], r["deviation"] = ref, abs(r["delta"] - ref)
        max_dev = max(r["deviation"] for r in records)
    if args.format != "table":
        if args.compare and args.format == "json":
            print(f"max_abs_deviation={max_dev:.3e}", file=sys.stderr)
        return _render(["m", "n", "delta", "residual"], records, args.format)

    lines = [f"crossing conditions at alpha={args.alpha:g} "
             f"(beta^2 = (2+delta)*alpha^2)"]
    header = f"{'m':>2} {'n':>2} {'delta':>13} {'residual':>12}"
    if args.compare:
        header += f" {'reference':>11} {'deviation':>11}"
    lines.append(header)
    for r in records:
        line = f"{r['m']:>2} {r['n']:>2} {r['delta']:>13.8f} {r['residual']:>12.3e}"
        if args.compare:
            line += f" {r['reference']:>11.5f} {r['deviation']:>11.3e}"
        lines.append(line)
    lines.append("pairing gaps |delta(m+1,n+2) - delta(m,n)|:")
    for g in pairing_gaps(sols):
        lines.append(f"  {g.first} vs {g.second}: {g.gap:.3e}")
    if args.compare:
        lines.append(f"max_abs_deviation={max_dev:.3e}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# spectrum

def _spectrum_harmonic(args, p: Polynomial, desc: str) -> str:
    families = harmonic_families(p)
    if not families:
        raise ParameterError("no harmonic wells found for this potential")
    records = [{"family": family, "index": i, "energy": w.level(i, args.lam)}
               for family, w in families for i in range(args.levels)]
    central = [w for family, w in families if family == "central"]
    off = [w for family, w in families if family != "central"]
    springs = {}
    if central:
        springs["spring_central"] = math.sqrt(central[0].g)
    if off:
        springs["spring_offcentral"] = [math.sqrt(w.g) for w in off]
    if args.format != "table":
        return _render(["family", "index", "energy"], records, args.format,
                       lambda levels: {"backend": "harmonic", "potential": desc,
                                       "levels": levels, **springs})
    lines = [f"harmonic estimates for {desc} (lam={args.lam:g})"]
    lines += [f"  {r['family']}-{r['index']}: {r['energy']:.6f}" for r in records]
    if central:
        lines.append(f"  spring central sqrt(c) = {springs['spring_central']:.6f}")
    for w in off:
        lines.append(f"  spring offcentral Omega = "
                     f"{math.sqrt(w.g):.6f} (well at x={w.x:.6g})")
    return "\n".join(lines) + "\n"


def _cmd_spectrum(args) -> str:
    if args.levels < 1:
        raise ParameterError("--levels must be at least 1")
    p, desc = _resolve_potential(args)
    if args.backend == "harmonic":
        return _spectrum_harmonic(args, p, desc)

    cfg = _solver(args, p, args.levels)
    pairs = solve_numerical(p, cfg)
    labeled = classify_levels(pairs, p)
    columns = ["label", "family", "index", "energy", "w_central", "w_outer"]
    harm = {}
    if args.compare:
        columns += ["energy_harmonic", "diff"]
        harm = {f"{family}-{i}": w.level(i, args.lam)
                for family, w in harmonic_families(p)
                for i in range(args.levels)}
    records = []
    for lv, pair in zip(labeled, pairs):
        # error_estimate goes to JSON only: the CSV columns stay fixed
        r = {"label": lv.label, "family": lv.family, "index": lv.index,
             "energy": lv.energy, "error_estimate": pair.error_estimate,
             "w_central": lv.w_central, "w_outer": lv.w_outer}
        if args.compare:
            r["energy_harmonic"] = harm.get(lv.label, math.nan)
            r["diff"] = lv.energy - r["energy_harmonic"]
        records.append(r)
    if args.format != "table":
        return _render(columns, records, args.format,
                       lambda levels: {"backend": "numerical", "potential": desc,
                                       "half_width": cfg.half_width,
                                       "grid_points": cfg.grid_points,
                                       "levels": levels})
    lines = [f"numerical spectrum for {desc} "
             f"(L={cfg.half_width:g}, {cfg.grid_points} points, "
             f"lam={cfg.lam:g})"]
    for r in records:
        line = f"  {r['label']:<14} E={r['energy']:.6f} w_c={r['w_central']:.4f}"
        if args.compare and not math.isnan(r["energy_harmonic"]):
            line += (f" harmonic={r['energy_harmonic']:.6f} "
                     f"diff={r['diff']:+.6f}")
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# density

def _cmd_density(args) -> str:
    if args.level < 0:
        raise ParameterError("--level must be non-negative")
    p, desc = _resolve_potential(args)
    pair = solve_numerical(p, _solver(args, p, args.level + 1))[args.level]
    rho = pair.psi ** 2
    if args.format == "csv":
        return _render(["x", "rho"], [{"x": x, "rho": r}
                                      for x, r in zip(pair.x, rho)], "csv")
    bands = [(r.lo, r.hi, f"w={r.weight:.4f}") for r in well_weights(pair, p)]
    return line_plot(list(pair.x), list(rho),
                     title=f"probability density, level {args.level} ({desc})",
                     xlabel="x", ylabel="rho(x)",
                     regions=bands if len(bands) > 1 else None)


# ---------------------------------------------------------------------------
# locus

def _cmd_locus(args) -> str:
    if args.steps < 2:
        raise ParameterError("--steps must be at least 2")
    if not (args.eps_min < args.eps_max):
        raise ParameterError("need eps-min < eps-max")
    records = []
    for eps in lattice(args.eps_min, args.eps_max, args.steps).tolist():
        d_lin = linearized_shift(eps, args.alpha) + 0.0
        d_cubic = asym_locus_cubic(eps, args.alpha).delta
        records.append({"epsilon": eps, "delta_lin": d_lin,
                        "delta_cubic": d_cubic, "gap": abs(d_cubic - d_lin)})
    if args.format != "table":
        return _render(list(records[0]), records, args.format)
    lines = [f"asymmetric catastrophe locus at alpha={args.alpha:g}",
             f"{'epsilon':>12} {'delta_lin':>14} {'delta_cubic':>14} {'gap':>11}"]
    for r in records:
        lines.append(f"{r['epsilon']:>12.6g} {r['delta_lin']:>14.6e} "
                     f"{r['delta_cubic']:>14.6e} {r['gap']:>11.3e}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sweep

_REQUIRED = object()


@contextmanager
def _writing(path: str | Path):
    """An OSError while writing the output at path is an input error."""
    try:
        yield
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc


def _parse_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}: line {lineno}: expected key=value, "
                                 f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if not key or not value:
            raise ParameterError(f"{path}: line {lineno}: empty key or value")
        out[key] = value
    if not out:
        raise ParameterError(f"{path}: empty config")
    return out


def _cfg_get(cfg: dict[str, str], key: str, cast, default=_REQUIRED):
    if key not in cfg:
        if default is _REQUIRED:
            raise ParameterError(f"config key {key!r} is required")
        return default
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise ParameterError(f"config key {key!r}: {exc}") from exc


def _sweep_grid(cfg: dict, widest: Polynomial, levels: int):
    """The resolved grid of a lattice sweep's widest potential; half_width,
    grid_step and lambda keys override the resolver's defaults."""
    return resolve_solver(widest, levels, cfg["lambda"],
                          half_width=cfg["half_width"], step=cfg["grid_step"])


def _sweep_relocalization(cfg: dict):
    alpha, hi = cfg["alpha"], cfg["delta_max"]
    solver = _sweep_grid(cfg, triple_well(alpha, hi), cfg["levels"])
    result = relocalization_scan(alpha, (cfg["delta_min"], hi), cfg["steps"],
                                 solver)
    records = [{"delta": r.delta, "E0": r.e0, "w_central": r.w_central,
                "w_outer": r.w_outer, "label": r.label,
                "angle_bound": r.angle_bound} for r in result.rows]
    return ["delta", "E0", "w_central", "w_outer", "label"], records, {
        "solver": asdict(solver), "crossing": result.crossing,
        "crossing_bracket": result.bracket}


def _sweep_tilt(cfg: dict):
    """Double-well contrast demo: the left-weight response to a linear tilt
    is smooth, unlike the triple-well relocalization jump."""
    s1, lo, hi = cfg["s1"], cfg["tilt_min"], cfg["tilt_max"]
    # tilts +-b mirror each other, so the symmetric grid of -|b| serves both;
    # at -|b| the deeper well, which holds the ground state, lies at x > 0
    solver = _sweep_grid(cfg, tilted_double_well(s1, -max(abs(lo), abs(hi))), 1)
    records = [{"tilt": r.tilt, "E0": r.e0, "w_left": r.w_left,
                "w_right": r.w_right, "angle_bound": r.angle_bound}
               for r in tilt_scan(s1, (lo, hi), cfg["steps"], solver)]
    return ["tilt", "E0", "w_left", "w_right"], records, {
        "solver": asdict(solver), "crossing": None}


def _sweep_alc(cfg: dict):
    if cfg["pairs"].strip().lower() == "all":
        pairs = list(TABLE_PAIRS)
    else:
        pairs = []
        for tok in cfg["pairs"].split(","):
            m_str, _, n_str = tok.strip().partition(":")
            try:
                pairs.append((int(m_str), int(n_str)))
            except ValueError as exc:
                raise ParameterError(f"bad pairs entry {tok!r}: {exc}") from exc
    bracket = (cfg["bracket_lo"], cfg["bracket_hi"])
    # the pairs share alpha and bracket, so one scan, at solve_crossing's
    # default tolerance
    sols = _crossings([AlcQuery(m, n, cfg["alpha"], bracket=bracket,
                                backend=cfg["backend"]) for m, n in pairs],
                      1e-8)
    sols.sort(key=lambda s: s.delta)
    records = [{"m": s.m, "n": s.n, "delta": s.delta, "residual": s.residual,
                "evaluations": s.evaluations,
                "harmonic_delta": s.harmonic_delta,
                "newton_step": s.newton_step} for s in sols]
    return ["m", "n", "delta", "residual"], records, {"crossing": None}


# sweep kind: (runner, its keys besides kind and name as {key: (cast,
# default)}, (cast,) if required); the runner gets one dict of typed values
_GRID_KEYS = {"half_width": (float, None), "grid_step": (float, None),
              "lambda": (float, 1.0)}
_SWEEPS = {
    "relocalization": (_sweep_relocalization, {
        "alpha": (float,), "delta_min": (float,), "delta_max": (float,),
        "steps": (int,), "levels": (int, 1), **_GRID_KEYS}),
    "alc": (_sweep_alc, {
        "alpha": (float,), "backend": (str, "harmonic"), "pairs": (str, "all"),
        "bracket_lo": (float, -0.05), "bracket_hi": (float, 0.05)}),
    "tilt": (_sweep_tilt, {
        "s1": (float,), "tilt_min": (float,), "tilt_max": (float,),
        "steps": (int,), **_GRID_KEYS}),
}


def _cmd_sweep(args) -> str:
    cfg = _parse_config(args.config)
    kind = cfg.get("kind", "relocalization").lower()
    if kind not in _SWEEPS:
        raise ParameterError(f"unknown sweep kind {kind!r} "
                             "(expected 'relocalization', 'alc', or 'tilt')")
    sweep, spec = _SWEEPS[kind]
    unknown = sorted(set(cfg) - set(spec) - {"kind", "name"})
    if unknown:
        raise ParameterError(f"unknown config key for sweep kind {kind!r}: "
                             + ", ".join(map(repr, unknown)))
    params = {key: _cfg_get(cfg, key, *spec[key]) for key in spec}
    name = cfg.get("name", kind)
    if name in (".", "..") or "\0" in name or Path(name).name != name:
        raise ParameterError(f"sweep name must be a file name, not a path: "
                             f"{name!r}")
    columns, records, summary = sweep(params)
    outdir = Path(args.outdir)
    csv_path = outdir / f"{name}.csv"
    manifest_path = outdir / f"{name}_manifest.json"
    manifest = {
        "command": "sweep",
        "params": dict(sorted(cfg.items())),
        "started": datetime.now(timezone.utc).isoformat(),
        "results": records,
        **summary,
        "tool_version": __version__,
    }
    with _writing(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
        csv_path.write_text(_render(columns, records, "csv"), encoding="utf-8")
        manifest_path.write_text(_dump_json(manifest), encoding="utf-8")
    crossing = summary["crossing"]
    cross_text = "no crossing" if crossing is None else f"crossing={crossing:.6g}"
    return (f"wrote {csv_path} and {manifest_path} ({len(records)} results, "
            f"{cross_text})\n")


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="multiwell",
                     description="Multi-well polynomial potentials: spectra, "
                                 "avoided crossings, relocalization scans.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    t1 = subs.add_parser("table1", help="solve the twelve reference "
                                        "crossing conditions")
    t1.add_argument("--alpha", type=float, default=4.0)
    t1.add_argument("--compare", action="store_true",
                    help="compare against embedded reference values (alpha=4)")
    t1.add_argument("--format", choices=("table", "csv", "json"),
                    default="table")
    t1.add_argument("--output", default=None)
    t1.set_defaults(func=_cmd_table1)

    sp = subs.add_parser("spectrum", help="harmonic or numerical level list")
    _add_potential_args(sp)
    _add_grid_args(sp)
    sp.add_argument("--backend", choices=("harmonic", "numerical"),
                    default="harmonic")
    sp.add_argument("--levels", type=int, default=4)
    sp.add_argument("--compare", action="store_true",
                    help="numerical backend: add harmonic estimate and diff")
    sp.add_argument("--format", choices=("table", "csv", "json"),
                    default="table")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_spectrum)

    de = subs.add_parser("density", help="probability density of one level")
    _add_potential_args(de)
    _add_grid_args(de)
    de.add_argument("--level", type=int, default=0)
    de.add_argument("--format", choices=("svg", "csv"), default="svg")
    de.add_argument("--output", default=None)
    de.set_defaults(func=_cmd_density)

    lo = subs.add_parser("locus", help="asymmetric catastrophe locus "
                                       "delta(epsilon)")
    lo.add_argument("--alpha", type=float, required=True)
    lo.add_argument("--eps-min", type=float, default=0.0)
    lo.add_argument("--eps-max", type=float, default=0.1)
    lo.add_argument("--steps", type=int, default=11)
    lo.add_argument("--format", choices=("table", "csv", "json"),
                    default="table")
    lo.add_argument("--output", default=None)
    lo.set_defaults(func=_cmd_locus)

    sw = subs.add_parser("sweep", help="run a scan described by a key=value "
                                       "config file")
    sw.add_argument("--config", required=True)
    sw.add_argument("--outdir", default="out")
    sw.add_argument("--jobs", type=int, choices=(1,),
                    help="kept only for the benchmark harness, which passes "
                         "1; sweeps run in the calling process")
    sw.set_defaults(func=_cmd_sweep, output=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first call of main and kept for
    the process: parse_args leaves a parser as it found it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        text = args.func(args)
        if args.output:
            with _writing(args.output):
                Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK  # consumer closed the pipe (e.g. head)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
