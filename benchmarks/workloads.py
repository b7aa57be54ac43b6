"""Seeded inputs, ops and output checks of the benchmark workloads.

Each workload turns a seed into one *pass*: a list of op inputs that the
driver (run.py) repeats until its time is up.  An op calls the public API
of multiwell; its check compares the output with an oracle the op did not
compute and returns the op's error as a fraction of the workload's
tolerance (below 1 when the check passes), or raises CheckFailed.

Every library function is reached through a module attribute at call time
(multiwell.solve_crossing, multiwell.cli.main), so the tracer's wrappers,
which replace those attributes, see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import multiwell
import multiwell.cli
from multiwell.crossings import REFERENCE_DELTAS_ALPHA4, TABLE_PAIRS

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_deltas.json"

ALC_ALPHAS = (3.5, 4.0, 5.0, 6.0)
# |delta - delta_ref| allowed on alc_numeric; also stated in BENCHMARK.json.
# The largest seed-code error on the menu is 2.17e-5 (alpha=3.5, pair (3,2)).
ALC_TOL = 3e-5
# |delta - REFERENCE_DELTAS_ALPHA4| allowed on harmonic_study at alpha=4.
STUDY_TOL = 5e-6
SIGN_STEP = 1e-9         # residual must change sign across delta +- SIGN_STEP
LOCUS_TOL = 1e-12        # locus identity residual, in units of alpha^3
WEIGHT_SUM_TOL = 1e-9    # |w_central + w_outer - 1|
SWEEP_GRID_STEP = 0.005
# Grid half-width of each reloc_sweep scan, per alpha.  These equal the
# domain of the library's default numerical crossing config at the time the
# benchmark was defined; they are fixed here, not taken from the library, so
# that a scan does the same work on every commit it measures.
SWEEP_HALF_WIDTH = {3.5: 9.0, 4.0: 10.0, 5.0: 11.5, 6.0: 13.5}
SWEEP_STEPS = (21, 41, 61)
SWEEP_WINDOWS = 3        # windows per (alpha, lattice size) in a reloc_sweep pass


class CheckFailed(Exception):
    """An op returned a result its oracle rejects."""


class Workload:
    """Interface the driver uses; see the module docstring."""

    name: str
    warmup: object  # the input of the untimed warm-up op, the same for every seed
    # Highest op_s_tail percentile a 25 s run supports (>= 10 samples beyond).
    tail_percentile: float
    # Weight of the interpreted-Python kernel in the run's speed factor
    # (calibration.py): the share, of 0, 0.25, ..., 1, that gave the smallest
    # quartile spread / median of op_s_p50 over 15 runs on a 2-vCPU VM
    # (fit_shares.py; the figures are at each workload's value).
    python_share: float

    def __init__(self, workdir: Path):
        self.workdir = workdir  # scratch space the ops may write to

    def generate(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, inputs: list) -> None:
        """Set up whatever the ops of `inputs` read, before any op runs."""

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> float:
        raise NotImplementedError

    def bytes_written(self, out) -> int:
        """Bytes an op wrote to files and stdout; 0 unless it goes through cli."""
        return 0


def load_reference() -> dict[tuple[float, int, int], float]:
    entries = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["entries"]
    return {(e["alpha"], e["m"], e["n"]): e["delta_ref"] for e in entries}


def harmonic_residual(delta: float, m: int, n: int, alpha: float) -> float:
    """Outer doublet m minus central level n, from the closed-form spectrum."""
    hs = multiwell.harmonic_spectrum_n2(alpha, alpha * math.sqrt(2.0 + delta),
                                        n_max=n, m_max=m)
    return hs.off_central[m] - hs.central[n]


def locus_epsilons(alpha: float) -> list[float]:
    """Eleven tilts evenly spaced over [-0.1, 0.1] * alpha^3, including 0."""
    return [alpha ** 3 * (-0.1 + 0.02 * i) for i in range(11)]


# ---------------------------------------------------------------------------
# harmonic_study

class HarmonicStudy(Workload):
    """Closed-form study at one alpha: table, gaps, locus, harmonic wells."""

    name = "harmonic_study"
    tail_percentile = 99.0
    python_share = 1.0  # op_s_p50 spread 0.176 in wall time, 0.014 at 1, 0.022 at 0.75
    pass_size = 32
    warmup = 4.0

    def generate(self, seed: int) -> list[float]:
        rng = random.Random(seed)
        return [4.0] + [rng.uniform(3.5, 8.0) for _ in range(self.pass_size - 1)]

    def run(self, alpha: float):
        sols = multiwell.crossing_table(alpha)
        gaps = multiwell.pairing_gaps(sols)
        locus = [multiwell.asym_locus_cubic(eps, alpha)
                 for eps in locus_epsilons(alpha)]
        a2 = alpha * alpha
        p = multiwell.build_symmetric(multiwell.WellShape((a2, 3.0 * a2)))
        wells = multiwell.harmonic_wells(p, alpha * math.sqrt(3.0) + 2.0)
        return sols, gaps, locus, wells

    def check(self, alpha: float, out) -> float:
        sols, gaps, locus, wells = out
        if sorted((s.m, s.n) for s in sols) != sorted(TABLE_PAIRS):
            raise CheckFailed(f"alpha={alpha}: table pairs {[(s.m, s.n) for s in sols]}")
        for s in sols:
            lo = harmonic_residual(s.delta - SIGN_STEP, s.m, s.n, alpha)
            hi = harmonic_residual(s.delta + SIGN_STEP, s.m, s.n, alpha)
            if lo * hi > 0.0:
                raise CheckFailed(f"alpha={alpha} ({s.m},{s.n}): no residual sign "
                                  f"change across delta={s.delta!r} +- {SIGN_STEP}")
        if len(gaps) != 6:
            raise CheckFailed(f"alpha={alpha}: {len(gaps)} pairing gaps, expected 6")
        for pt in locus:
            implied = -0.5 * alpha ** 3 * pt.delta * math.sqrt(3.0 + pt.delta)
            if abs(implied - pt.epsilon) > LOCUS_TOL * alpha ** 3:
                raise CheckFailed(f"alpha={alpha}: locus identity off by "
                                  f"{abs(implied - pt.epsilon):.3e} at eps={pt.epsilon!r}")
        self._check_wells(alpha, wells)
        if alpha != 4.0:
            return 0.0
        err = max(abs(s.delta - REFERENCE_DELTAS_ALPHA4[(s.m, s.n)]) for s in sols)
        if err > STUDY_TOL:
            raise CheckFailed(f"alpha=4: max |delta - reference| = {err:.3e} > {STUDY_TOL}")
        return err / STUDY_TOL

    @staticmethod
    def _check_wells(alpha: float, wells) -> None:
        # delta = 0: beta^2 = 2 alpha^2, the outer minima sit at V = 0.
        hs = multiwell.harmonic_spectrum_n2(alpha, alpha * math.sqrt(2.0), 0, 0)
        xs = [w.x for w in wells]
        outer = alpha * math.sqrt(3.0)
        expected = [-outer, 0.0, outer]
        if len(wells) != 3 or any(abs(x - e) > 1e-9 * outer
                                  for x, e in zip(sorted(xs), expected)):
            raise CheckFailed(f"alpha={alpha}: well positions {xs}, expected {expected}")
        for w in wells:
            g = (hs.spring_central if abs(w.x) < 0.5 * outer
                 else hs.spring_off_central) ** 2
            if abs(w.v) > 1e-9 * alpha ** 6 or abs(w.g - g) > 1e-9 * g:
                raise CheckFailed(f"alpha={alpha}: well at x={w.x!r} has v={w.v!r}, "
                                  f"g={w.g!r}; closed form v=0, g={g!r}")


# ---------------------------------------------------------------------------
# alc_numeric

@dataclass(frozen=True)
class AlcInput:
    alpha: float
    m: int
    n: int


class AlcNumeric(Workload):
    """Numerical solve_crossing against the Richardson-converged reference.

    A pass solves every TABLE_PAIRS pair once, each alpha of the menu three
    times (a fixed balanced design, so passes of different seeds compare like
    with like: op cost and error set by the pair and alpha); the seed draws the
    order.
    """

    name = "alc_numeric"
    tail_percentile = 50.0
    python_share = 0.25  # op_s_p50 spread 0.058 in wall time, 0.026 at 0.25, 0.034 at 0
    warmup = AlcInput(4.0, 0, 0)

    def __init__(self, workdir: Path):
        super().__init__(workdir)
        self.reference = load_reference()

    @staticmethod
    def design() -> list[AlcInput]:
        return [AlcInput(ALC_ALPHAS[(i + 3) % len(ALC_ALPHAS)], m, n)
                for i, (m, n) in enumerate(TABLE_PAIRS)]

    def generate(self, seed: int) -> list[AlcInput]:
        inputs = self.design()
        random.Random(seed).shuffle(inputs)
        return inputs

    def run(self, q: AlcInput):
        return multiwell.solve_crossing(
            multiwell.AlcQuery(q.m, q.n, q.alpha, backend="numerical"))

    def check(self, q: AlcInput, sol) -> float:
        if (sol.m, sol.n) != (q.m, q.n):
            raise CheckFailed(f"{q}: solution is for ({sol.m},{sol.n})")
        err = abs(sol.delta - self.reference[(q.alpha, q.m, q.n)])
        if not err <= ALC_TOL:
            raise CheckFailed(f"{q}: |delta - delta_ref| = {err:.3e} > {ALC_TOL}")
        return err / ALC_TOL


# ---------------------------------------------------------------------------
# reloc_sweep

@dataclass(frozen=True)
class SweepInput:
    alpha: float
    delta_min: float
    delta_max: float
    steps: int

    @property
    def lattice_step(self) -> float:
        return (self.delta_max - self.delta_min) / (self.steps - 1)

    def config_text(self) -> str:
        return "\n".join([
            "kind = relocalization",
            "name = sweep",
            f"alpha = {self.alpha!r}",
            f"delta_min = {self.delta_min!r}",
            f"delta_max = {self.delta_max!r}",
            f"steps = {self.steps}",
            f"half_width = {SWEEP_HALF_WIDTH[self.alpha]!r}",
            f"grid_step = {SWEEP_GRID_STEP!r}",
            "levels = 1",
        ]) + "\n"


@dataclass(frozen=True)
class SweepOutput:
    code: int
    outdir: Path
    stdout: str


class RelocSweep(Workload):
    """`multiwell sweep` relocalization scans around delta*(0,0).

    A pass holds SWEEP_WINDOWS scans of every alpha of the menu at every
    lattice size in SWEEP_STEPS (a fixed op cost); the seed draws each scan's
    window, 0.003 to 0.006 wide with delta*(0,0) at 25-75% of it, and the
    order.
    """

    name = "reloc_sweep"
    tail_percentile = 90.0
    python_share = 0.25  # op_s_p50 spread 0.088 in wall time, 0.023 at 0.25, 0.032 at 0
    warmup = SweepInput(4.0, 0.0006, 0.0046, 21)

    def __init__(self, workdir: Path):
        super().__init__(workdir)
        self.reference = load_reference()
        self._configs: dict[SweepInput, Path] = {}

    def generate(self, seed: int) -> list[SweepInput]:
        rng = random.Random(seed)
        inputs = []
        for alpha in ALC_ALPHAS:
            ref = self.reference[(alpha, 0, 0)]
            for steps in SWEEP_STEPS * SWEEP_WINDOWS:
                width = rng.uniform(0.003, 0.006)
                lo = ref - rng.uniform(0.25, 0.75) * width
                inputs.append(SweepInput(alpha, lo, lo + width, steps))
        rng.shuffle(inputs)
        return inputs

    def prepare(self, inputs: list[SweepInput]) -> None:
        """Write each input's config file once, before any op runs."""
        for inp in inputs:
            if inp not in self._configs:
                path = self.workdir / f"sweep{len(self._configs)}.conf"
                path.write_text(inp.config_text(), encoding="utf-8")
                self._configs[inp] = path

    def run(self, inp: SweepInput) -> SweepOutput:
        outdir = Path(tempfile.mkdtemp(prefix="op", dir=self.workdir))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = multiwell.cli.main(["sweep", "--config", str(self._configs[inp]),
                                       "--outdir", str(outdir), "--jobs", "1"])
        return SweepOutput(code, outdir, buf.getvalue())

    def check(self, inp: SweepInput, out: SweepOutput) -> float:
        try:
            if out.code != 0:
                raise CheckFailed(f"{inp}: sweep exited {out.code}")
            manifest = json.loads((out.outdir / "sweep_manifest.json").read_text(
                encoding="utf-8"))
            rows = manifest["results"]
            if len(rows) != inp.steps:
                raise CheckFailed(f"{inp}: {len(rows)} rows")
            worst = max(abs(r["w_central"] + r["w_outer"] - 1.0) for r in rows)
            if worst > WEIGHT_SUM_TOL:
                raise CheckFailed(f"{inp}: |w_central + w_outer - 1| = {worst:.3e}")
            crossing = manifest["crossing"]
            if crossing is None:
                raise CheckFailed(f"{inp}: no crossing reported")
            err = abs(crossing - self.reference[(inp.alpha, 0, 0)]) / inp.lattice_step
            if not err <= 1.0:
                raise CheckFailed(f"{inp}: crossing {crossing!r} is {err:.2f} lattice "
                                  "steps from delta_ref(0,0)")
            return err
        finally:
            shutil.rmtree(out.outdir, ignore_errors=True)

    def bytes_written(self, out: SweepOutput) -> int:
        """CSV + manifest + stdout bytes of one op (before check removes them)."""
        files = sum(p.stat().st_size for p in out.outdir.iterdir())
        return files + len(out.stdout.encode("utf-8"))


WORKLOADS = {cls.name: cls for cls in (HarmonicStudy, AlcNumeric, RelocSweep)}
