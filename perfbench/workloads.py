"""Seeded workloads: input generators, item runners and warm-up items.

Every workload is a closed loop: one caller in one process issues items one
after another.  Inputs come only from the seed, and the program sees nothing
but the generated arguments.  Items are generated in blocks with a fixed
composition, and the timed loop only stops at a block boundary, so every run
sees the same mix of item kinds whatever the seed (a crosscheck block of ten
channels takes about 18 s, so a 20 s run is one block).  Within a kind, the
inputs that set an item's cost are drawn stratified, so the seed changes the
draws but hardly their total cost.

Item runners reach the package through module attributes looked up at call
time (``fluxtube.find_xi_roots``, ``fluxtube.cli.main``), so the tracer's
patches in ``spans.py`` see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import fluxtube
import fluxtube.cli

import reference

WORKLOADS = ("crosscheck", "shell_scan", "closed_form")


@dataclass(frozen=True)
class Item:
    """One unit of user work: a kind and the generated arguments it runs on."""

    kind: str
    args: tuple


def round_alpha(x: float) -> float:
    """Flux values are drawn to 4 decimals, the precision a CLI user types."""
    return round(x, 4)


# ---------------------------------------------------------------------------
# crosscheck: matching roots and closed forms against the shooting oracle

_CC_ALPHAS = (0.5, -0.5, 1.5)
_CC_MS = (-1, 0, 1)
_CC_RADII = (0.1, 0.3)
_CC_SHELL_STRATA = 4


def _crosscheck_grid() -> list[Item]:
    """Criterion 07's 36 shell channels plus the 9 point-flux channels."""
    grid = []
    for alpha in _CC_ALPHAS:
        for m in _CC_MS:
            grid.append(Item("point", (alpha, m)))
            for sigma in (0.5, -0.5):
                for radius in _CC_RADII:
                    grid.append(Item("shell", (alpha, m, sigma, radius)))
    return grid


def oracle_cost_proxy(item: Item) -> Fraction:
    """Third point-flux level of the item's channel.

    The oracle scans energy in fixed steps up to just past that level, so it
    sets the number of shots, and with it the cost, of the item.
    """
    if item.kind == "point":
        alpha, m = item.args
        sigma = reference.regular_sigma(alpha)
    else:
        alpha, m, sigma, _ = item.args
    return reference.channel_levels(alpha, m, sigma, 3)[2]


def crosscheck_blocks(rng: random.Random):
    """Blocks of ten channels with the same spread of cheap and costly ones.

    The 36 shell channels are ordered by ``oracle_cost_proxy`` (ties broken
    by the seed) and cut into four strata of nine; the 9 point-flux channels
    into a cheap five and a costly four.  Each block draws two shell channels
    from every stratum and one point channel from each half, so a fifth of
    the items are point-flux ones and even a one-block run sees the whole
    cost range.
    """
    def ordered(kind):
        chans = [it for it in _crosscheck_grid() if it.kind == kind]
        return sorted(chans, key=lambda it: (oracle_cost_proxy(it), rng.random()))

    shells, points = ordered("shell"), ordered("point")
    size = len(shells) // _CC_SHELL_STRATA
    strata = [shells[k * size:(k + 1) * size] for k in range(_CC_SHELL_STRATA)]
    halves = [points[:5], points[5:]]
    while True:
        block = [it for stratum in strata for it in rng.sample(stratum, 2)]
        block += [rng.choice(half) for half in halves]
        rng.shuffle(block)
        yield block


def run_shell(alpha, m, sigma, radius):
    roots = fluxtube.find_xi_roots(fluxtube.TubeModel(radius, alpha, m, sigma), n_max=2)
    e_hi = max(r.energy for r in roots) + 0.4
    problem = fluxtube.ShootingProblem(alpha=alpha, m=m, sigma=sigma, shell_radius=radius)
    oracle = fluxtube.oracle_eigenvalues(problem, e_min=-0.3, e_max=e_hi, count=3)
    return tuple(r.energy for r in roots), tuple(oracle)


def run_point(alpha, m):
    sigma = fluxtube.FluxConfig(alpha).regular_sigma
    closed = tuple(fluxtube.energy_regular(n, m, alpha) for n in range(3))
    problem = fluxtube.ShootingProblem(alpha=alpha, m=m, sigma=sigma)
    oracle = fluxtube.oracle_eigenvalues(problem, e_min=-0.3, e_max=closed[-1] + 0.4,
                                         count=3)
    return closed, tuple(oracle)


# ---------------------------------------------------------------------------
# shell_scan: the R -> 0 migration study, matching roots only

#: Kinds and counts in one block of ten: z = R^2 sets the kummer_u branch.
SHELL_BLOCK = (("narrow", 6), ("wide", 3), ("far", 1))
#: Items per stratified group of one band, and how many of them get an
#: integer alpha (integer b, the log-series branch).
SHELL_GROUP = 10
SHELL_INT_ALPHA = 2
Z_NARROW = 8.0
Z_WIDE = 50.0
Z_FAR = 100.0
R_MIN = 0.05


def stratified(rng: random.Random, k: int) -> list[float]:
    """k uniforms on [0, 1), one in each k-th of the interval, shuffled."""
    out = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(out)
    return out


#: find_xi_roots scans no lower than xi = -(n_max + 1.7) = -3.7.  On wide and
#: far shells (from R = 4.5 in a sweep) the third root of the channels m >= 2
#: tends to alpha - 2, so for alpha < -1.7 it falls below that floor and the
#: call returns 2 of 3 roots (known defect ``short_scan`` in checks.py).
#: Those channels, with a margin of 0.05 in alpha, are left out of the
#: inputs: the benchmark runs only items the program gets right.
SHORT_SCAN_ALPHA = -1.65


def alpha_min(m: int) -> float:
    """Lowest flux drawn for orbital m: -2, or -1.65 where the scan floor bites."""
    return SHORT_SCAN_ALPHA if m >= 2 else -2.0


def _orbital_flux_cdf(u: float) -> float:
    """CDF of u = m + alpha for (m, alpha) uniform on m in -3..3 and
    alpha in [alpha_min(m), 2]."""
    total = sum(2.0 - alpha_min(m) for m in range(-3, 4))
    return sum(min(max(u - m - alpha_min(m), 0.0), 2.0 - alpha_min(m))
               for m in range(-3, 4)) / total


def _orbital_flux(rng: random.Random, q: float) -> tuple[int, float]:
    """(m, alpha) with m + alpha at quantile q of its distribution.

    Given u = m + alpha, every admissible m is equally likely, so drawing u
    first and then m keeps (m, alpha) uniform while u, which sets how far
    find_xi_roots scans (xi starts at max(u, 0) + sigma + 0.8), is stratified.
    """
    lo, hi = -5.0, 5.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _orbital_flux_cdf(mid) < q else (lo, mid)
    u = 0.5 * (lo + hi)
    m = rng.choice([m for m in range(-3, 4) if alpha_min(m) <= u - m <= 2.0])
    return m, round_alpha(u - m)


def _radius(band: str, q: float) -> float:
    if band == "narrow":
        return math.exp(math.log(R_MIN) + q * math.log(math.sqrt(Z_NARROW) / R_MIN))
    lo, hi = (Z_NARROW, Z_WIDE) if band == "wide" else (Z_WIDE, Z_FAR)
    return math.sqrt(lo + q * (hi - lo))


def _shell_group(rng: random.Random, band: str) -> list[Item]:
    """Ten items of one band with stratified radius and m + alpha, and
    balanced spin: the seed changes the draws but not their spread."""
    radii = stratified(rng, SHELL_GROUP)
    sigmas = [0.5, -0.5] * (SHELL_GROUP // 2)
    rng.shuffle(sigmas)
    quantiles = stratified(rng, SHELL_GROUP - SHELL_INT_ALPHA)
    items = []
    for k in range(SHELL_GROUP):
        if k < SHELL_INT_ALPHA:
            alpha = float(rng.randint(-2, 2))
            m = rng.choice([m for m in range(-3, 4) if alpha >= alpha_min(m)])
        else:
            m, alpha = _orbital_flux(rng, quantiles[k - SHELL_INT_ALPHA])
        items.append(Item(band, (_radius(band, radii[k]), alpha, m, sigmas[k])))
    rng.shuffle(items)
    return items


def _groups(make_group):
    while True:
        yield from make_group()


def shell_blocks(rng: random.Random):
    streams = {band: _groups(lambda band=band: _shell_group(rng, band))
               for band, _ in SHELL_BLOCK}
    while True:
        block = [next(streams[band]) for band, count in SHELL_BLOCK for _ in range(count)]
        rng.shuffle(block)
        yield block


def run_scan(radius, alpha, m, sigma):
    roots = fluxtube.find_xi_roots(fluxtube.TubeModel(radius, alpha, m, sigma), n_max=2)
    return tuple(r.xi for r in roots)


# ---------------------------------------------------------------------------
# closed_form: spectra, eigenfunctions and the CLI, with no U and no oracle

#: Kinds and counts in one block of twenty.
CLOSED_BLOCK = (("state", 14), ("zero_mode", 2), ("enumerate", 1), ("vacancy", 1),
                ("cli", 2))
#: Distinct non-integer fluxes per run.  8 fluxes x 7 orbitals give about 110
#: distinct Gauss-Laguerre exponents, more than the rule cache's 64 slots.
CLOSED_ALPHAS = 8
#: Highest radial number of a state round trip.  From n = 4 up the default
#: 200-node rule of inner_product misses |norm - 1| <= 1e-10 for some fluxes
#: (known defect ``gl200_norm_loss`` in checks.py), so those states are left
#: out of the inputs.
STATE_N_MAX = 3
CLI_SUITES = ("spectrum", "susy", "residual")


def closed_blocks(rng: random.Random):
    pool = [round_alpha(-2.0 + 4.0 * q) for q in stratified(rng, CLOSED_ALPHAS)]
    streams = {
        "state": _groups(lambda: [_state_item(rng, pool)]),
        "zero_mode": _groups(lambda: [_zero_mode_item(rng, pool)]),
        "enumerate": _groups(lambda: _window_group(rng, "enumerate", pool)),
        "vacancy": _groups(lambda: _window_group(rng, "vacancy", pool)),
        "cli": _groups(lambda: _cli_group(rng, pool)),
    }
    while True:
        block = [next(streams[kind]) for kind, count in CLOSED_BLOCK for _ in range(count)]
        rng.shuffle(block)
        yield block


def _state_item(rng: random.Random, pool: list) -> Item:
    alpha = rng.choice(pool)
    while True:  # E = 0 states have no normalized partner; they are zero modes
        n, m = rng.randint(0, STATE_N_MAX), rng.randint(-3, 3)
        if reference.regular_energy(n, m, alpha) > 0:
            return Item("state", (n, m, alpha))


def _zero_mode_item(rng: random.Random, pool: list) -> Item:
    alpha = rng.choice(pool)
    ms = [m for m in range(-3, 4) if reference.zero_mode_exists(m, alpha)]
    return Item("zero_mode", (rng.choice(ms), alpha))


def _window_group(rng: random.Random, kind: str, pool: list, size: int = 8) -> list[Item]:
    """Enumeration windows E <= 3..14, m in [-h, h] with h in 2..30, on a Latin
    square: their cost, which grows with the state count, spreads evenly."""
    items = []
    for qe, qh in zip(stratified(rng, size), stratified(rng, size)):
        alpha = float(rng.randint(-2, 2)) if kind == "vacancy" else rng.choice(pool)
        half = 2 + int(29 * qh)
        items.append(Item(kind, (alpha, round(3.0 + 11.0 * qe, 2), -half, half)))
    return items


def _cli_group(rng: random.Random, pool: list) -> list[Item]:
    """Two calls of each subcommand, in seeded order."""
    items = [Item("cli", tuple(_cli_argv(rng, which, rng.choice(pool))))
             for which in ("spectrum", "wavefunction", "verify") * 2]
    rng.shuffle(items)
    return items


def _cli_argv(rng: random.Random, which: str, alpha: float) -> list[str]:
    """A command line; ``--output`` is relative, so it lands in $FLUXTUBE_OUTDIR."""
    if which == "verify":
        return ["verify", "--only", rng.choice(CLI_SUITES)]
    fmt = rng.choice(("csv", "json"))
    out = ["--format", fmt, "--output", "out." + fmt]
    if which == "spectrum":
        half = rng.randint(2, 8)
        argv = ["spectrum", "--alpha", repr(alpha), "--emax", "%.2f" % rng.uniform(2.0, 8.0),
                f"--m={-half}..{half}"]
        if rng.random() < 0.5:
            argv += ["--si", "2.5"]
        return argv + out
    n, m = rng.randint(0, 6), rng.randint(-3, 3)
    argv = ["wavefunction", "--alpha", repr(alpha), "--n", str(n), "--m", str(m)]
    if reference.regular_energy(n, m, alpha) > 0:
        argv.append("--superpartner")
    return argv + out


def run_state(n, m, alpha):
    p = fluxtube.psi_regular(n, m, alpha)
    there, back = ((fluxtube.RAISE, fluxtube.LOWER) if p.label.sigma == 0.5
                   else (fluxtube.LOWER, fluxtube.RAISE))
    q = fluxtube.apply_supercharge(p, there)
    recovered = fluxtube.apply_supercharge(q, back)
    norms = (fluxtube.inner_product(p, p), fluxtube.inner_product(q, q))
    return p, recovered, norms, fluxtube.hamiltonian_residual(q)


def run_zero_mode(m, alpha):
    z = fluxtube.psi_zero_mode(m, alpha)
    image = fluxtube.apply_supercharge(z, fluxtube.LOWER, normalized=False)
    return image, fluxtube.inner_product(z, z), fluxtube.hamiltonian_residual(z)


def run_enumerate(alpha, e_max, m_min, m_max):
    return fluxtube.enumerate_states(fluxtube.FluxConfig(alpha), e_max, m_min, m_max)


def run_vacancy(alpha, e_max, m_min, m_max):
    return fluxtube.vacancy_line_compare(alpha, e_max, m_min, m_max)


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fluxtube.cli.main(list(argv))
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# digests: compact, comparable records of an output, taken outside the timer

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _states_digest(states) -> tuple:
    return reference.states_digest(
        (s.label.n, s.label.m, s.label.sigma, s.label.tag, s.energy) for s in states)


def cli_digest(argv, code: int, stdout: str) -> tuple:
    """Exit code plus a hash of every byte the command wrote."""
    text = stdout
    if "--output" in argv:
        path = os.path.join(os.environ.get("FLUXTUBE_OUTDIR", ""),
                            argv[argv.index("--output") + 1])
        paths = [path, path + ".json"] if path.endswith(".csv") else [path]
        for p in paths:
            with open(p, encoding="utf-8") as fh:
                text += fh.read()
    return code, _sha(text), stdout.count("FAIL")


def digest(item: Item, out) -> tuple:
    kind = item.kind
    if kind in ("shell", "point", "narrow", "wide", "far"):
        return out
    if kind == "state":
        p, recovered, norms, resid = out
        recovery = float(np.max(np.abs(recovered.values - p.values)))
        return norms + (recovery, resid)
    if kind == "zero_mode":
        image, norm, resid = out
        return norm, float(np.max(np.abs(image.values))), resid
    if kind == "enumerate":
        return _states_digest(out)
    if kind == "vacancy":
        return (_states_digest(out.regular_condition),
                _states_digest(out.vanishing_condition),
                _states_digest(out.missing_under_vanishing))
    if kind == "cli":
        return cli_digest(item.args, *out)
    raise ValueError(f"unknown item kind {kind!r}")


RUNNERS = {
    "shell": run_shell,
    "point": run_point,
    "narrow": run_scan,
    "wide": run_scan,
    "far": run_scan,
    "state": run_state,
    "zero_mode": run_zero_mode,
    "enumerate": run_enumerate,
    "vacancy": run_vacancy,
    "cli": run_cli,
}


def run_item(item: Item):
    return RUNNERS[item.kind](*item.args)


# ---------------------------------------------------------------------------
# per-workload entry points

def blocks(workload: str, seed: int):
    """Endless stream of input blocks for ``workload``, fixed by ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "crosscheck":
        return crosscheck_blocks(rng)
    if workload == "shell_scan":
        return shell_blocks(rng)
    if workload == "closed_form":
        return closed_blocks(rng)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_items(workload: str) -> list[Item]:
    """One fixed item of every kind the workload runs (not drawn from the seed)."""
    if workload == "crosscheck":  # the two cheapest channels of the grid
        return [Item("shell", (-0.5, -1, -0.5, 0.1)), Item("point", (-0.5, -1))]
    if workload == "shell_scan":
        return [Item("narrow", (0.5, 0.5, 0, 0.5)), Item("wide", (4.0, 0.5, 1, -0.5)),
                Item("far", (8.0, -0.5, 0, 0.5))]
    if workload == "closed_form":
        out = "warm.csv"
        return [
            Item("state", (2, 1, 0.5)),
            Item("zero_mode", (0, 0.5)),
            Item("enumerate", (0.5, 6.0, -6, 6)),
            Item("vacancy", (1.0, 4.0, -3, 3)),
            Item("cli", ("spectrum", "--alpha", "0.5", "--emax", "4", "--m=-4..4",
                         "--output", out)),
            Item("cli", ("wavefunction", "--alpha", "0.5", "--n", "1", "--m", "0",
                         "--superpartner", "--output", out)),
            Item("cli", ("verify", "--only", "susy")),
        ]
    raise ValueError(f"unknown workload {workload!r}")
