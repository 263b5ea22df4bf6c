"""Command-line interface.

Subcommands
-----------
spectrum      enumerate eigenstates below an energy cutoff
wavefunction  export a radial eigenfunction (optionally with its superpartner)
regularize    shrink a finite flux shell and tabulate the spectral migration
verify        run the built-in self-check suites

Output is CSV on stdout (or to ``--output``), with floats printed as %.12g
so runs are byte-for-byte reproducible; ``--format json`` emits a single
JSON document instead.  When ``--output`` is used with CSV, a JSON sidecar
``<output>.json`` records the run's parameters and column metadata.  A
relative ``--output`` is resolved inside ``$FLUXTUBE_OUTDIR`` when that is
set.  Exit codes: 0 success, 1 verification/convergence failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .oracle import ShootingProblem, oracle_eigenvalues
from .regularization import TubeModel, find_xi_roots, xi_limit_table
from .spectrum import (
    FluxConfig,
    energy_regular,
    enumerate_states,
    magnetic_units,
    vacancy_line_compare,
)
from .specfun import gauss_laguerre, kummer_m, kummer_u, laguerre, digamma
from .wavefunction import (
    LOWER,
    RAISE,
    NonNormalizableError,
    ZeroEnergyError,
    apply_supercharge,
    hamiltonian_residual,
    inner_product,
    psi_regular,
    psi_zero_mode,
)

__all__ = ["main", "build_parser", "run_verification"]


# ---------------------------------------------------------------------------
# formatting / output plumbing

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _resolve_output(path: str) -> str:
    outdir = os.environ.get("FLUXTUBE_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _emit(args, columns: list[str], rows: list[list], meta: dict) -> None:
    """Write the result table as CSV (+ JSON sidecar) or as one JSON document."""
    if args.format == "json":
        doc = {
            "meta": meta,
            "columns": columns,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()

    if args.output:
        path = _resolve_output(args.output)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if args.format == "csv":
            sidecar = {"meta": meta, "columns": columns, "row_count": len(rows)}
            with open(path + ".json", "w", encoding="utf-8") as fh:
                fh.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)


def _parse_sigma(text: str, parser: argparse.ArgumentParser) -> float:
    if text == "+":
        return 0.5
    if text == "-":
        return -0.5
    parser.error(f"--sigma must be '+' or '-', got {text!r}")


def _parse_m_range(text: str, parser: argparse.ArgumentParser) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        parser.error(f"--m expects an integer or A..B range, got {text!r}")
    if hi < lo:
        parser.error(f"--m range is empty: {text!r}")
    return lo, hi


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # reported as not finite, like nan and inf
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _radii(text: str) -> list[float]:
    """argparse type: comma-separated positive finite radii."""
    radii = [_finite_float(tok) for tok in text.split(",") if tok.strip()]
    if not radii or any(r <= 0 for r in radii):
        raise argparse.ArgumentTypeError("needs at least one positive radius")
    return radii


# ---------------------------------------------------------------------------
# spectrum

def _cmd_spectrum(args, parser) -> int:
    m_min, m_max = _parse_m_range(args.m, parser)
    cfg = FluxConfig(args.alpha)
    states = enumerate_states(cfg, args.emax, m_min, m_max)

    columns = ["energy[hbar*omega]", "n", "m", "sigma[hbar]", "m_plus_sigma",
               "tag", "xi", "norm[1/lambda]"]
    meta = {
        "command": "spectrum",
        "alpha": args.alpha,
        "e_max": args.emax,
        "m_min": m_min,
        "m_max": m_max,
        "state_count": len(states),
        "units": {
            "length": "lambda = sqrt(2 hbar / |e| B)",
            "energy": "hbar omega, omega = |e| B / M",
        },
    }

    si = None
    if args.si is not None:
        if args.si <= 0:
            parser.error("--si expects a positive field strength in tesla")
        si = magnetic_units(args.si)
        columns += ["energy[J]", "energy[meV]"]
        meta["si"] = {
            "b_tesla": si.b_tesla,
            "lambda_m": si.lambda_m,
            "hbar_omega_J": si.hbar_omega_joule,
            "hbar_omega_meV": si.hbar_omega_mev,
        }

    excluded = None
    if args.compare_vacancy:
        if args.alpha != int(args.alpha):
            parser.error("--compare-vacancy needs integer alpha "
                         "(the vacancy line sits at m + alpha = 0)")
        comp = vacancy_line_compare(args.alpha, args.emax, m_min, m_max)
        excluded = {(s.label.n, s.label.m, s.label.sigma, s.label.tag)
                    for s in comp.missing_under_vanishing}
        columns.append("under_vanishing_bc")
        meta["vacancy"] = {
            "missing_count": len(comp.missing_under_vanishing),
            "pairing_notes": list(comp.pairing_notes),
        }

    rows = []
    for s in states:
        row = [s.energy, s.label.n, s.label.m, s.label.sigma,
               s.label.m + s.label.sigma, s.label.tag, s.xi, s.norm_const]
        if si is not None:
            row += [s.energy * si.hbar_omega_joule, s.energy * si.hbar_omega_mev]
        if excluded is not None:
            key = (s.label.n, s.label.m, s.label.sigma, s.label.tag)
            row.append("absent" if key in excluded else "present")
        rows.append(row)

    _emit(args, columns, rows, meta)
    return 0


# ---------------------------------------------------------------------------
# wavefunction

def _cmd_wavefunction(args, parser) -> int:
    if args.points < 1:
        parser.error("--points must be >= 1")
    if args.zero_mode:
        if args.n is not None:
            parser.error("--zero-mode does not take --n (zero modes have n = 0)")
        try:
            prof = psi_zero_mode(args.m, args.alpha, r_max=args.rmax,
                                 npoints=args.points)
        except (NonNormalizableError, ValueError) as exc:
            parser.error(str(exc))
        if args.sigma is not None and _parse_sigma(args.sigma, parser) != -0.5:
            parser.error("zero modes carry sigma = -1/2")
    else:
        if args.n is None:
            parser.error("--n is required unless --zero-mode is given")
        try:
            prof = psi_regular(args.n, args.m, args.alpha, r_max=args.rmax,
                               npoints=args.points)
        except ValueError as exc:
            parser.error(str(exc))
        if args.sigma is not None:
            want = _parse_sigma(args.sigma, parser)
            if want != prof.label.sigma:
                parser.error(
                    f"for alpha = {args.alpha:g} the regular branch carries "
                    f"sigma = {prof.label.sigma:+g}; the opposite spin holds "
                    "superpartners (--superpartner) and zero modes (--zero-mode)")

    partner = None
    if args.superpartner:
        direction = RAISE if prof.label.sigma == 0.5 else LOWER
        try:
            partner = apply_supercharge(prof, direction)
        except ZeroEnergyError as exc:
            parser.error(f"{exc} (zero modes are annihilated, not paired)")

    columns = ["r[lambda]", "psi[1/lambda]"]
    rows = [[float(r), float(v)] for r, v in zip(prof.grid, prof.values)]
    meta = {
        "command": "wavefunction",
        "alpha": args.alpha,
        "label": {"n": prof.label.n, "m": prof.label.m,
                  "sigma": prof.label.sigma, "tag": prof.label.tag},
        "energy": prof.energy,
        "exponent": prof.exponent,
        "grid_points": len(rows),
        "r_max": float(prof.grid[-1]),
        "norm_quadrature": inner_product(prof, prof),
        "units": {"length": "lambda", "psi": "1/lambda (2-D L2-normalized)"},
    }
    if partner is not None:
        columns.append("psi_partner[1/lambda]")
        for row, v in zip(rows, partner.values):
            row.append(float(v))
        meta["partner"] = {
            "n": partner.label.n, "m": partner.label.m,
            "sigma": partner.label.sigma, "tag": partner.label.tag,
            "energy": partner.energy, "exponent": partner.exponent,
            "norm_quadrature": inner_product(partner, partner),
        }

    _emit(args, columns, rows, meta)
    return 0


# ---------------------------------------------------------------------------
# regularize

def _cmd_regularize(args, parser) -> int:
    if args.sigma is None:
        sigma = FluxConfig(args.alpha).regular_sigma
    else:
        sigma = _parse_sigma(args.sigma, parser)
    if args.nmax < 0:
        parser.error("--nmax must be >= 0")

    rows_data = xi_limit_table(args.m, sigma, args.alpha, args.R,
                               n_max=args.nmax, verify=args.verify)

    columns = ["R[lambda]", "n", "xi", "energy[hbar*omega]", "deviation",
               "residual"]
    if args.verify:
        columns += ["oracle_energy[hbar*omega]", "match_minus_oracle"]
    columns.append("note")

    rows = []
    for row in rows_data:
        rec = [row.radius, row.n, row.xi, row.energy, row.deviation,
               row.residual]
        if args.verify:
            rec += [row.oracle_energy, row.oracle_diff]
        rec.append(row.note)
        rows.append(rec)

    meta = {
        "command": "regularize",
        "alpha": args.alpha,
        "m": args.m,
        "sigma": sigma,
        "radii": args.R,
        "n_max": args.nmax,
        "verified_against_oracle": bool(args.verify),
        "deviation": "xi_n + n (signed distance to the point-flux tower)",
    }
    _emit(args, columns, rows, meta)
    return 0


# ---------------------------------------------------------------------------
# verify

def _check(suite, name, value, tol):
    return {"suite": suite, "name": name, "value": float(value),
            "tolerance": float(tol), "passed": bool(value <= tol)}


def _verify_specfun(scale):
    checks = []
    # U at nonpositive integer a is a Laguerre polynomial
    worst = 0.0
    for n, b, z in [(0, 1.5, 0.3), (2, 1.5, 2.0), (4, 2.25, 7.0), (3, 1.0, 0.5),
                    (5, 3.5, 20.0)]:
        u = kummer_u(-float(n), b, z)
        ref = (-1.0) ** n * math.factorial(n) * float(laguerre(n, b - 1.0, z))
        worst = max(worst, abs(u - ref) / max(abs(ref), 1e-300))
    checks.append(_check("specfun", "u_laguerre_identity", worst, 1e-12 * scale))

    # contiguous recurrence in a (exercises the integral/recurrence regime)
    worst = 0.0
    for a, b, z in [(1.3, 1.5, 12.0), (2.7, 2.2, 25.0), (0.9, 1.1, 40.0),
                    (1.6, 2.5, 9.0)]:
        lhs = kummer_u(a - 1.0, b, z)
        rhs = (2.0 * a - b + z) * kummer_u(a, b, z) \
            - a * (a - b + 1.0) * kummer_u(a + 1.0, b, z)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    checks.append(_check("specfun", "u_contiguous_recurrence", worst, 1e-9 * scale))

    # Kummer transformation of M
    worst = 0.0
    for a, b, z in [(0.7, 1.5, 3.0), (-1.2, 2.5, 6.0), (2.3, 1.2, 10.0)]:
        worst = max(worst, abs(kummer_m(a, b, z) - math.exp(z) * kummer_m(b - a, b, -z))
                    / abs(kummer_m(a, b, z)))
    checks.append(_check("specfun", "m_kummer_transformation", worst, 1e-10 * scale))

    # quadrature moments against Gamma
    z, w = gauss_laguerre(40, 0.7)
    worst = 0.0
    for k in range(11):
        mom = float(np.dot(w, z ** k))
        ref = math.exp(math.lgamma(0.7 + k + 1.0))
        worst = max(worst, abs(mom - ref) / ref)
    checks.append(_check("specfun", "quadrature_moments", worst, 1e-12 * scale))

    # digamma recurrence
    worst = max(abs(digamma(x + 1.0) - digamma(x) - 1.0 / x)
                for x in (0.3, 1.7, 4.2, 9.9, -2.3))
    checks.append(_check("specfun", "digamma_recurrence", worst, 1e-12 * scale))
    return checks


def _verify_spectrum(scale):
    checks = []
    # alpha -> 0 limit lands on the Landau levels
    states = enumerate_states(FluxConfig(1e-9), 3.4, -3, 3)
    base = enumerate_states(FluxConfig(0.0), 3.4, -3, 3)
    checks.append(_check("spectrum", "landau_limit_count",
                         abs(len(states) - len(base)), 0.5))
    worst = max(abs(s.energy - round(s.energy)) for s in states)
    checks.append(_check("spectrum", "landau_limit_energy", worst, 1e-8 * scale))

    # every superpartner has a positive-energy source at (n, m -+ 1)
    worst = 0.0
    for s in enumerate_states(FluxConfig(0.5), 4.5, -4, 4):
        if s.label.tag != "superpartner":
            continue
        src_e = energy_regular(s.label.n, s.label.m - 1, 0.5)
        worst = max(worst, abs(s.energy - src_e), 1.0 if src_e <= 0 else 0.0)
    checks.append(_check("spectrum", "superpartner_pairing", worst, 1e-12 * scale))
    return checks


def _verify_susy(scale):
    checks = []
    p = psi_regular(1, 0, 0.5)
    q_raw = apply_supercharge(p, RAISE, normalized=False)
    checks.append(_check("susy", "supercharge_norm_identity",
                         abs(inner_product(q_raw, q_raw) - p.energy), 1e-10 * scale))
    q = apply_supercharge(p, RAISE)
    back = apply_supercharge(q, LOWER)
    r = np.linspace(0.05, 8.0, 400)
    checks.append(_check("susy", "supercharge_recovery",
                         float(np.max(np.abs(back.analytic(r) - p.analytic(r)))),
                         1e-10 * scale))
    zm = psi_zero_mode(0, 0.5)
    ann = apply_supercharge(zm, LOWER, normalized=False)
    checks.append(_check("susy", "zero_mode_annihilation",
                         float(np.max(np.abs(ann.values))), 1e-10 * scale))
    return checks


def _verify_residual(scale):
    profiles = [
        psi_regular(0, 0, 0.5),
        psi_regular(2, 1, 0.5),
        psi_regular(1, -1, -0.7),
        apply_supercharge(psi_regular(1, 0, 0.3), RAISE),
        psi_zero_mode(0, 0.7),
    ]
    worst = max(hamiltonian_residual(p) for p in profiles)
    return [_check("residual", "eigen_equation_residual", worst, 1e-7 * scale)]


def _verify_regularization(scale):
    checks = []
    devs = {}
    worst_res = 0.0
    for radius in (0.5, 0.2):
        roots = find_xi_roots(TubeModel(radius, 0.5, 0, 0.5), n_max=2)
        devs[radius] = [abs(r.xi + n) for n, r in enumerate(roots)]
        worst_res = max(worst_res, max(r.residual for r in roots))
    checks.append(_check("regularization", "matching_residual",
                         worst_res, 1e-10 * scale))
    ratio = max(d2 / d5 for d2, d5 in zip(devs[0.2], devs[0.5]))
    checks.append(_check("regularization", "deviation_shrinks", ratio, 0.5))
    return checks


def _verify_oracle(scale):
    checks = []
    evs = oracle_eigenvalues(ShootingProblem(alpha=0.0, m=0, sigma=-0.5),
                             e_min=-0.3, e_max=2.6)
    worst = max(abs(e - n) for n, e in enumerate(evs)) if len(evs) == 3 else 1.0
    checks.append(_check("oracle", "landau_levels", worst, 1e-8 * scale))

    evs = oracle_eigenvalues(ShootingProblem(alpha=0.6, m=1, sigma=0.5),
                             e_min=-0.3, e_max=4.7)
    worst = (max(abs(e - energy_regular(n, 1, 0.6)) for n, e in enumerate(evs))
             if len(evs) == 3 else 1.0)
    checks.append(_check("oracle", "flux_channel_vs_closed_form", worst, 1e-8 * scale))

    evs = oracle_eigenvalues(
        ShootingProblem(alpha=0.5, m=0, sigma=0.5, shell_radius=0.2),
        e_min=-0.3, e_max=3.8)
    roots = find_xi_roots(TubeModel(0.2, 0.5, 0, 0.5), n_max=2)
    worst = (max(abs(e - r.energy) for e, r in zip(evs, roots))
             if len(evs) == 3 else 1.0)
    checks.append(_check("oracle", "shell_matching_cross_check", worst, 1e-7 * scale))
    return checks


_SUITES = {
    "specfun": _verify_specfun,
    "spectrum": _verify_spectrum,
    "susy": _verify_susy,
    "residual": _verify_residual,
    "regularization": _verify_regularization,
    "oracle": _verify_oracle,
}


def run_verification(scale: float = 1.0, only: str | None = None) -> list[dict]:
    """Run the self-check suites; returns one record per check."""
    suites = [only] if only else list(_SUITES)
    checks = []
    for name in suites:
        checks.extend(_SUITES[name](scale))
    return checks


def _cmd_verify(args, parser) -> int:
    if args.tolerance <= 0:
        parser.error("--tolerance must be a positive scale factor")
    checks = run_verification(scale=args.tolerance, only=args.only)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} [{c['suite']}] {c['name']}: "
              f"value={c['value']:.3g} tol={c['tolerance']:.3g}")
    n_fail = sum(not c["passed"] for c in checks)
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    if args.output:
        report = {"all_passed": n_fail == 0, "tolerance_scale": args.tolerance,
                  "checks": checks}
        path = _resolve_output(args.output)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxtube",
        description="Landau levels pierced by a singular magnetic flux tube: "
                    "spectra, radial eigenfunctions, supersymmetric pairing, "
                    "and the shrinking flux-shell limit.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", help="write here instead of stdout "
                       "(relative paths resolve in $FLUXTUBE_OUTDIR)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="table format (default csv; csv + --output also "
                            "writes a .json sidecar)")

    p = sub.add_parser("spectrum", help="enumerate eigenstates below a cutoff")
    p.add_argument("--alpha", type=_finite_float, required=True,
                   help="tube flux in units of the flux quantum")
    p.add_argument("--emax", type=_finite_float, default=6.0,
                   help="energy cutoff in hbar*omega (default 6)")
    p.add_argument("--m", default="-3..3",
                   help="orbital window as A..B or a single integer; write "
                        "--m=-3..3 when it starts with a minus (default -3..3)")
    p.add_argument("--compare-vacancy", action="store_true",
                   help="at integer alpha, mark the states deleted by a "
                        "vanishing-at-origin boundary condition")
    p.add_argument("--si", type=_finite_float, metavar="B_TESLA",
                   help="also print SI energies for this field strength")
    add_output(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("wavefunction", help="export a radial eigenfunction")
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--n", type=int, help="radial quantum number (regular branch)")
    p.add_argument("--m", type=int, required=True, help="orbital quantum number")
    p.add_argument("--sigma", choices=("+", "-"),
                   help="spin projection; optional, checked against the branch")
    p.add_argument("--zero-mode", action="store_true",
                   help="export the E = 0 mode of this m instead of a regular state")
    p.add_argument("--superpartner", action="store_true",
                   help="add the supercharge image (m shifted, spin flipped) "
                        "as a third column")
    p.add_argument("--rmax", type=_finite_float, help="grid end (default sqrt(2E)+10)")
    p.add_argument("--points", type=int, default=800, help="grid points (default 800)")
    add_output(p)
    p.set_defaults(func=_cmd_wavefunction)

    p = sub.add_parser("regularize",
                       help="finite flux shell: spectral migration as R shrinks")
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sigma", choices=("+", "-"),
                   help="spin projection (default: the regular branch for alpha)")
    p.add_argument("--R", type=_radii, required=True,
                   help="comma-separated shell radii in lambda, e.g. 0.5,0.2,0.1")
    p.add_argument("--nmax", type=int, default=2,
                   help="track roots n = 0..nmax (default 2)")
    p.add_argument("--verify", action="store_true",
                   help="cross-check each energy with the shooting oracle")
    add_output(p)
    p.set_defaults(func=_cmd_regularize)

    p = sub.add_parser("verify", help="run the built-in self-check suites")
    p.add_argument("--tolerance", type=_finite_float, default=1.0,
                   help="scale factor applied to every check tolerance (default 1)")
    p.add_argument("--only", choices=tuple(_SUITES),
                   help="run a single suite")
    p.add_argument("--output", help="write a JSON report here "
                   "(relative paths resolve in $FLUXTUBE_OUTDIR)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
