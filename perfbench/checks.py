"""Per-item correctness checks, run after the timed section.

``check`` returns ``"ok"`` or ``"fail:<reason>"``; any failed item makes the
run incorrect.  The inputs leave out the channels and states where the
program is known to be wrong (``KNOWN_DEFECTS``); ``defect_witnesses`` runs
one such input per defect outside the timed section, so that every report
says whether each defect is still there.
"""

from __future__ import annotations

import math

import reference
import workloads

#: Shell roots must agree with the oracle, and closed forms with the oracle.
ORACLE_TOL = 1e-6
#: ``fluxtube verify`` tolerances for norms, supercharge recovery, residuals.
NORM_TOL = 1e-10
RECOVERY_TOL = 1e-10
RESIDUAL_TOL = 1e-7
#: Half-width of the interval across which W must change sign at a root.
ROOT_BRACKET = 1e-8
N_MAX = 2

#: Defects of the program that the inputs leave out, each with the workload
#: it concerns and one input that shows it.
KNOWN_DEFECTS = {
    "short_scan": {
        "workload": "shell_scan",
        "item": workloads.Item("wide", (6.0, -1.9, 2, 0.5)),
        "what": "find_xi_roots stops at its fixed floor xi = -(n_max + 1.7) and returns "
                "n_max of n_max + 1 roots for alpha < -1.7, m >= 2 on shells with "
                "R >= 4.5, where the third root tends to alpha - 2",
    },
    "gl200_norm_loss": {
        "workload": "closed_form",
        "item": workloads.Item("state", (6, -2, 1.2271)),
        "what": "inner_product's default 200-node Gauss-Laguerre rule misses "
                "|norm - 1| <= 1e-10 for some states with n >= 4 (up to 1e-4 at n = 6)",
    },
}


def defect_witnesses(workload: str) -> list[str]:
    """One report line per known defect of ``workload``: its witness input,
    run once, and whether the check still fails on it."""
    lines = []
    for name, defect in KNOWN_DEFECTS.items():
        if defect["workload"] != workload:
            continue
        item = defect["item"]
        status = check(item, workloads.digest(item, workloads.run_item(item)), {})
        state = "present" if status != "ok" else "gone: widen the inputs"
        lines.append(f"known defect {name} ({item.kind} {item.args!r}): {state}; "
                     f"{status}; {defect['what']}")
    return lines


def check(item: workloads.Item, dig, cli_refs: dict) -> str:
    try:
        return _CHECKS[item.kind](item, dig, cli_refs)
    except Exception as exc:  # a check that cannot run is a failed item
        return f"fail:check raised {exc!r}"


def _crosscheck_shell(item, dig, _):
    roots, oracle = dig
    if len(roots) != 3 or len(oracle) != 3:
        return f"fail:{len(roots)} matching roots, {len(oracle)} oracle roots"
    worst = max(abs(a - b) for a, b in zip(roots, oracle))
    return "ok" if worst <= ORACLE_TOL else f"fail:|matching - oracle| = {worst:.2e}"


def _crosscheck_point(item, dig, _):
    closed, oracle = dig
    alpha, m = item.args
    exact = tuple(float(reference.regular_energy(n, m, alpha)) for n in range(3))
    if closed != exact:
        return f"fail:energy_regular {closed} != exact {exact}"
    if len(oracle) != 3:
        return f"fail:{len(oracle)} oracle roots"
    worst = max(abs(a - b) for a, b in zip(closed, oracle))
    return "ok" if worst <= ORACLE_TOL else f"fail:|closed form - oracle| = {worst:.2e}"


def _shell_scan(item, xis, _):
    radius, alpha, m, sigma = item.args
    if len(xis) != N_MAX + 1:
        return f"fail:{len(xis)} of {N_MAX + 1} roots"
    if any(a <= b for a, b in zip(xis, xis[1:])):
        return f"fail:roots not strictly decreasing: {xis}"
    for xi in xis:
        if not reference.sign_change(radius, alpha, m, sigma,
                                     xi - ROOT_BRACKET, xi + ROOT_BRACKET):
            return f"fail:W keeps its sign across xi = {xi!r}"
    return "ok"


def _state(item, dig, _):
    norm_p, norm_q, recovery, resid = dig
    if recovery > RECOVERY_TOL:
        return f"fail:supercharge round trip off by {recovery:.2e}"
    if resid > RESIDUAL_TOL:
        return f"fail:partner residual {resid:.2e}"
    if max(abs(norm_p - 1.0), abs(norm_q - 1.0)) > NORM_TOL:
        return f"fail:norms {norm_p!r}, {norm_q!r}"
    return "ok"


def _zero_mode(item, dig, _):
    norm, image, resid = dig
    if abs(norm - 1.0) > NORM_TOL:
        return f"fail:zero-mode norm {norm!r}"
    if image > RECOVERY_TOL:
        return f"fail:lowering charge leaves {image:.2e}"
    return "ok" if resid <= RESIDUAL_TOL else f"fail:zero-mode residual {resid:.2e}"


def _enumerate(item, dig, _):
    ref = reference.states_digest(reference.reference_states(*item.args))
    return "ok" if dig == ref else f"fail:{dig[0]} states, exact recomputation {ref[0]}"


def _vacancy(item, dig, _):
    ref = reference.vacancy_digests(*item.args)
    if dig == ref:
        return "ok"
    return f"fail:(full, vanishing, missing) counts {[d[0] for d in dig]}, " \
           f"exact {[r[0] for r in ref]}"


def _cli(item, dig, cli_refs):
    code, sha, fails = dig
    if code != 0 or fails:
        return f"fail:exit code {code}, {fails} FAIL lines"
    ref = cli_refs.get(item.args)
    if ref is None:
        ref = cli_refs[item.args] = workloads.digest(item, workloads.run_item(item))
    return "ok" if dig == ref else "fail:output bytes differ from a repeat run"


_CHECKS = {
    "shell": _crosscheck_shell,
    "point": _crosscheck_point,
    "narrow": _shell_scan,
    "wide": _shell_scan,
    "far": _shell_scan,
    "state": _state,
    "zero_mode": _zero_mode,
    "enumerate": _enumerate,
    "vacancy": _vacancy,
    "cli": _cli,
}


def summarize(statuses: list[str]) -> dict:
    """Counts for the result line: every item that is not ok is failed, and
    one failed item makes the run incorrect."""
    failed = sum(s != "ok" for s in statuses)
    return {
        "attempted": len(statuses),
        "failed": failed,
        "correct": bool(statuses) and not failed,
        "failed_frac": failed / len(statuses) if statuses else math.nan,
    }
