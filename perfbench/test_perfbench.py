"""Self-tests of the benchmark harness (inputs, checks, tracing), not of fluxtube.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import fluxtube  # noqa: E402
import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Item  # noqa: E402


def take(workload, seed, n_blocks):
    gen = workloads.blocks(workload, seed)
    return [next(gen) for _ in range(n_blocks)]


def kinds(block):
    out = {}
    for it in block:
        out[it.kind] = out.get(it.kind, 0) + 1
    return out


# -- inputs -------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert take(workload, 7, 5) == take(workload, 7, 5)
    assert take(workload, 7, 5) != take(workload, 8, 5)


@pytest.mark.parametrize("seed", range(1, 6))
def test_shell_scan_composition(seed):
    blocks = take("shell_scan", seed, 100)
    bands = {"narrow": (0.0, 8.0), "wide": (8.0, 50.0), "far": (50.0, 100.0)}
    for block in blocks:
        assert kinds(block) == dict(workloads.SHELL_BLOCK)
        for it in block:
            radius, alpha, m, sigma = it.args
            lo, hi = bands[it.kind]
            assert lo < radius * radius <= hi
            assert -3 <= m <= 3 and sigma in (0.5, -0.5)
            assert workloads.alpha_min(m) <= alpha <= 2.0
    items = [it for block in blocks for it in block]
    integer = sum(it.args[1] == int(it.args[1]) for it in items) / len(items)
    assert abs(integer - workloads.SHELL_INT_ALPHA / workloads.SHELL_GROUP) <= 0.05
    up = sum(it.args[3] == 0.5 for it in items) / len(items)
    assert abs(up - 0.5) <= 0.05


@pytest.mark.parametrize("seed", range(1, 6))
def test_crosscheck_blocks_span_every_cost_quartile(seed):
    shells = sorted(workloads.oracle_cost_proxy(it)
                    for it in workloads._crosscheck_grid() if it.kind == "shell")
    for block in take("crosscheck", seed, 10):
        assert kinds(block) == {"shell": 8, "point": 2}
        drawn = sorted(workloads.oracle_cost_proxy(it) for it in block if it.kind == "shell")
        for k in range(4):
            stratum = shells[9 * k:9 * k + 9]
            assert all(stratum[0] <= p <= stratum[-1] for p in drawn[2 * k:2 * k + 2])
        points = sorted(workloads.oracle_cost_proxy(it) for it in block if it.kind == "point")
        assert points[0] <= 3.5 <= points[1]


@pytest.mark.parametrize("seed", range(1, 6))
def test_closed_form_composition(seed):
    blocks = take("closed_form", seed, 30)
    exponents = set()
    for block in blocks:
        assert kinds(block) == dict(workloads.CLOSED_BLOCK)
        for it in block:
            if it.kind == "state":
                n, m, alpha = it.args
                assert 0 <= n <= workloads.STATE_N_MAX
                assert reference.regular_energy(n, m, alpha) > 0
                exponents.add(abs(m + alpha))
            elif it.kind == "zero_mode":
                assert reference.zero_mode_exists(*it.args)
    pairs = set()
    for am in exponents:  # each state norm and partner norm needs its own rule
        pairs.update((round(am, 9), round(am + 1, 9), round(abs(am - 1), 9)))
    assert len(pairs) > 64


# -- checks -------------------------------------------------------------------

def test_planted_wrong_results_count_as_failed():
    shell = Item("narrow", (0.5, 0.5, 0, 0.5))
    xis = workloads.digest(shell, workloads.run_item(shell))
    state = Item("state", (1, 0, 0.5))
    good = workloads.digest(state, workloads.run_item(state))
    point = Item("point", (-0.5, -1))
    closed, oracle = workloads.run_item(point)

    statuses = [
        checks.check(shell, xis, {}),
        checks.check(shell, (xis[0] + 1e-3,) + xis[1:], {}),
        checks.check(state, good, {}),
        checks.check(state, (1.0 + 1e-6,) + good[1:], {}),
        checks.check(point, (closed, tuple(e + 1e-5 for e in oracle)), {}),
    ]
    assert [s.split(":")[0] for s in statuses] == ["ok", "fail", "ok", "fail", "fail"]
    summary = checks.summarize(statuses)
    assert summary["attempted"] == 5 and summary["failed"] == 3
    assert summary["failed_frac"] == pytest.approx(0.6) and summary["correct"] is False


def test_known_defects_fail_their_check_and_stay_reported():
    # the 200-node norm loss cited for (n, m, alpha) = (6, -2, 1.2271)
    item = Item("state", (6, -2, 1.2271))
    assert checks.check(item, workloads.digest(item, workloads.run_item(item)), {}) \
        .startswith("fail:norms")
    for workload, name in (("shell_scan", "short_scan"), ("closed_form", "gl200_norm_loss")):
        [line] = checks.defect_witnesses(workload)
        assert line.startswith(f"known defect {name} ") and ": present;" in line


def test_inputs_leave_out_the_short_scan_channels():
    # below alpha = -1.7 the third root of a wide shell with m >= 2 falls
    # under the scan floor; the inputs stop 0.05 above that
    assert len(workloads.run_scan(6.0, -1.9, 2, 0.5)) == 2
    assert len(workloads.run_scan(6.0, workloads.SHORT_SCAN_ALPHA, 2, 0.5)) == 3
    assert len(workloads.run_scan(6.0, -1.9, 1, 0.5)) == 3


def test_reference_spectrum_matches_program_order():
    for alpha in (0.37, -1.25, 1.0, -2.0, 0.0):
        states = fluxtube.enumerate_states(fluxtube.FluxConfig(alpha), 7.5, -5, 5)
        got = [(s.label.n, s.label.m, s.label.sigma, s.label.tag, s.energy) for s in states]
        assert got == reference.reference_states(alpha, 7.5, -5, 5)


# -- tracing ------------------------------------------------------------------

def synthetic_tracer():
    """item > kummer_u > kummer_u (b < 1 lift) > kummer_m, and
    item > kummer_m > kummer_m (Kummer reflection)."""
    tr = spans.Tracer()
    item = tr._item_name
    u = tr._name_id("specfun.kummer_u", "specfun")
    m = tr._name_id("specfun.kummer_m", "specfun")
    tr.spans = [[item, 0.0, 10.0, -1, 0], [u, 1.0, 6.0, 0, 0], [u, 2.0, 5.0, 1, 0],
                [m, 3.0, 4.0, 2, 0], [m, 6.5, 9.0, 0, 0], [m, 7.0, 8.0, 4, 0]]
    tr.notes = {1: (0.3, 0.5, 2.0, 1.0), 2: (0.8, 1.5, 2.0, 1.0)}
    return tr


def test_self_time_arithmetic_on_nested_trace():
    tr = synthetic_tracer()
    assert spans.self_times(tr.spans) == pytest.approx([2.5, 2.0, 2.0, 1.0, 1.5, 1.0])
    calls = spans.outermost(tr.spans, tr.names)
    assert calls["specfun.kummer_u"] == [1] and calls["specfun.kummer_m"] == [3, 4]
    m = spans.layer_metrics(tr, (0, 0), audit_seed=1)
    assert m["specfun.self_frac"] == pytest.approx(0.75)
    assert m["bench.self_frac"] == pytest.approx(0.25)
    assert m["specfun.kummer_u.calls"] == 1 and m["specfun.kummer_m.calls"] == 2
    assert m["specfun.kummer_u.small_z_us"] == pytest.approx(5e6)
    assert m["specfun.kummer_m_us"] == pytest.approx(1.75e6)


def test_self_time_clips_and_merges_overlapping_children():
    tr = spans.Tracer()
    a = tr._name_id("a", "bench")
    tr.spans = [[a, 0.0, 10.0, -1, 0], [a, -1.0, 3.0, 0, 0], [a, 2.0, 4.0, 0, 0],
                [a, 8.0, 12.0, 0, 0]]
    assert spans.self_times(tr.spans)[0] == pytest.approx(10.0 - 4.0 - 2.0)


def test_tracer_sees_recursion_and_restores_the_package():
    original = fluxtube.specfun.kummer_u
    tr = spans.Tracer()
    tr.install()
    try:
        assert fluxtube.regularization.kummer_u is fluxtube.specfun.kummer_u is not original
        u = tr.run_item(0, fluxtube.specfun.kummer_u, 0.3, 0.5, 2.0)       # b < 1 lift
        mv = tr.run_item(1, fluxtube.specfun.kummer_m, 0.5, 1.5, -40.0)    # reflection
    finally:
        tr.uninstall()
    assert fluxtube.specfun.kummer_u is original
    assert fluxtube.regularization.kummer_u is original
    assert u == original(0.3, 0.5, 2.0) and mv == fluxtube.specfun.kummer_m(0.5, 1.5, -40.0)
    names = [tr.names[r[0]] for r in tr.spans]
    u_spans = [i for i, n in enumerate(names) if n == "specfun.kummer_u"]
    assert len(u_spans) == 2 and tr.spans[u_spans[1]][3] == u_spans[0]
    m_top = [i for i, n in enumerate(names) if n == "specfun.kummer_m" and tr.spans[i][4] == 1]
    assert len(m_top) == 2 and tr.spans[m_top[1]][3] == m_top[0]
    selfs = spans.self_times(tr.spans)
    for root in (i for i, r in enumerate(tr.spans) if r[3] < 0):
        under = [i for i, r in enumerate(tr.spans) if r[4] == tr.spans[root][4]]
        assert sum(selfs[i] for i in under) == pytest.approx(
            tr.spans[root][2] - tr.spans[root][1], rel=1e-9)
    m = spans.layer_metrics(tr, (0, 0), audit_seed=1)
    assert m["specfun.kummer_u.calls"] == 1 and m["specfun.kummer_m.calls"] == 1 + 2
    assert m["specfun.kummer_u.audit_max_rel_err"] < 1e-8


# -- the command --------------------------------------------------------------

def run_bench(root, *args):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=root)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, "--workload", "closed_form", "--seed", "3", "--seconds", "0.5",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert [m["name"] for m in spec[section]] == list(result["metrics"])
    for m in spec[section]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "shell_scan", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
