"""fluxtube benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload shell_scan --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The run

1. takes three set-up samples, each a fresh interpreter that imports
   fluxtube and runs one warm-up item of each kind (probe.py);
2. warms up this process the same way, then runs the workload's seeded
   blocks of items back to back until the items have taken ``--seconds``,
   to the nearest block boundary
   (``--trace 1``: half of it, then the same items again under the span
   tracer of spans.py);
3. checks every item against an independent reference (checks.py), and
   runs one input of each known defect the inputs leave out, to report
   whether it is still there;
4. prints a report and, as its last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and the metrics named in BENCHMARK.json:
   ``end_to_end`` ones for ``--trace 0``, ``per_layer`` ones for
   ``--trace 1``.

It exits non-zero, printing no result, when the package or the benchmark
cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120

# One thread per process: numpy and LAPACK must not fan out over the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


#: The bypass structure each workload is meant to show in its trace.
BYPASS = {
    "crosscheck": lambda v: {"oracle.self_frac >= 0.9": v["oracle.self_frac"] >= 0.9},
    "shell_scan": lambda v: {
        "specfun + regularization self_frac >= 0.5":
            v["specfun.self_frac"] + v["regularization.self_frac"] >= 0.5,
        "no oracle.shoot calls": v["oracle.shoot.calls"] == 0},
    "closed_form": lambda v: {"no oracle.shoot calls": v["oracle.shoot.calls"] == 0,
                              "no kummer_u calls": v["specfun.kummer_u.calls"] == 0},
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("crosscheck", "shell_scan", "closed_form"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_sample(workload: str, workdir: Path) -> dict:
    outdir = tempfile.mkdtemp(prefix="probe-", dir=workdir)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, outdir],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_items(blocks, seconds, runner, workloads):
    """Run blocks of items and stop at the block boundary nearest to where
    the items' summed latency reaches ``seconds``.  Returns (items,
    latencies, digests)."""
    perf = time.perf_counter
    items, lat, digs = [], [], []
    busy = 0.0
    for block in blocks:
        before = busy
        for item in block:
            t0 = perf()
            try:
                out = runner(len(items), item)
            except Exception as exc:  # a raising item is a failed item
                dt = perf() - t0
                dig = ("raised", repr(exc))
            else:
                dt = perf() - t0
                dig = workloads.digest(item, out)
            items.append(item)
            lat.append(dt)
            digs.append(dig)
            busy += dt
        # one more block like this one would overshoot more than we fall short
        if busy + (busy - before) / 2 >= seconds:
            break
    return items, lat, digs


def check_all(items, digs, checks) -> list[str]:
    cli_refs: dict = {}
    out = []
    for item, dig in zip(items, digs):
        if isinstance(dig, tuple) and dig and dig[0] == "raised":
            out.append(f"fail:raised {dig[1]}")
        else:
            out.append(checks.check(item, dig, cli_refs))
    return out


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fluxtube").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "numba_available": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "seed": seed,
    }


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def emit(spec_metrics, values: dict) -> dict:
    """Metrics named in BENCHMARK.json, each with its unit; all must exist."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def report_failures(items, statuses):
    bad = [(it, st) for it, st in zip(items, statuses) if st != "ok"]
    for it, st in bad:
        print(f"# failed item: {it.kind} {it.args!r}: {st}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "fluxtube" / "__init__.py").is_file():
        print(f"perfbench: no fluxtube package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)

    setups = [setup_sample(args.workload, workdir) for _ in range(SETUP_SAMPLES)]

    sys.path.insert(0, str(ROOT / "src"))
    import fluxtube

    if Path(fluxtube.__file__).resolve().parent != ROOT / "src" / "fluxtube":
        raise RuntimeError(f"imported fluxtube from {fluxtube.__file__}")
    import checks
    import spans
    import workloads

    gl_cache = fluxtube.specfun.gauss_laguerre
    outdir = tempfile.mkdtemp(prefix="run-", dir=workdir)
    os.environ["FLUXTUBE_OUTDIR"] = outdir
    try:
        for item in workloads.warmup_items(args.workload):
            workloads.run_item(item)
        blocks = workloads.blocks(args.workload, args.seed)

        def untraced(_, item):
            return workloads.run_item(item)

        gl_cache.cache_clear()
        seconds = args.seconds / 2 if args.trace else args.seconds
        items, lat, digs = run_items(blocks, seconds, untraced, workloads)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.trace:
            tracer = spans.Tracer()
            gl_cache.cache_clear()
            tracer.install()
            try:
                _, t_lat, t_digs = run_items(
                    iter([items]), 0.0,
                    lambda i, item: tracer.run_item(i, workloads.run_item, item),
                    workloads)
            finally:
                tracer.uninstall()
            info = gl_cache.cache_info()
        statuses = check_all(items, digs, checks)
        witnesses = checks.defect_witnesses(args.workload)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} items={len(items)}")
    kinds: dict = {}
    for it in items:
        kinds[it.kind] = kinds.get(it.kind, 0) + 1
    print("# item kinds " + json.dumps(kinds, sort_keys=True))

    if args.trace:
        t_status = [st if td == d else "fail:traced output differs from untraced"
                    for st, d, td in zip(statuses, digs, t_digs)]
        summary = checks.summarize(statuses + t_status)
        values = spans.layer_metrics(tracer, (info.hits, info.misses), args.seed)
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        values["setup.warmup_s"] = statistics.median(s["warmup_s"] for s in setups)
        values["trace.overhead_frac"] = sum(t_lat) / sum(lat) - 1.0
        spans.print_report(tracer, values, BYPASS[args.workload](values))
        tracer.write(str(workdir / f"trace-{args.workload}-seed{args.seed}.csv.gz"))
        metrics = emit(spec["per_layer"], values)
    else:
        summary = checks.summarize(statuses)
        values = {
            "setup_s": statistics.median(s["import_s"] + s["warmup_s"] for s in setups),
            "items_per_s": len(lat) / sum(lat),
            "item_ms_p50": statistics.median(lat) * 1e3,
            "item_ms_p90": percentile(lat, 90) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = emit(spec["end_to_end"], values)
        for name, rec in metrics.items():
            print(f"# {name} = {rec['value']:.6g} {rec['unit']}")
    report_failures(items, statuses)
    print(f"# failed_frac = {summary['failed_frac']:.6g} "
          f"({summary['failed']} of {summary['attempted']})")
    for line in witnesses:
        print("# " + line)
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
