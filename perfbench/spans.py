"""Span tracing around the package's public functions, and per-layer metrics.

The tracer replaces each traced function in every ``fluxtube`` module
namespace that binds it (``regularization.kummer_u``, ``cli.gauss_laguerre``
and so on), so calls between modules are seen as well as the benchmark's
own.  Each call records a span (name, start, end, parent, item id) in
memory.  A span's self time is its duration minus the part of it that its
child spans cover.  Per-call timings are medians over the outermost calls of
a function: the inner call of ``kummer_u``'s b < 1 lift or ``kummer_m``'s
Kummer reflection is part of the outer call, not a second one.
"""

from __future__ import annotations

import gzip
import math
import random
import statistics
import sys
import time
from collections import Counter, defaultdict

import reference

LAYERS = ("specfun", "spectrum", "wavefunction", "regularization", "oracle", "cli")
ITEM = "bench.item"


def _count(args, kwargs, result):
    return len(result)


def _u_args(args, kwargs, result):
    return args[0], args[1], args[2], result


def _subcommand(args, kwargs, result):
    return args[0][0]


#: (layer, function, note) for every traced function.  A note keeps the part
#: of a call's arguments or result that a layer metric needs.
TARGETS = (
    ("specfun", "kummer_u", _u_args),
    ("specfun", "kummer_m", None),
    ("specfun", "laguerre", None),
    ("specfun", "gauss_laguerre", None),
    ("spectrum", "enumerate_states", _count),
    ("spectrum", "vacancy_line_compare", None),
    ("wavefunction", "psi_regular", None),
    ("wavefunction", "psi_zero_mode", None),
    ("wavefunction", "apply_supercharge", None),
    ("wavefunction", "inner_product", None),
    ("wavefunction", "hamiltonian_residual", None),
    ("regularization", "find_xi_roots", _count),
    ("regularization", "matching_wronskian", None),
    ("oracle", "shoot", None),
    ("oracle", "oracle_eigenvalues", _count),
    ("cli", "main", _subcommand),
)


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self.spans: list[list] = []  # [name id, start, end, parent, item]
        self.notes: dict[int, object] = {}
        self.errors: Counter = Counter()
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._item_name = self._name_id(ITEM, "bench")

    def _name_id(self, name: str, layer: str) -> int:
        self.layer_of[name] = layer
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, layer: str, fn, note=None):
        """``fn`` recording one span per call."""
        name_id = self._name_id(name, layer)
        spans, stack, notes, errors = self.spans, self._stack, self.notes, self.errors
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, tracer.item]
            spans.append(rec)
            stack.append(idx)
            result = None
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                rec[2] = perf()
                stack.pop()
                if note is not None and result is not None:
                    notes[idx] = note(args, kwargs, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets=TARGETS, package: str = "fluxtube"):
        """Patch every module of ``package`` that binds a traced function."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for layer, attr, note in targets:
            home = sys.modules[f"{package}.{layer}"]
            original = getattr(home, attr)
            traced = self.wrap(f"{layer}.{attr}", layer, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._patches.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def run_item(self, item_id: int, fn, *args):
        """Run ``fn(*args)`` as one item, under a root span."""
        self.item = item_id
        rec = [self._item_name, 0.0, 0.0, -1, item_id]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self.item = -1

    def write(self, path: str):
        """Spans as gzip CSV: name, start, end, parent, item."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,item\n")
            for name_id, start, end, parent, item in self.spans:
                fh.write(f"{self.names[name_id]},{start!r},{end!r},{parent},{item}\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for idx, rec in enumerate(spans):
        if rec[3] >= 0:
            children[rec[3]].append(idx)
    out = []
    for idx, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered = 0.0
        lo = hi = None
        for child in sorted(children.get(idx, ()), key=lambda c: spans[c][1]):
            c_lo, c_hi = max(spans[child][1], start), min(spans[child][2], end)
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def outermost(spans, names) -> defaultdict:
    """Span indices by name, keeping only spans whose parent has another name."""
    out = defaultdict(list)
    for idx, rec in enumerate(spans):
        name = names[rec[0]]
        if rec[3] < 0 or names[spans[rec[3]][0]] != name:
            out[name].append(idx)
    return out


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def u_branch(a: float, b: float, z: float) -> str:
    """kummer_u's regime for (a, b, z): lattice, small_z, mid_z or large_z."""
    if b < 1.0:
        a = a - b + 1.0
    if abs(a - round(a)) < 1e-9 and round(a) <= 0:
        return "lattice"
    if z <= 8.0:
        return "small_z"
    return "mid_z" if z <= 50.0 else "large_z"


def layer_metrics(tracer: Tracer, gl_cache: tuple, audit_seed: int,
                  audit_size: int = 200) -> dict:
    """Per-layer metrics of a traced batch (values only; units live in
    BENCHMARK.json)."""
    spans, names = tracer.spans, tracer.names
    selfs = self_times(spans)
    dur = [rec[2] - rec[1] for rec in spans]
    by_name = outermost(spans, names)
    item_total = sum(dur[i] for i in by_name[ITEM]) or math.nan
    n_items = len(by_name[ITEM]) or math.nan

    def med(name, scale):
        return _median([dur[i] for i in by_name[name]], scale)

    m = {}
    layer_self = Counter()
    for idx, rec in enumerate(spans):
        layer_self[tracer.layer_of[names[rec[0]]]] += selfs[idx]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / n_items
        m[f"{layer}.self_frac"] = layer_self[layer] / item_total
        m[f"{layer}.errors"] = tracer.errors[layer]
    m["bench.self_frac"] = layer_self["bench"] / item_total

    shoot = by_name["oracle.shoot"]
    oracle_calls = by_name["oracle.oracle_eigenvalues"]
    oracle_roots = sum(tracer.notes.get(i, 0) for i in oracle_calls)
    m["oracle.shoot_ms"] = med("oracle.shoot", 1e3)
    m["oracle.shoot.calls"] = len(shoot)
    m["oracle.shoot.calls_per_root"] = len(shoot) / oracle_roots if oracle_roots else 0.0
    m["oracle.oracle_eigenvalues_s"] = med("oracle.oracle_eigenvalues", 1.0)

    u_calls = by_name["specfun.kummer_u"]
    by_branch = defaultdict(list)
    for i in u_calls:
        a, b, z, _ = tracer.notes[i]
        by_branch[u_branch(a, b, z)].append(dur[i])
    for branch in ("small_z", "mid_z", "large_z", "lattice"):
        m[f"specfun.kummer_u.{branch}_us"] = _median(by_branch[branch], 1e6)
    m["specfun.kummer_u.calls"] = len(u_calls)
    m["specfun.kummer_u.audit_max_rel_err"] = _audit_u(tracer, u_calls, audit_seed, audit_size)
    m["specfun.kummer_m_us"] = med("specfun.kummer_m", 1e6)
    m["specfun.kummer_m.calls"] = len(by_name["specfun.kummer_m"])
    m["specfun.gauss_laguerre_us"] = med("specfun.gauss_laguerre", 1e6)
    hits, misses = gl_cache
    m["specfun.gauss_laguerre.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["specfun.laguerre_us"] = med("specfun.laguerre", 1e6)

    scans = by_name["regularization.find_xi_roots"]
    roots = sum(tracer.notes[i] for i in scans)
    wronskian = by_name["regularization.matching_wronskian"]
    m["regularization.find_xi_roots_ms"] = med("regularization.find_xi_roots", 1e3)
    m["regularization.matching_wronskian_us"] = med("regularization.matching_wronskian", 1e6)
    m["regularization.matching_wronskian.calls_per_root"] = \
        len(wronskian) / roots if roots else 0.0
    m["regularization.short_scans"] = sum(1 for i in scans if tracer.notes[i] < 3)

    for fn in ("psi_regular", "apply_supercharge", "inner_product", "hamiltonian_residual"):
        m[f"wavefunction.{fn}_us"] = med(f"wavefunction.{fn}", 1e6)

    enum = by_name["spectrum.enumerate_states"]
    n_states = sum(tracer.notes[i] for i in enum)
    m["spectrum.enumerate_states_ms"] = med("spectrum.enumerate_states", 1e3)
    m["spectrum.enumerate_states_us_per_state"] = \
        sum(dur[i] for i in enum) / n_states * 1e6 if n_states else 0.0
    m["spectrum.vacancy_line_compare_ms"] = med("spectrum.vacancy_line_compare", 1e3)

    by_sub = defaultdict(list)
    for i in by_name["cli.main"]:
        by_sub[tracer.notes.get(i, "error")].append(dur[i])
    for sub in ("spectrum", "wavefunction", "verify"):
        m[f"cli.{sub}_ms"] = _median(by_sub[sub], 1e3)
    return m


def _audit_u(tracer: Tracer, u_calls: list[int], seed: int, size: int) -> float:
    """Worst relative error of a seeded sample of traced kummer_u calls."""
    if not u_calls:
        return 0.0
    sample = random.Random(seed).sample(u_calls, min(size, len(u_calls)))
    return max(reference.hyperu_rel_err(*tracer.notes[i]) for i in sample)


def print_report(tracer: Tracer, values: dict, bypass: dict):
    """Per-function table (outermost calls, median inclusive time, total self
    time and its share of item time), the layer metrics, and whether the
    workload shows the bypass structure it is meant to."""
    selfs = self_times(tracer.spans)
    total = sum(r[2] - r[1] for r in tracer.spans if tracer.names[r[0]] == ITEM)
    self_by_name = Counter()
    for idx, rec in enumerate(tracer.spans):
        self_by_name[tracer.names[rec[0]]] += selfs[idx]
    by_name = outermost(tracer.spans, tracer.names)
    print(f"# {'span':<36}{'calls':>9}{'median_us':>12}{'self_s':>10}{'self_share':>11}")
    for name in sorted(set(tracer.names)):
        idx = by_name[name]
        med = _median([tracer.spans[i][2] - tracer.spans[i][1] for i in idx], 1e6)
        print(f"# {name:<36}{len(idx):>9}{med:>12.1f}{self_by_name[name]:>10.3f}"
              f"{self_by_name[name] / total:>11.3f}")
    for name in sorted(values):
        print(f"# {name} = {values[name]:.6g}")
    for text, ok in bypass.items():
        print(f"# bypass structure: {text}: {'yes' if ok else 'NO'}")
