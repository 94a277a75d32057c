"""Span recorder for one traced sl2forms CLI run, and the per-layer metrics
computed from what it records.

Run as a program it patches the public functions of each sl2forms layer
from outside the package, runs the CLI in this process, and writes the
recorded spans and counts as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json RUN_ID -- verify-all --max 3

Every patched function is replaced in each sl2forms module namespace that
holds it, because `verify`, `omega` and `forms` import by name; the
`ExactMatrix` operators are patched on the class.  A span records name,
start_ns, end_ns, parent span and run id.  Spans stay in memory and are
written out when the CLI returns.  Functions called so often that a timer
would distort the run (`mat_vec`, the factorials) are only counted.

Time spent by the recorder itself on the nonzero-entry counts is taken out
of the span clock, so it shows in the traced wall time (trace.overhead)
but in no layer's self time.  Pool workers inherit the patches but their
spans are never written: a pooled run reports parent-side spans only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (layer, function) pairs timed as spans.  ExactMatrix operators use the
# names matmul, add, sub, eq and transpose.
SPANNED = {
    "cli": ("main",),
    "verify": ("sweep_relations", "sweep_star_forms", "sweep_decomposition",
               "sweep_singular_vectors", "sweep_x_power", "sweep_karlsson_minton",
               "sweep_series_route", "sweep_omega_signs"),
    "parallel": ("parallel_map",),
    "modules": ("tensor_product", "check_relations", "decompose"),
    "linalg": ("kron", "rank", "null_space", "apply_power"),
    "forms": ("is_star_form", "tensor_form", "evaluate"),
    "omega": ("omega_table", "y_kernel_singular", "x_power_b_closed", "x_power_b_brute"),
    "hypergeom": ("eval_3f2_terminating", "to_3f2"),
}
MATRIX_METHODS = {"__matmul__": "matmul", "__add__": "add", "__sub__": "sub", "__eq__": "eq"}
COUNTED = {"linalg": ("mat_vec",), "rationals": ("factorial", "reciprocal_factorial")}
# Results whose dense and nonzero entries are counted.
ENTRY_COUNTED = ("linalg.kron", "linalg.matmul", "linalg.add", "linalg.sub")
SUITE_OF = {
    "sweep_relations": "relations", "sweep_star_forms": "star-forms",
    "sweep_decomposition": "decomposition", "sweep_singular_vectors": "singular-vectors",
    "sweep_x_power": "x-power", "sweep_karlsson_minton": "karlsson-minton",
    "sweep_series_route": "3f2-route", "sweep_omega_signs": "omega-signs",
}
LINALG_TIMED = ("kron", "matmul", "add", "sub", "eq", "transpose", "rank",
                "null_space", "apply_power")


class Recorder:
    """In-memory spans of one run, on a clock that excludes the recorder's
    own bookkeeping."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, run_id]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.paused_ns = 0
        self.km_tuples: set[tuple[int, int, int, int]] = set()

    def now(self) -> int:
        return time.perf_counter_ns() - self.paused_ns

    def spanned(self, name: str, fn):
        spans, stack = self.spans, self.stack
        count_entries = name in ENTRY_COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self.now(), 0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.now()
                stack.pop()
            if count_entries:
                self._count_entries(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_entries(self, matrix) -> None:
        t0 = time.perf_counter_ns()
        c = self.counts
        c["linalg.dense_entries"] = c.get("linalg.dense_entries", 0) + matrix.rows * matrix.cols
        c["linalg.nonzero_entries"] = c.get("linalg.nonzero_entries", 0) + sum(
            len(row) - row.count(0) for row in matrix.entries
        )
        self.paused_ns += time.perf_counter_ns() - t0


def _replace_everywhere(original, replacement) -> None:
    """Rebind every sl2forms module attribute that is `original`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sl2forms" or mod_name.startswith("sl2forms.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(rec: Recorder) -> dict:
    """Patch every listed function; return the lru caches to read at exit."""
    mods = {layer: importlib.import_module(f"sl2forms.{layer}")
            for layer in {*SPANNED, *COUNTED, "cli"}}
    caches = {
        "modules.irreducible": mods["modules"].irreducible,
        "modules.tensor_of_irreducibles": mods["modules"].tensor_of_irreducibles,
        "omega.x_power_b_brute": mods["omega"].x_power_b_brute,
    }
    for layer, names in SPANNED.items():
        for fname in names:
            original = getattr(mods[layer], fname)
            _replace_everywhere(original, rec.spanned(f"{layer}.{fname}", original))
    for layer, names in COUNTED.items():
        for fname in names:
            original = getattr(mods[layer], fname)
            _replace_everywhere(original, rec.counted(f"{layer}.{fname}", original))

    matrix = mods["linalg"].ExactMatrix
    for method, short in MATRIX_METHODS.items():
        setattr(matrix, method, rec.spanned(f"linalg.{short}", getattr(matrix, method)))
    transpose = functools.cached_property(
        rec.spanned("linalg.transpose", matrix.__dict__["transpose"].func)
    )
    transpose.__set_name__(matrix, "transpose")
    matrix.transpose = transpose

    # km_sum is also timed as a span, and records the distinct tuples it
    # is called with, for hypergeom.km_sum_per_tuple.
    km_sum = mods["hypergeom"].km_sum
    km_tuples = rec.km_tuples

    def km_sum_tuple(p):
        km_tuples.add((p.k, p.l, p.m, p.n))
        return km_sum(p)

    _replace_everywhere(km_sum, rec.spanned("hypergeom.km_sum", km_sum_tuple))

    parallel = mods["parallel"]
    pool_class = parallel.ProcessPoolExecutor
    rec.counts["parallel.pools"] = 0

    def counting_pool(*args, **kwargs):
        rec.counts["parallel.pools"] += 1
        return pool_class(*args, **kwargs)

    parallel.ProcessPoolExecutor = counting_pool
    return caches


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py OUT.json RUN_ID -- <sl2forms arguments>", file=sys.stderr)
        return 2
    out_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    rec = Recorder(run_id)
    caches = install(rec)
    cli = importlib.import_module("sl2forms.cli")
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    info = {name: fn.cache_info() for name, fn in caches.items()}
    payload = {
        "run_id": run_id,
        "spans": rec.spans,
        "counts": rec.counts,
        "km_distinct_tuples": len(rec.km_tuples),
        "caches": {name: {"hits": i.hits, "misses": i.misses, "currsize": i.currsize}
                   for name, i in info.items()},
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    return code


def _span_totals(spans) -> dict[str, list]:
    """Per span name: [calls, total_ns, self_ns]."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, list] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        t = totals.setdefault(name, [0, 0, 0])
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - child_ns[i]
    return totals


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metric values of one traced run (trace.overhead excluded)."""
    totals = _span_totals(trace["spans"])
    counts, caches = trace["counts"], trace["caches"]

    def calls(name):
        return totals.get(name, (0, 0, 0))[0]

    def total_s(name):
        return totals.get(name, (0, 0, 0))[1] / 1e9

    def self_s(name):
        return totals.get(name, (0, 0, 0))[2] / 1e9

    out: dict[str, float] = {}
    out["cli.main.total_s"] = total_s("cli.main")
    for fname, suite in SUITE_OF.items():
        out[f"verify.{suite}.total_s"] = total_s(f"verify.{fname}")
    out["parallel.parallel_map.calls"] = calls("parallel.parallel_map")
    out["parallel.parallel_map.total_s"] = total_s("parallel.parallel_map")
    out["parallel.pools"] = counts["parallel.pools"]

    tensors = caches["modules.tensor_of_irreducibles"]
    out["modules.tensor_of_irreducibles.builds"] = tensors["misses"]
    out["modules.tensor_of_irreducibles.hits"] = tensors["hits"]
    out["modules.tensor_product.self_s"] = self_s("modules.tensor_product")
    out["modules.check_relations.calls"] = calls("modules.check_relations")
    out["modules.check_relations.self_s"] = self_s("modules.check_relations")
    out["modules.decompose.self_s"] = self_s("modules.decompose")
    out["modules.cache_entries"] = (
        caches["modules.irreducible"]["currsize"] + tensors["currsize"]
    )

    for fname in LINALG_TIMED:
        out[f"linalg.{fname}.calls"] = calls(f"linalg.{fname}")
        out[f"linalg.{fname}.self_s"] = self_s(f"linalg.{fname}")
    out["linalg.mat_vec.calls"] = counts["linalg.mat_vec"]
    dense = counts.get("linalg.dense_entries", 0)
    nonzero = counts.get("linalg.nonzero_entries", 0)
    out["linalg.dense_entries"] = dense
    out["linalg.nonzero_entries"] = nonzero
    out["linalg.nnz_ratio"] = nonzero / dense if dense else 0.0

    for fname in ("is_star_form", "tensor_form", "evaluate"):
        out[f"forms.{fname}.calls"] = calls(f"forms.{fname}")
        out[f"forms.{fname}.self_s"] = self_s(f"forms.{fname}")
    for fname in ("omega_table", "y_kernel_singular", "x_power_b_closed"):
        out[f"omega.{fname}.calls"] = calls(f"omega.{fname}")
        out[f"omega.{fname}.self_s"] = self_s(f"omega.{fname}")
    brute = caches["omega.x_power_b_brute"]
    out["omega.x_power_b_brute.builds"] = brute["misses"]
    out["omega.x_power_b_brute.hits"] = brute["hits"]
    out["omega.x_power_b_brute.self_s"] = self_s("omega.x_power_b_brute")

    for fname in ("km_sum", "eval_3f2_terminating", "to_3f2"):
        out[f"hypergeom.{fname}.calls"] = calls(f"hypergeom.{fname}")
        out[f"hypergeom.{fname}.self_s"] = self_s(f"hypergeom.{fname}")
    distinct = trace["km_distinct_tuples"]
    out["hypergeom.km_sum_per_tuple"] = calls("hypergeom.km_sum") / distinct if distinct else 0.0
    out["rationals.factorial.calls"] = counts["rationals.factorial"]
    out["rationals.reciprocal_factorial.calls"] = counts["rationals.reciprocal_factorial"]
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
