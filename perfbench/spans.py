"""Span tracing for the per-layer run, from wrappers outside the program.

Every traced function is replaced by one wrapper on *every* binding a
caller resolves: the defining module, each module that imported the name
with ``from .x import f``, the package namespace and module-level dicts
such as ``repwords.cli._TRIPLE_GENERATORS``.  A wrapper appends a span
(name id, start ns, end ns, parent span index) to in-memory arrays; all
spans of one interpreter share its run id.  Self time is a span's
duration minus that of its direct children.

Pool workers are forked with the wrappers in place, but their spans stay
in the worker and are lost: on ``resume`` that is everything below
``search._scan_chunk`` (listed in LOST_IN_WORKERS).  The parent side of
the pool (checkpoint appends, merging, waiting) stays in
``search.search_range`` self time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from types import FunctionType

# module -> public functions whose calls become spans
TRACED = {
    "factoring": ("factor_quotient", "factor", "is_probable_prime", "primes_upto"),
    "search": (
        "solutions_for_base", "check_solution", "verify_solution", "search_range",
        "load_checkpoint", "write_checkpoint", "search_fib_squares", "search_fib_powers",
    ),
    "words": ("to_canonical", "to_bijective", "to_zeckendorf", "split_repetition"),
    "arith": ("iroot",),
    "corpus": ("load_corpus", "verify_corpus"),
    "cli": ("main",),
}
# IntPoly.__call__ evaluates a cyclotomic polynomial at the base
CYCLOTOMIC_EVAL = "factoring.cyclotomic_eval"

LOST_IN_WORKERS = (
    "search.solutions_for_base", "search.verify_solution", "search.check_solution",
    "factoring.factor_quotient", "factoring.factor", "factoring.is_probable_prime",
    "factoring.primes_upto", CYCLOTOMIC_EVAL, "arith.iroot", "words.to_canonical",
)

# (name, unit, better, the end-to-end metric it should move)
PER_LAYER = (
    ("factoring.factor_quotient.calls", "count", "lower", "wall_s on sweep (cold); flat on warm_wall_s, zeckendorf, tables"),
    ("factoring.factor_quotient.time_s", "s", "lower", "wall_s on sweep (cold)"),
    ("factoring.pieces_requested", "count", "lower", "base of piece_hit_ratio"),
    ("factoring.factor.calls", "count", "lower", "piece-cache misses: wall_s on sweep (cold)"),
    ("factoring.piece_hit_ratio", "ratio", "higher", "warm_wall_s and peak_rss_mb on sweep"),
    ("factoring.factor.self_s", "s", "lower", "wall_s on sweep (cold)"),
    ("factoring.is_probable_prime.calls", "count", "lower", "wall_s on sweep (cold)"),
    ("factoring.is_probable_prime.time_s", "s", "lower", "wall_s on sweep (cold)"),
    ("factoring.cyclotomic_eval.calls", "count", "lower", "wall_s on sweep (cold)"),
    ("factoring.cyclotomic_eval.time_s", "s", "lower", "wall_s on sweep (cold)"),
    ("factoring.primes_upto.time_s", "s", "lower", "wall_s on sweep (cold)"),
    ("search.solutions_for_base.calls", "count", "lower", "warm_wall_s on sweep; wall_s on resume"),
    ("search.solutions_for_base.self_s", "s", "lower", "warm_wall_s on sweep; wall_s on resume"),
    ("search.solutions_for_base.p50_us", "us", "lower", "warm_wall_s on sweep"),
    ("search.solutions_for_base.p99_us", "us", "lower", "warm_wall_s on sweep"),
    ("search.solutions_for_base.samples", "count", "higher", "sample count of p50/p99"),
    ("search.check_solution.calls", "count", "lower", "warm_wall_s on sweep; wall_s on resume"),
    ("search.check_solution.self_s", "s", "lower", "warm_wall_s on sweep; wall_s on resume"),
    ("search.search_range.self_s", "s", "lower", "wall_s and cpu_s on resume; none on sweep"),
    ("search.load_checkpoint.calls", "count", "lower", "wall_s and cpu_s on resume"),
    ("search.load_checkpoint.time_s", "s", "lower", "wall_s and cpu_s on resume"),
    ("search.load_checkpoint.bytes", "bytes", "lower", "wall_s and cpu_s on resume"),
    ("search.write_checkpoint.calls", "count", "lower", "wall_s and cpu_s on resume"),
    ("search.write_checkpoint.time_s", "s", "lower", "wall_s and cpu_s on resume"),
    ("search.write_checkpoint.bytes", "bytes", "lower", "wall_s and cpu_s on resume"),
    ("search.checkpoint_bytes", "bytes", "lower", "size of the final checkpoints on resume"),
    ("search.search_fib_squares.self_s", "s", "lower", "wall_s and peak_rss_mb on zeckendorf"),
    ("search.fib_candidates", "count", "lower", "wall_s on zeckendorf"),
    ("search.fib_match_ratio", "ratio", "higher", "wall_s on zeckendorf"),
    ("search.search_fib_powers.self_s", "s", "lower", "wall_s on zeckendorf"),
    ("words.to_canonical.calls", "count", "lower", "wall_s on resume and tables"),
    ("words.to_canonical.time_s", "s", "lower", "wall_s on resume and tables"),
    ("words.to_bijective.calls", "count", "lower", "wall_s on tables"),
    ("words.to_bijective.time_s", "s", "lower", "wall_s on tables"),
    ("words.to_zeckendorf.calls", "count", "lower", "wall_s on zeckendorf"),
    ("words.to_zeckendorf.time_s", "s", "lower", "wall_s on zeckendorf"),
    ("words.split_repetition.calls", "count", "lower", "wall_s on zeckendorf"),
    ("words.split_repetition.time_s", "s", "lower", "wall_s on zeckendorf"),
    ("arith.iroot.calls", "count", "lower", "warm_wall_s on sweep; wall_s on resume"),
    ("arith.iroot.time_s", "s", "lower", "warm_wall_s on sweep; wall_s on resume"),
    ("families.generate.self_s", "s", "lower", "wall_s on tables only"),
    ("families.records", "count", "higher", "wall_s on tables only"),
    ("corpus.load_corpus.time_s", "s", "lower", "wall_s on tables only"),
    ("corpus.verify_corpus.self_s", "s", "lower", "wall_s on tables only"),
    ("corpus.rows", "count", "higher", "wall_s on tables only"),
    ("cli.main.self_s", "s", "lower", "wall_s on resume and tables; little on sweep"),
    ("cli.rows_written", "count", "higher", "wall_s on resume and tables"),
    ("trace.overhead_frac", "ratio", "lower", "traced wall_s over untraced wall_s, minus 1"),
    ("trace.spans", "count", "lower", "spans recorded in the traced interpreter"),
    ("src.lines", "count", "lower", "lines of src/ (not timed)"),
)


def _divisor_pieces(n: int, l: int) -> int:
    """#{d | n*l : d does not divide l}, the cyclotomic pieces of one quotient."""
    nl = n * l
    return sum(1 for d in range(1, nl + 1) if nl % d == 0 and l % d)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts = {"pieces": 0, "load_bytes": 0, "write_bytes": 0,
                       "records": 0, "corpus_rows": 0, "fib_matches": 0}

    def wrap(self, name: str, fn, before=None, after=None):
        """fn recording a span per call; hooks get the call's bound arguments."""
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns
        sig = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
            if before is not None:
                before(bound)
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t
                stack.pop()
            if after is not None:
                after(bound, result, idx)
            return result

        return traced

    # hooks: counts taken at the layer boundary
    def _pieces(self, bound):
        self.counts["pieces"] += _divisor_pieces(bound["n"], bound["l"])

    def _load_bytes(self, bound):
        self.counts["load_bytes"] += os.path.getsize(bound["path"])

    def _write_bytes(self, bound, result, idx):
        self.counts["write_bytes"] += os.path.getsize(bound["path"])

    def _records(self, bound, result, idx):
        p = self.parent[idx]
        if p < 0 or not self.names[self.name_of[p]].startswith("families."):
            self.counts["records"] += len(result) if isinstance(result, list) else 1

    def _corpus_rows(self, bound, result, idx):
        self.counts["corpus_rows"] += len(result.results)

    def _fib_matches(self, bound, result, idx):
        self.counts["fib_matches"] += len(result)

    def install(self) -> None:
        from repwords import factoring, families

        hooks = {
            "factoring.factor_quotient": (self._pieces, None),
            "search.load_checkpoint": (self._load_bytes, None),
            "search.write_checkpoint": (None, self._write_bytes),
            "corpus.verify_corpus": (None, self._corpus_rows),
            "search.search_fib_squares": (None, self._fib_matches),
        }
        targets = {mod: list(fns) for mod, fns in TRACED.items()}
        targets["families"] = sorted(n for n in vars(families) if n.startswith("gen_"))
        replace = {}
        for mod, fns in targets.items():
            module = sys.modules["repwords." + mod]
            for fname in fns:
                name = f"{mod}.{fname}"
                before, after = hooks.get(name, (None, self._records if mod == "families" else None))
                orig = getattr(module, fname)
                replace[orig] = self.wrap(name, orig, before, after)
        modules = [m for k, m in sys.modules.items() if k == "repwords" or k.startswith("repwords.")]
        for module in modules:
            for owner in [module] + [v for v in vars(module).values() if isinstance(v, dict)]:
                items = owner.items() if isinstance(owner, dict) else vars(owner).items()
                for key, value in list(items):
                    if isinstance(value, FunctionType) and value in replace:
                        if isinstance(owner, dict):
                            owner[key] = replace[value]
                        else:
                            setattr(owner, key, replace[value])
        factoring.IntPoly.__call__ = self.wrap(CYCLOTOMIC_EVAL, factoring.IntPoly.__call__)

    def report(self, spec: dict, cold_dir: str) -> dict:
        """Per-layer metrics of the recorded pass; writes the spans next to it."""
        import numpy as np

        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        dur = (end - start).astype(np.float64) / 1e9
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - children
        parent_name = np.where(has_parent, name_of[np.maximum(parent, 0)], -1)
        outermost = parent_name != name_of  # avoids double counting same-name nesting
        ids = {n: i for i, n in enumerate(self.names)}

        def sel(name):
            return name_of == ids[name]

        def calls(name):
            return int(np.count_nonzero(sel(name)))

        def time_s(name):
            return float(dur[sel(name) & outermost].sum())

        def self_s(name):
            return float(self_t[sel(name)].sum())

        def under(child, parent_fn):
            return int(np.count_nonzero(sel(child) & (parent_name == ids[parent_fn])))

        m: dict[str, float] = {}
        for name in ("factoring.factor_quotient", "factoring.is_probable_prime", CYCLOTOMIC_EVAL,
                     "search.load_checkpoint", "search.write_checkpoint", "words.to_canonical",
                     "words.to_bijective", "words.to_zeckendorf", "words.split_repetition",
                     "arith.iroot"):
            m[name + ".calls"] = calls(name)
            m[name + ".time_s"] = time_s(name)
        pieces = self.counts["pieces"]
        misses = under("factoring.factor", "factoring.factor_quotient")
        m["factoring.pieces_requested"] = pieces
        m["factoring.factor.calls"] = calls("factoring.factor")
        m["factoring.piece_hit_ratio"] = (pieces - misses) / pieces if pieces else 0.0
        m["factoring.factor.self_s"] = self_s("factoring.factor")
        m["factoring.primes_upto.time_s"] = time_s("factoring.primes_upto")
        sfb = dur[sel("search.solutions_for_base")] * 1e6
        m["search.solutions_for_base.calls"] = len(sfb)
        m["search.solutions_for_base.self_s"] = self_s("search.solutions_for_base")
        p50, p99 = (np.percentile(sfb, [50, 99]) if len(sfb) else (0.0, 0.0))
        m["search.solutions_for_base.p50_us"] = float(p50)
        m["search.solutions_for_base.p99_us"] = float(p99)
        m["search.solutions_for_base.samples"] = len(sfb)
        m["search.check_solution.calls"] = calls("search.check_solution")
        m["search.check_solution.self_s"] = self_s("search.check_solution")
        for name in ("search.search_range", "search.search_fib_squares", "search.search_fib_powers"):
            m[name + ".self_s"] = self_s(name)
        m["search.load_checkpoint.bytes"] = self.counts["load_bytes"]
        m["search.write_checkpoint.bytes"] = self.counts["write_bytes"]
        m["search.checkpoint_bytes"] = sum(
            os.path.getsize(os.path.join(cold_dir, f))
            for f in os.listdir(cold_dir) if f.startswith("checkpoint-")
        )
        candidates = under("words.split_repetition", "search.search_fib_squares")
        m["search.fib_candidates"] = candidates
        m["search.fib_match_ratio"] = self.counts["fib_matches"] / candidates if candidates else 0.0
        gen = np.isin(name_of, [i for n, i in ids.items() if n.startswith("families.")])
        m["families.generate.self_s"] = float(self_t[gen].sum())
        m["families.records"] = self.counts["records"]
        m["corpus.load_corpus.time_s"] = time_s("corpus.load_corpus")
        m["corpus.verify_corpus.self_s"] = self_s("corpus.verify_corpus")
        m["corpus.rows"] = self.counts["corpus_rows"]
        m["cli.main.self_s"] = self_s("cli.main")
        m["cli.rows_written"] = _rows_written(spec, cold_dir)
        m["trace.spans"] = len(dur)
        np.savez(
            os.path.join(os.path.dirname(cold_dir), "spans.npz"),
            run_id=np.array(self.run_id), names=np.array(self.names),
            name=name_of, parent=parent, start_ns=start, end_ns=end,
        )
        return m


def _rows_written(spec: dict, pass_dir: str) -> int:
    """Lines the CLI wrote to stdout, CSV header lines excluded."""
    rows = 0
    for req in spec["requests"]:
        if "cli" in req:
            with open(os.path.join(pass_dir, req["out"] + ".stdout"), "rb") as fh:
                lines = fh.read().count(b"\n")
            if req["cli"][0] in ("search", "generate") and lines:
                lines -= 1
            rows += lines
    return rows
