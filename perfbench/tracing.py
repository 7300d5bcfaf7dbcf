"""Spans and counts recorded around psexp's public functions, from outside.

The tracer replaces module attributes with timing wrappers while a traced
repetition runs and puts the originals back afterwards.  Every place a
function is looked up is wrapped: a function imported by name into another
module (sums.phase_mod1_vec) is a separate binding from the module attribute
(numerics.phase_mod1_vec) that heathbrown reads.  Private helpers are hooked
when they exist; a missing one is reported as absent and never fails a run.

A span is [name, start, end, parent index, op id].  Self time is a span's
duration minus the durations of its direct children (one thread, so children
never overlap).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import numpy as np


def _size(i):
    return lambda args, kwargs: np.size(args[i])


def _sieve_ints(args, kwargs):
    if len(args) >= 2:                      # sieve_range(lo, hi, ...)
        return args[1] - args[0]
    return args[0] + 1 if args[0] >= 2 else 0   # primes_up_to(n)


def _refined(args, kwargs):
    # _gl_adaptive(lo, hi, expo, depth=0): count only the pieces sent to it
    return 1 if (args[3] if len(args) > 3 else kwargs.get("depth", 0)) == 0 else 0


# (owner, attribute, span name, {counter suffix: amount one call adds, None = 1});
# the underscored helpers are expected to be renamed or merged later
HOOKS = [
    ("ddmath", "dd_pow_int", "ddmath.pow", {"calls": None, "elems": _size(0)}),
    ("numerics", "phase_mod1_vec", "numerics.phase", {"calls": None, "elems": _size(1)}),
    ("sums", "phase_mod1_vec", "numerics.phase", {"calls": None, "elems": _size(1)}),
    ("numerics", "e_of_frac_vec", "numerics.expi", {"elems": _size(0)}),
    ("sums", "e_of_frac_vec", "numerics.expi", {"elems": _size(0)}),
    ("sieve", "primes_up_to", "sieve.sieve", {"ints": _sieve_ints}),
    ("sieve", "sieve_range", "sieve.sieve", {"ints": _sieve_ints}),
    ("sieve", "primes_in_ap", "sieve.sieve", {}),
    ("sieve", "ps_mask", "sieve.psmask", {"elems": _size(0)}),
    ("sieve", "_ceil_certified", "sieve.certified", {"calls": None}),
    ("sums", "_floor_frac_arrays", "sums.floorfrac", {"elems": _size(0)}),
    ("sums", "_certified_floor_frac", "sums.certified", {"calls": None}),
    ("sums", "_gl_pieces", "sums.quad", {"pieces": _size(0)}),
    ("sums", "_gl_adaptive", "sums.quad", {"refined": _refined}),
    ("sums.ComplexAccumulator", "add_array", "sums.accum", {"calls": None}),
    ("sums", "gamma_decomposition", "sums.glue", {}),
    ("sums", "rhs_main", "sums.glue", {}),
    ("sums", "gamma11_sum", "sums.glue", {}),
    ("sums", "gamma10_sum", "sums.glue", {}),
    ("sums", "weighted_lambda_expsum", "sums.glue", {}),
    ("heathbrown", "type_sums", "heathbrown.type_sums", {}),
    ("cli", "main", "cli", {}),
]


class Tracer:
    """Records spans and counts while installed; restores everything on remove."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.hooks = {}
        self.op = -1
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, counters=(), on_result=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        counters = [(f"{name}.{k}", f) for k, f in dict(counters).items()]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for key, f in counters:
                counts[key] += 1 if f is None else f(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def install(self, psexp_modules: dict) -> None:
        for owner_path, attr, name, counters in HOOKS:
            mod, _, cls = owner_path.partition(".")
            owner = psexp_modules[mod]
            owner = getattr(owner, cls, None) if cls else owner
            fn = getattr(owner, attr, None) if owner is not None else None
            label = f"{owner_path}.{attr}"
            if fn is None:
                self.hooks[label] = "absent"
                continue
            on_result = None
            if (owner_path, attr) == ("sums", "gamma_decomposition"):
                on_result = self._count_mismatches
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, counters, on_result))
            self.hooks[label] = "ok"
        self._hook_workprec()

    def _count_mismatches(self, report):
        self.counts["sums.mask_mismatches"] += report.mask_mismatches

    def _hook_workprec(self):
        # the certified helpers import mpmath lazily and call mpmath.workprec
        import mpmath

        orig = mpmath.workprec
        counts = self.counts

        def workprec(n, *args, **kwargs):
            counts["certified.max_prec_bits"] = max(counts["certified.max_prec_bits"], int(n))
            return orig(n, *args, **kwargs)

        self._undo.append((mpmath, "workprec", orig))
        mpmath.workprec = workprec
        self.hooks["mpmath.workprec"] = "ok"

    def remove(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def run_op(self, op: int, fn):
        """Run one workload op under a "bench.op" span tagged with its id."""
        self.op = op
        return self.wrap("bench.op", fn)()

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out
