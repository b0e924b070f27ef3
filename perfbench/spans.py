"""Span tracer for the selsolve layers, installed from outside the package.

Each traced function is wrapped once and the wrapper is bound to every
name in every ``selsolve`` module that refers to the original.  That
covers calls through the calling module's namespace (``cli`` and
``pipeline`` import functions by name) as well as calls through the
defining module's globals (``lsss_solve`` reaches ``find_zeros``,
``length_sort`` and ``stream_solve`` that way, and ``symmetry`` reaches
``apply_derivation`` through its own imports).  Pipeline steps are
methods, so those are wrapped on the class.

Spans are kept in memory as ``[name, start, end, parent]`` and turned into
per-layer metrics at the end.  Counts are read from the arguments and the
returned objects after a span has closed, so counting costs trace
overhead but no span time.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import Counter
from fractions import Fraction


def _poly_terms(poly) -> int:
    return sum(coeff.term_count for coeff in poly.terms.values())


def _coeff_bits(value) -> int:
    value = Fraction(value)
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _file_bytes(path) -> int:
    return sum(os.path.getsize(p) for p in (path, f"{path}.names")
               if os.path.exists(p))


# Hooks take (tracer, bound arguments, result) and record counts.

def _apply_derivation(t, a, result):
    t.add("ncalgebra.apply_derivation_terms_out", len(result.terms))


def _formulate_nc(t, a, result):
    t.add("symmetry.formulate_nc_terms", _poly_terms(result.residual))


def _formulate_symcon(t, a, result):
    t.add("symmetry.formulate_symcon_terms", _poly_terms(result))


def _selective_split(t, a, result):
    t.add("symmetry.selective_split_words", len(a["p"].terms))
    t.add("symmetry.selective_split_zeros", result)


def _complete_split(t, a, result):
    t.add("symmetry.complete_split_equations", len(result.equations))
    t.add("symmetry.complete_split_terms", result.term_total)


def _find_zeros(t, a, result):
    t.add("solver.find_zeros_rounds", result.rounds)
    t.add("solver.find_zeros_zeros", sum(result.new_per_round))
    t.add("solver.find_zeros_eqs_in", len(a["system"].equations))
    t.add("solver.find_zeros_eqs_out", len(result.remaining.equations))


def _stream_solve(t, a, result):
    t.add("solver.stream_equations", len(a["equations"]))
    t.add("solver.stream_identities", result.identities)


def _lsss_solve(t, a, result):
    rhs = list(result.pivots.values())
    t.add("solver.pivots", len(rhs))
    t.peak("solver.max_pivot_terms",
           max((form.term_count for form in rhs), default=0))
    t.peak("solver.max_coeff_bits",
           max((_coeff_bits(c) for form in rhs
                for c in (form.const, *form.coeffs.values())), default=0))


def _oracle(t, a, result):
    t.add("linsys.oracle_rank", result.rank)


def _read_system(t, a, result):
    t.add("formats.read_system_bytes", _file_bytes(a["path"]))


def _write_system(t, a, result):
    t.add("formats.bytes_written", _file_bytes(a["path"]))


def _write_solution(t, a, result):
    t.add("formats.bytes_written", os.path.getsize(a["path"]))


def _run_strategy(t, a, result):
    report = result[1]
    labels = Counter(step.label for step in report.steps)
    t.add("pipeline.steps_n", labels["N"])
    t.add("pipeline.steps_s", labels["S"])
    t.add("pipeline.selective_zeros", report.selective_zero_total)
    t.add("pipeline.final_equations", report.final_equations)


def _verify(t, a, result):
    state = a["state"]
    t.add("pipeline.verify_trials", a["trials"])
    t.add("pipeline.verify_live_terms", len(state.pivots) + len(state.free))


def _cli_main(t, a, result):
    t.add("cli.nonzero_exits", int(result != 0))


#: Traced callables per layer: name in the layer's module (``Class.method``
#: for methods) and the hook that reads its counts, if any.
LAYERS = {
    "ncalgebra": {"apply_derivation": _apply_derivation},
    "symmetry": {
        "build_ansatz": None,
        "formulate_nc": _formulate_nc,
        "formulate_symcon": _formulate_symcon,
        "prune_ncpoly": None,
        "selective_split": _selective_split,
        "complete_split": _complete_split,
        "build_symmetry_system": None,
    },
    "solver": {
        "lsss_solve": _lsss_solve,
        "find_zeros": _find_zeros,
        "length_sort": None,
        "stream_solve": _stream_solve,
    },
    "linsys": {"dense_nullspace_oracle": _oracle},
    "formats": {
        "read_system": _read_system,
        "write_system": _write_system,
        "write_solution": _write_solution,
        "read_solution": None,
    },
    "pipeline": {
        "run_strategy": _run_strategy,
        "verify_by_matrices": _verify,
        "_PipelineRun.step_n": None,
        "_PipelineRun.step_s": None,
        "_PipelineRun.step_f": None,
    },
    "cli": {"main": _cli_main},
}

#: Span names whose call count is reported as ``<name>_calls``.
COUNTED_CALLS = ("ncalgebra.apply_derivation", "symmetry.prune_ncpoly")


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """In-memory spans plus counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.counting_s = 0.0
        self._stack: list[int] = []
        self._hook_errors: set[str] = set()

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    def peak(self, key: str, value) -> None:
        self.counts[key] = max(self.counts[key], value)

    def wrap(self, name: str, fn, hook):
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                self._count(name, hook, signature, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, hook, signature, args, kwargs, result) -> None:
        # A counter that no longer fits the program must not stop the run;
        # it is reported once and its metrics stay at zero.
        started = time.perf_counter()
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(self, bound.arguments, result)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            if name not in self._hook_errors:
                self._hook_errors.add(name)
                print(f"perfbench: counter for {name} failed: {exc!r}",
                      file=sys.stderr)
        self.counting_s += time.perf_counter() - started

    def install(self) -> None:
        """Wrap every traced callable that exists in the loaded package."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "selsolve" or key.startswith("selsolve.")]
        for layer, entries in LAYERS.items():
            module = importlib.import_module(f"selsolve.{layer}")
            for attr, hook in entries.items():
                name = span_name(layer, attr)
                owner_name, _, member = attr.rpartition(".")
                owner = (getattr(module, owner_name, None) if owner_name
                         else module)
                original = getattr(owner, member, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self.wrap(name, original, hook)
                if owner_name:
                    setattr(owner, member, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def self_times(self) -> Counter:
        """Seconds per span name: duration minus time covered by children."""
        out: Counter = Counter()
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        metrics: dict[str, float] = {}
        self_time = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        for layer, entries in LAYERS.items():
            for attr in entries:
                name = span_name(layer, attr)
                metrics[f"{name}_s"] = self_time[name]
        for name in COUNTED_CALLS:
            metrics[f"{name}_calls"] = calls[name]
        metrics.update(self.counts)
        c = self.counts
        metrics["symmetry.selective_split_yield"] = _ratio(
            c["symmetry.selective_split_zeros"],
            c["symmetry.selective_split_words"])
        metrics["solver.stream_useful_ratio"] = _ratio(
            c["solver.stream_equations"] - c["solver.stream_identities"],
            c["solver.stream_equations"])
        metrics["pipeline.verify_s_per_trial"] = _ratio(
            self_time["pipeline.verify_by_matrices"],
            c["pipeline.verify_trials"])
        return metrics

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per layer, for a coarse breakdown."""
        out: Counter = Counter()
        for name, seconds in self.self_times().items():
            out[name.split(".", 1)[0]] += seconds
        return dict(out)


def _ratio(num, den) -> float:
    return num / den if den else 0.0
