"""Span recorder for the traced run, wrapped around srm3's public functions.

The benchmark replaces each listed function, wherever an ``srm3`` module or
class references it, with a wrapper that records one span per call: name,
start, end, parent span and run id (the index of the CLI command).  Spans
stay in memory until :meth:`Tracer.dump`.  Counters derived from arguments
and results are collected at the same boundaries.

A metric whose functions all no longer exist is reported as absent, never as
zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import NamedTuple

#: Span groups: the functions each one wraps, as ``(module, attribute path)``.
GROUPS = {
    "config.parse": [("srm3.config", "parse_config")],
    "io.read_csv": [("srm3.io", "read_spectrum_csv"), ("srm3.io", "read_bispectrum_csv")],
    "io.write": [("srm3.io", "write_samples"), ("srm3.io", "export_csv")],
    "wind.targets": [("srm3.wind", "build_example_targets")],
    "spectra.validate": [
        ("srm3.spectra", "validate_spectrum"),
        ("srm3.spectra", "validate_bispectrum"),
    ],
    "decomposition.factor": [
        ("srm3.decomposition", "factor_spectrum"),
        ("srm3.decomposition", "invert_factor"),
    ],
    "pure.split": [
        ("srm3.pure", "compute_pure_multivariate"),
        ("srm3.pure", "compute_pure_univariate"),
    ],
    "terms.build": [
        ("srm3.terms", "build_third_order_terms"),
        ("srm3.terms", "build_second_order_terms"),
    ],
    "terms.target": [
        ("srm3.terms", "TermSet.target_second"),
        ("srm3.terms", "TermSet.target_third"),
    ],
    "terms.phase_groups": [("srm3.terms", "TermSet.phase_groups")],
    "terms.collisions": [("srm3.terms", "TermSet.resonant_collisions")],
    "terms.triples": [("srm3.terms", "TermSet.triple_resonances")],
    "simulate.direct": [("srm3.simulate", "synthesize_direct")],
    "fft.assemble": [("srm3.fft", "assemble_coefficients")],
    "fft.synthesize": [("srm3.fft", "synthesize_fft")],
    "estimators.ensemble": [("srm3.estimators", "ensemble_moments")],
    "estimators.temporal": [
        ("srm3.estimators", "temporal_mean"),
        ("srm3.estimators", "temporal_cross_correlation"),
        ("srm3.estimators", "temporal_third_moment"),
    ],
    "workbench": [
        ("srm3.workbench", "run_simulation"),
        ("srm3.workbench", "verify_ergodic_identities"),
        ("srm3.workbench", "simulate_one"),
    ],
}

#: Per-layer metrics: name -> (unit, how, span groups).  ``time`` is the
#: time of a group's outermost spans (a span nested in another span of the
#: same group is not counted twice); ``self`` is span time minus the time of
#: child spans; ``calls`` counts spans; ``per_build`` divides the calls of the
#: first group by those of the second; any other ``how`` names a counter.
METRICS = {
    "config.parse_s": ("s", "time", ["config.parse"]),
    "io.read_csv_s": ("s", "time", ["io.read_csv"]),
    "io.read_csv_bytes": ("B", "bytes", ["io.read_csv"]),
    "io.write_s": ("s", "time", ["io.write"]),
    "io.write_calls": ("count", "calls", ["io.write"]),
    "io.write_bytes": ("B", "bytes", ["io.write"]),
    "wind.targets_s": ("s", "time", ["wind.targets"]),
    "spectra.validate_s": ("s", "time", ["spectra.validate"]),
    "decomposition.factor_s": ("s", "time", ["decomposition.factor"]),
    "decomposition.factor_calls": ("count", "calls", ["decomposition.factor"]),
    "pure.split_s": ("s", "time", ["pure.split"]),
    "pure.split_calls": ("count", "calls", ["pure.split"]),
    "pure.bispectrum_bytes": ("B", "bispectrum_bytes", ["pure.split"]),
    "terms.build_s": ("s", "time", ["terms.build"]),
    "terms.build_calls": ("count", "calls", ["terms.build"]),
    "terms.n_linear": ("count", "n_linear", ["terms.build"]),
    "terms.n_interaction": ("count", "n_interaction", ["terms.build"]),
    "terms.target_s": ("s", "time", ["terms.target"]),
    "terms.target_calls": ("count", "calls", ["terms.target"]),
    "terms.phase_groups_s": ("s", "time", ["terms.phase_groups"]),
    "terms.phase_groups_calls": ("count", "calls", ["terms.phase_groups"]),
    "terms.phase_groups_per_build": ("ratio", "per_build", ["terms.phase_groups", "terms.build"]),
    "terms.diagnostics_s": ("s", "time", ["terms.collisions", "terms.triples"]),
    "terms.collisions": ("count", "collisions", ["terms.collisions"]),
    "terms.triples_unknown": ("count", "triples_unknown", ["terms.triples"]),
    "simulate.direct_s": ("s", "time", ["simulate.direct"]),
    "simulate.direct_term_samples": ("count", "term_samples", ["simulate.direct"]),
    "fft.assemble_s": ("s", "time", ["fft.assemble"]),
    "fft.channels": ("count", "channels", ["fft.assemble"]),
    "fft.assembled_terms": ("count", "assembled_terms", ["fft.assemble"]),
    "fft.synthesize_s": ("s", "time", ["fft.synthesize"]),
    "fft.computed_bytes": ("B", "computed_bytes", ["fft.synthesize"]),
    "estimators.ensemble_self_s": ("s", "self", ["estimators.ensemble"]),
    "estimators.records_held_bytes": ("B", "records_held_bytes", ["estimators.ensemble"]),
    "estimators.temporal_s": ("s", "time", ["estimators.temporal"]),
    "estimators.temporal_calls": ("count", "calls", ["estimators.temporal"]),
    "workbench.self_s": ("s", "self", ["workbench"]),
}


def _resolve(module: str, path: str):
    """``(owner, attribute name, object)``, or ``None`` if it no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


def patch_everywhere(original, replacement) -> list[tuple]:
    """Point every srm3 module or class attribute holding ``original`` at
    ``replacement``; returns ``(owner, attribute, original)`` for undoing."""
    owners = [
        mod
        for name, mod in list(sys.modules.items())
        if name == "srm3" or name.startswith("srm3.")
    ]
    owners += [c for mod in owners for c in vars(mod).values() if isinstance(c, type)]
    patches = []
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, attr, replacement)
                patches.append((owner, attr, original))
    return patches


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Counters taken from the arguments and result of one call:
# (group, function name) -> fn(args, kwargs, result) -> {counter: (op, value)}.
def _count_file_bytes(args, kwargs, result):
    return {"bytes": ("sum", _file_bytes(args[0]))}


def _count_split(args, kwargs, result):
    return {"bispectrum_bytes": ("max", args[1].values.nbytes)}


def _count_build(args, kwargs, result):
    return {
        "n_linear": ("max", result.n_linear),
        "n_interaction": ("max", result.n_interaction),
    }


def _count_collisions(args, kwargs, result):
    return {"collisions": ("max", len(result))}


def _count_triples(args, kwargs, result):
    return {"triples_unknown": ("sum", int(result is None))}


def _count_direct(args, kwargs, result):
    terms, plan = args[0], args[2]
    return {"term_samples": ("sum", (terms.n_linear + terms.n_interaction) * plan.n_samples)}


def _count_assemble(args, kwargs, result):
    return {
        "channels": ("sum", len(result)),
        "assembled_terms": ("sum", sum(ch.n_terms for ch in result)),
    }


def _count_synthesize(args, kwargs, result):
    # bytes of the arrays the stage computes, from their shapes: per channel
    # the complex ifft block, the tiled complex block, the rotation and the
    # real contribution, plus the float64 output
    channels, plan = args[0], args[2]
    m, n = result.shape
    per_channel = 16 * m * plan.m_f + 16 * m * n + 16 * n + 8 * m * n
    return {"computed_bytes": ("sum", len(channels) * per_channel + 8 * m * n)}


def _count_ensemble(args, kwargs, result):
    return {"records_held_bytes": ("max", sum(r.values.nbytes for r in args[0]))}


COUNTERS = {
    "io.read_csv": _count_file_bytes,
    "io.write": _count_file_bytes,
    "pure.split": _count_split,
    "terms.build": _count_build,
    "terms.collisions": _count_collisions,
    "terms.triples": _count_triples,
    "simulate.direct": _count_direct,
    "fft.assemble": _count_assemble,
    "fft.synthesize": _count_synthesize,
    "estimators.ensemble": _count_ensemble,
}


class Span(NamedTuple):
    name: str
    layer: str  # the span group
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    run: int  # index of the CLI command


class Tracer:
    """Installs the wrappers, records spans and turns them into metrics."""

    def __init__(self):
        self.spans: list[Span | None] = []  # None while the call runs
        self.counters: list[tuple] = []  # (run, group, counter, op, value)
        self.stack: list[int] = []
        self.run = 0
        self.targets: list[tuple] = []  # (group, name, function)
        self.missing: list[str] = []
        for group, functions in GROUPS.items():
            for module, path in functions:
                found = _resolve(module, path)
                if found is None:
                    self.missing.append(f"{module}.{path}")
                else:
                    self.targets.append((group, f"{module}.{path}", found[2]))
        self.present = {group for group, _, _ in self.targets}
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def _wrap(self, group: str, name: str, fn):
        counter = COUNTERS.get(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = Span(name, group, start, end, parent, self.run)
            if counter is not None:
                try:
                    counts = counter(args, kwargs, result)
                except (IndexError, AttributeError, TypeError):
                    counts = {}  # the signature changed: no counter, no crash
                for key, (op, value) in counts.items():
                    self.counters.append((self.run, group, key, op, value))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever srm3 references it."""
        for group, name, original in self.targets:
            wrapper = self._wrap(group, name, original)
            self._patches += patch_everywhere(original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self, run: int) -> dict[str, float | None]:
        """Per-layer metrics of one traced command; ``None`` marks absent."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.end - span.start

        def outermost(span: Span) -> bool:
            parent = span.parent
            while parent >= 0:
                if self.spans[parent].layer == span.layer:
                    return False
                parent = self.spans[parent].parent
            return True

        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for index, span in enumerate(self.spans):
            if span.run != run:
                continue
            group, duration = span.layer, span.end - span.start
            calls[group] = calls.get(group, 0) + 1
            self_time[group] = self_time.get(group, 0.0) + duration - child_time.get(index, 0.0)
            if outermost(span):
                total[group] = total.get(group, 0.0) + duration
        counts: dict[tuple, float] = {}
        for r, group, key, op, value in self.counters:
            if r != run:
                continue
            old = counts.get((group, key), 0)
            counts[(group, key)] = old + value if op == "sum" else max(old, value)

        values: dict[str, float | None] = {}
        for name, (_, how, groups) in METRICS.items():
            if not any(g in self.present for g in groups):
                values[name] = None
            elif how == "per_build":
                builds = calls.get(groups[1], 0)
                values[name] = calls.get(groups[0], 0) / builds if builds else 0.0
            else:
                table = {"time": total, "self": self_time, "calls": calls}.get(how)
                values[name] = sum(
                    table.get(g, 0) if table is not None else counts.get((g, how), 0)
                    for g in groups
                )
        return values

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **span._asdict()}) + "\n")
