"""Run configuration: a JSON document with an explicit schema version.

Parsing is strict and fail-fast: unknown or repeated fields are errors, a
boolean is not a number, every problem is reported with its field path, and
referenced target tables are read and validated before any simulation
starts.

Example::

    {
      "schema_version": 1,
      "grid": {"m": 3, "N": 100, "omega_u": 2.0},
      "target": {"kind": "wind-example"},
      "method": "third-mv-fft",
      "seed": 42,
      "realizations": 200
    }

The grid takes either ``omega_u`` (cutoff, bin width derived as
``omega_u / N``) or ``delta_omega`` directly.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field

from .errors import ConfigError, InvalidInputError, InvalidParameterError
from .estimators import DEFAULT_ENSEMBLE_TOLERANCES
from .grids import FrequencyGrid, OffsetRule
from .io import read_bispectrum_csv, read_spectrum_csv
from .simulate import Method, SamplingPlan
from .spectra import (
    CrossBispectrum,
    CrossSpectrum,
    validate_bispectrum,
    validate_spectrum,
    zero_bispectrum,
)
from .wind import build_example_targets

SCHEMA_VERSION = 1

_METHODS = {m.value: m for m in Method}
_RULES = {r.value: r for r in OffsetRule}

#: Seeds key a 64-bit generator; the sample header stores the realization
#: index as ``uint32``, so indices 0 .. 2**32 - 1 can be written.
MAX_SEED = 2**64 - 1
MAX_REALIZATIONS = 2**32

_DEFAULT_RULES = {
    Method.SECOND_ORDER: OffsetRule.SECOND_ORDER_CLASSIC,
    Method.THIRD_ORDER_UV: OffsetRule.UNIVARIATE_ERGODIC,
    Method.THIRD_ORDER_MV: OffsetRule.MULTIVARIATE_DOUBLE_INDEX,
    Method.THIRD_ORDER_MV_FFT: OffsetRule.MULTIVARIATE_DOUBLE_INDEX,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated simulation run description."""

    grid: FrequencyGrid
    method: Method
    seed: int
    realizations: int
    target_kind: str  # "wind-example" | "tabulated"
    spectrum: CrossSpectrum
    bispectrum: CrossBispectrum
    m_f: int | None = None
    blocks: int | None = None
    out_dir: str = "."
    out_format: str = "bin"  # "bin" | "csv"
    tolerances: dict = field(default_factory=dict)


_MISSING = object()


class _Reader:
    """Tracks field paths and collects precise problems."""

    def __init__(self, data: dict, path: str = ""):
        self.data = data
        self.path = path
        self.problems: list[str] = []
        self.used: set[str] = set()

    def _at(self, key):
        return f"{self.path}.{key}" if self.path else key

    def take(self, key, kind, default=_MISSING):
        self.used.add(key)
        if key not in self.data:
            if default is _MISSING:
                self.problems.append(f"missing field '{self._at(key)}'")
                return None
            return default
        value = self.data[key]
        if kind is float and type(value) is int:
            if abs(value) > sys.float_info.max:
                self.problems.append(f"field '{self._at(key)}' is beyond the float range")
                return None
            value = float(value)
        # a JSON boolean is an int to isinstance, but never a number here
        if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
            kname = kind.__name__ if hasattr(kind, "__name__") else str(kind)
            self.problems.append(
                f"field '{self._at(key)}' must be {kname},"
                f" got {type(value).__name__}"
            )
            return None
        return value

    def sub(self, key, required=True):
        obj = self.take(key, dict) if required else self.take(key, dict, default=None)
        child = _Reader(obj or {}, self._at(key))
        child.problems = self.problems
        return child

    def finish(self):
        unknown = set(self.data) - self.used
        for key in sorted(unknown):
            self.problems.append(f"unknown field '{self._at(key)}'")


def _unique_keys(pairs: list) -> dict:
    """JSON object hook that refuses a key given twice in one object."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"duplicate field {key!r}")
        data[key] = value
    return data


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse and fully validate a configuration document.

    Raises
    ------
    ConfigError
        Listing every problem found (syntax, unknown fields, bad values,
        missing or invalid target tables).
    """
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ConfigError:
        raise
    except ValueError as exc:  # bad syntax, or an integer too long to read
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")

    top = _Reader(data)
    version = top.take("schema_version", int)
    if version is not None and version != SCHEMA_VERSION:
        top.problems.append(
            f"unsupported schema_version {version} (expected {SCHEMA_VERSION})"
        )

    g = top.sub("grid")
    m = g.take("m", int)
    N = g.take("N", int)
    delta_omega = g.take("delta_omega", float, default=None)
    omega_u = g.take("omega_u", float, default=None)
    rule_name = g.take("offset_rule", str, default=None)
    m_f = g.take("m_f", int, default=None)
    blocks = g.take("blocks", int, default=None)
    g.finish()

    method_name = top.take("method", str)
    method = _METHODS.get(method_name) if method_name else None
    if method_name is not None and method is None:
        top.problems.append(
            f"field 'method' must be one of {sorted(_METHODS)}, got {method_name!r}"
        )

    seed = top.take("seed", int, default=0)
    realizations = top.take("realizations", int, default=1)

    t = top.sub("target")
    target_kind = t.take("kind", str)
    spectrum_csv = t.take("spectrum_csv", str, default=None)
    bispectrum_csv = t.take("bispectrum_csv", str, default=None)
    bispectrum_scale = t.take("bispectrum_scale", float, default=1.0)
    t.finish()

    o = top.sub("output", required=False)
    out_dir = o.take("directory", str, default=".")
    out_format = o.take("format", str, default="bin")
    o.finish()

    tolerances = top.take("tolerances", dict, default={})
    top.finish()

    # value checks
    if m is not None and m < 1:
        top.problems.append("grid.m must be >= 1")
    if N is not None and N < 1:
        top.problems.append("grid.N must be >= 1")
    if delta_omega is None and omega_u is None:
        top.problems.append("grid needs delta_omega or omega_u")
    if delta_omega is not None and omega_u is not None:
        top.problems.append("grid.delta_omega and grid.omega_u are exclusive")
    top.problems += range_problems(seed=seed, realizations=realizations)
    top.problems += _tolerance_problems(tolerances or {})
    if out_format not in ("bin", "csv"):
        top.problems.append(f"output.format must be 'bin' or 'csv', got {out_format!r}")
    if target_kind is not None and target_kind not in ("wind-example", "tabulated"):
        top.problems.append(
            f"target.kind must be 'wind-example' or 'tabulated', got {target_kind!r}"
        )
    rule = None
    if rule_name is not None:
        rule = _RULES.get(rule_name)
        if rule is None:
            top.problems.append(
                f"grid.offset_rule must be one of {sorted(_RULES)}, got {rule_name!r}"
            )
    if method is Method.THIRD_ORDER_UV and m is not None and m != 1:
        top.problems.append("method 'third-uv' requires grid.m = 1")
    if target_kind == "wind-example" and m is not None and m != 3:
        top.problems.append("target 'wind-example' requires grid.m = 3")
    if target_kind == "tabulated" and spectrum_csv is None:
        top.problems.append("target.spectrum_csv is required for tabulated targets")

    if top.problems:
        raise ConfigError(top.problems)

    if delta_omega is None:
        delta_omega = omega_u / N
    if rule is None:
        rule = _DEFAULT_RULES[method]
    try:
        grid = FrequencyGrid(m, N, delta_omega, rule)
        SamplingPlan.for_grid(grid, m_f, blocks)
    except (InvalidParameterError, OverflowError) as exc:
        raise ConfigError(f"grid: {exc}") from None

    # fail-fast target loading and validation
    if target_kind == "wind-example":
        spectrum, bispectrum = build_example_targets(grid)
    else:
        try:
            spectrum = read_spectrum_csv(os.path.join(base_dir, spectrum_csv), grid)
            bispectrum = None
            if bispectrum_csv is not None:
                bispectrum = read_bispectrum_csv(os.path.join(base_dir, bispectrum_csv), grid)
        except (InvalidInputError, OSError, UnicodeError) as exc:
            raise ConfigError(f"target: {exc}") from None
    if bispectrum is None:
        bispectrum = zero_bispectrum(grid)
    elif bispectrum_scale != 1.0:
        bispectrum = CrossBispectrum(grid, bispectrum.values * bispectrum_scale)

    report = validate_spectrum(spectrum)
    if not report.ok:
        raise ConfigError([f"spectrum target invalid: {v}" for v in report.violations])
    report = validate_bispectrum(bispectrum)
    if not report.ok:
        raise ConfigError(
            [f"bispectrum target invalid: {v}" for v in report.violations]
        )

    return RunConfig(
        grid=grid,
        method=method,
        seed=seed,
        realizations=realizations,
        target_kind=target_kind,
        spectrum=spectrum,
        bispectrum=bispectrum,
        m_f=m_f,
        blocks=blocks,
        out_dir=out_dir,
        out_format=out_format,
        tolerances=tolerances,
    )


def range_problems(seed=None, realizations=None, seeds=None, prefix: str = "") -> list[str]:
    """Problems with a seed, an ensemble size or a count of seeds from ``seed`` on."""
    problems = []
    if seed is not None and not 0 <= seed <= MAX_SEED:
        problems.append(f"{prefix}seed must be in [0, 2**64), got {seed}")
    if realizations is not None and not 0 <= realizations <= MAX_REALIZATIONS:
        problems.append(f"{prefix}realizations must be in [0, 2**32], got {realizations}")
    if seeds is not None and not 0 <= seeds <= MAX_REALIZATIONS:
        problems.append(f"{prefix}seeds must be in [0, 2**32], got {seeds}")
    elif seeds and seed is not None and seed + seeds - 1 > MAX_SEED:
        problems.append(f"{prefix}seeds: the last seed {seed + seeds - 1} is not below 2**64")
    return problems


def _tolerance_problems(tolerances: dict) -> list[str]:
    problems = []
    for key, value in tolerances.items():
        if key not in DEFAULT_ENSEMBLE_TOLERANCES:
            problems.append(
                f"unknown field 'tolerances.{key}'"
                f" (expected one of {list(DEFAULT_ENSEMBLE_TOLERANCES)})"
            )
        elif (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not 0 <= value <= sys.float_info.max  # NaN, inf and huge integers fail
        ):
            problems.append(
                f"field 'tolerances.{key}' must be a finite number >= 0, got {value!r}"
            )
    return problems
