"""Per-layer measurement for the traced run, taken from outside the library.

Two sources, both owned by the benchmark:

* spans: every library call a workload makes goes through ``Spans.call``,
  which records name, start, end and the instance it served.  Spans are
  kept in memory and written as JSON lines when the run ends.
* the stdlib deterministic profiler (``cProfile``), switched on around
  each instance's work only.  It gives cumulative time and call counts of
  library functions the benchmark never calls directly (``order_edges``,
  ``evaluate`` inside the testers, ``Scalar`` arithmetic) and the self
  time of whole modules.

A metric named ``<layer>.<function>_s`` is the profiler's cumulative time
in that function per round, over every caller, so calls made inside
other library functions count too.  ``<layer>.self_s`` is the self time
of the layer's module per round; builtins its functions call are timed
apart from it.  ``*_calls`` and the other counts are call counts per
round.  Sizes (``gates_in``, ``steps_out``, ``bytes``, peaks and ratios)
come from each instance's check.
"""

from __future__ import annotations

import cProfile
import fractions
import importlib
import json
import pstats
import time
from pathlib import Path

# metric -> functions (module:qualified name) whose cumulative time it sums
TIMES = {
    "stagger.staggerize_s": ["stagger:staggerize"],
    "stagger.order_edges_s": ["stagger:order_edges"],
    "circuits.validate_s": ["circuits:validate"],
    "circuits.slp_to_circuit_s": ["circuits:slp_to_circuit"],
    "circuits.circuit_to_slp_s": ["circuits:circuit_to_slp"],
    "circuits.expand_s": ["circuits:expand"],
    "circuits.evaluate_s": ["circuits:evaluate"],
    "textio.parse_s": ["textio:parse_circuit", "textio:parse_polynomial"],
    "textio.serialize_s": ["textio:serialize_circuit", "textio:serialize_polynomial"],
    "cli.main_s": ["cli:main"],
    "transforms.homog_s": ["transforms:homogeneous_components"],
    "transforms.deriv_s": ["transforms:partial_derivative_y"],
    "transforms.depth_to_width_s": ["transforms:depth_to_width"],
    "transforms.sparse_to_width2_s": ["transforms:sparse_to_width2"],
    "rootfind.root_circuit_s": ["rootfind:root_circuit"],
    "rootfind.newton_s": ["rootfind:newton_series_root"],
    "pit.sz_s": ["pit:schwartz_zippel"],
    "pit.nw_s": ["pit:nw_pit"],
    "pit.verify_perm_s": ["pit:verify_permanent_circuit"],
    "families.build_s": [
        "families:build_P",
        "families:build_palindrome",
        "families:build_E_abp",
        "families:build_E_width2",
        "families:build_permanent_sparse",
    ],
    "monotone.mon_set_s": ["monotone:mon_set"],
}

# metric -> functions whose call counts it sums
CALLS = {
    "circuits.validate_calls": ["circuits:validate"],
    "circuits.expand_calls": ["circuits:expand"],
    "circuits.evaluate_calls": ["circuits:evaluate"],
    "polynomials.mul_calls": ["polynomials:SparsePolynomial.mul"],
    "polynomials.monomials_built": ["polynomials:Monomial.__init__"],
    "rings.scalars_built": ["rings:Scalar.__init__"],
    "rings.scalar_ops": [
        "rings:Scalar." + name
        for name in ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
                     "inverse", "__truediv__", "__rtruediv__", "__pow__")
    ],
    "pit.hard_family_evals": ["pit:HardFamily.evaluate"],
}

LAYERS = (
    "rings", "polynomials", "circuits", "stagger", "transforms", "rootfind",
    "pit", "textio", "cli", "families", "formulas", "monotone",
)

# metric -> module whose functions' self time it sums
SELF = {f"{layer}.self_s": layer for layer in LAYERS}
SELF["rings.fraction_self_s"] = None  # the stdlib Fraction class

# sizes from the checks; these combine by max over instances, the rest by sum
MAX_COUNTS = {
    "stagger.register_ratio",
    "stagger.size_ratio",
    "polynomials.peak_terms",
    "polynomials.peak_degree",
}
CHECK_COUNTS = [
    "stagger.gates_in",
    "stagger.steps_out",
    "stagger.registers_out",
    "stagger.register_ratio",
    "stagger.size_ratio",
    "circuits.gates_out",
    "textio.bytes",
    "cli.commands",
    "cli.exit_nonzero",
    "polynomials.peak_terms",
    "polynomials.peak_degree",
    "transforms.steps_out",
    "rootfind.steps_out",
    "rootfind.index_set_size",
]
OVERHEAD = "trace.overhead_ratio"


def _key(code) -> tuple:
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _resolve(spec: str):
    module, qualname = spec.split(":")
    obj = importlib.import_module(f"slpforge.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return _key(obj.__code__)


def _nested(spec: str, name: str):
    module, qualname = spec.split(":")
    outer = getattr(importlib.import_module(f"slpforge.{module}"), qualname).__code__
    (code,) = [c for c in outer.co_consts if getattr(c, "co_name", None) == name]
    return _key(code)


class Profiles:
    """Resolves the functions behind each metric once, then reads profiles."""

    def __init__(self):
        self.times = {m: [_resolve(s) for s in specs] for m, specs in TIMES.items()}
        self.calls = {m: [_resolve(s) for s in specs] for m, specs in CALLS.items()}
        self.files = {
            metric: (
                importlib.import_module(f"slpforge.{module}").__file__
                if module
                else fractions.__file__
            )
            for metric, module in SELF.items()
        }
        self.evaluate = _resolve("circuits:evaluate")
        self.nw_pit = _resolve("pit:nw_pit")
        self.inner = _nested("pit:nw_pit", "inner")
        self.hard = _resolve("pit:HardFamily.evaluate")
        self.pit_file = self.nw_pit[0]

    def metrics(self, profile: cProfile.Profile) -> tuple[dict, float]:
        """The profile's metrics, and the self time of everything it saw."""
        stats = pstats.Stats(profile).stats
        empty = (0, 0, 0.0, 0.0, {})
        out = {}
        for metric, keys in self.times.items():
            out[metric] = sum(stats.get(k, empty)[3] for k in keys)
        for metric, keys in self.calls.items():
            out[metric] = sum(stats.get(k, empty)[1] for k in keys)
        for metric, path in self.files.items():
            out[metric] = sum(v[2] for k, v in stats.items() if k[0] == path)
        callers = stats.get(self.evaluate, empty)[4]
        out["pit.points_evaluated"] = sum(
            v[0] for k, v in callers.items() if k[0] == self.pit_file
        )
        out["pit.grid_points"] = callers.get(self.nw_pit, (0,))[0]
        lookups = stats.get(self.inner, empty)[1]
        misses = stats.get(self.hard, empty)[4].get(self.inner, (0,))[0]
        out["pit.inner_cache_hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
        return out, sum(v[2] for v in stats.values())


def is_count(metric: str) -> bool:
    """Counts repeat exactly on the same code and seed; times do not."""
    return not metric.endswith("_s") and metric != OVERHEAD


class Spans:
    """Records one span per library call; ``call`` is what workloads use."""

    def __init__(self):
        self.records: list[dict] = []
        self.instance = None

    def call(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.records.append(
                {"name": name, "start": start, "end": time.perf_counter(),
                 "parent": self.instance}
            )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")

