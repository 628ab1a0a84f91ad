"""Per-layer tracing of uavcache from outside the package.

A :class:`Tracer` replaces each traced function with a timing wrapper at every
name it is looked up under: the defining module, every ``uavcache`` module
that imported it by name (``from .channel import uav_user_pathloss_db``), and
the class dict for methods.  Calls the package makes through its own module
globals are therefore seen too (``qoe`` calls ``delay_lower_bound_s``
internally).  Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts
every original object back.

Statistics are aggregated in memory per traced name: calls, inclusive
seconds, self seconds (inclusive minus the time spent in traced callees) and
exact work counts read from arguments and results.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import time
from array import array

MODULES = ("config", "linalg", "channel", "qoe", "cesn", "placement",
           "generators", "predictors", "sim", "cli")


def _points(args, kwargs, result) -> dict:
    """Number of values a vectorized kernel computed."""
    return {"points": int(getattr(result, "size", 1))}


def _local_search_evals(args, kwargs, result) -> dict:
    return {"evals": int(result.evaluations)}


def _solve_spd_gflop(args, kwargs, result) -> dict:
    """Flops of an SPD solve from the shapes: n^3/3 (Cholesky) + 2 n^2 m (two triangular solves)."""
    n = args[0].shape[0]
    rhs = args[1].shape
    m = 1 if len(rhs) == 1 else rhs[1]
    return {"gflop_computed": (n ** 3 / 3.0 + 2.0 * n * n * m) * 1e-9}


# (metric prefix, owner as "module" or "module:Class", attribute, work counter)
TARGETS = (
    ("placement.local_search", "placement", "place_uav_local_search", _local_search_evals),
    ("placement.closed_form", "placement", "place_uav_closed_form", None),
    ("placement.associate_rrh", "placement", "associate_rrh", None),
    ("placement.cluster_users", "placement", "cluster_users", None),
    ("placement.select_cache", "placement", "select_cache", None),
    ("placement.delta_power_saving", "placement", "delta_power_saving", None),
    ("channel.pathloss", "channel", "uav_user_pathloss_db", _points),
    ("channel.zfbf_sinr", "channel", "zfbf_sinr", None),
    ("channel.g2a_fronthaul", "channel", "g2a_fronthaul_bits", None),
    ("qoe.min_power", "qoe", "min_uav_power_w", _points),
    ("qoe.delay_lower_bound", "qoe", "delay_lower_bound_s", None),
    ("generators.world_build", "generators:SyntheticWorld", "__init__", None),
    ("generators.interval_positions", "generators:SyntheticWorld", "interval_positions", None),
    ("generators.position_at", "generators:SyntheticWorld", "position_at", None),
    ("predictors.train_content", "predictors", "train_content_model", None),
    ("predictors.train_mobility", "predictors", "train_mobility_model", None),
    ("predictors.pattern_data", "predictors", "content_pattern_data", None),
    ("predictors.pattern_data", "predictors", "mobility_pattern_data", None),
    ("predictors.esn_predictor_build", "predictors:EsnPredictor", "__init__", None),
    ("cesn.load_pattern", "cesn:EsnModel", "load_pattern", None),
    ("cesn.free_memory", "cesn", "free_memory", None),
    ("cesn.compute_conceptor", "cesn", "compute_conceptor", None),
    ("cesn.conceptor_or", "cesn", "conceptor_or", None),
    ("cesn.drive", "cesn:EsnModel", "drive", None),
    ("cesn.train_readout", "cesn:EsnModel", "train_readout", None),
    ("cesn.recall", "cesn:EsnModel", "recall", None),
    ("linalg.solve_spd", "linalg", "solve_spd", _solve_spd_gflop),
    ("linalg.pinv", "linalg", "pinv", None),
    ("linalg.sym_eig", "linalg", "sym_eig", None),
    ("linalg.random_reservoir", "linalg", "random_reservoir", None),
    ("sim.run_period", "sim", "run_period", None),
)

# Per-layer metrics of a traced run: (name, unit, better).  Every workload
# reports all of them; a layer the workload does not exercise reads 0.
PER_LAYER = (
    [("placement.local_search.calls", "count", "lower"),
     ("placement.local_search.s", "s", "lower"),
     ("placement.local_search.self_s", "s", "lower"),
     ("placement.local_search.evals", "count", "lower"),
     ("placement.local_search.evals_per_call", "count", "lower"),
     ("placement.closed_form.calls", "count", "lower")]
    + [(f"placement.{f}.{k}", u, "lower")
       for f in ("associate_rrh", "cluster_users", "select_cache", "delta_power_saving")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("channel.pathloss.calls", "count", "lower"),
       ("channel.pathloss.s", "s", "lower"),
       ("channel.pathloss.points", "count", "lower")]
    + [(f"channel.{f}.{k}", u, "lower")
       for f in ("zfbf_sinr", "g2a_fronthaul") for k, u in (("calls", "count"), ("s", "s"))]
    + [("qoe.min_power.calls", "count", "lower"),
       ("qoe.min_power.s", "s", "lower"),
       ("qoe.min_power.points", "count", "lower"),
       ("qoe.delay_lower_bound.calls", "count", "lower"),
       ("generators.world_build.s", "s", "lower"),
       ("generators.interval_positions.calls", "count", "lower"),
       ("generators.interval_positions.s", "s", "lower"),
       ("generators.position_at.calls", "count", "lower")]
    + [(f"predictors.{f}.{k}", u, "lower")
       for f in ("train_content", "train_mobility", "pattern_data")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("predictors.esn_predictor_build.s", "s", "lower")]
    + [(f"cesn.{f}.{k}", u, "lower")
       for f in ("load_pattern", "free_memory", "compute_conceptor", "drive", "train_readout")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("cesn.free_memory.self_s", "s", "lower"),
       ("cesn.conceptor_or.calls", "count", "lower"),
       ("cesn.recall.calls", "count", "lower"),
       ("cesn.recall.s", "s", "lower")]
    + [(f"linalg.{f}.{k}", u, "lower")
       for f in ("solve_spd", "pinv", "sym_eig", "random_reservoir")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("linalg.solve_spd.gflop_computed", "Gflop", "lower"),
       ("sim.run_period.calls", "count", "lower"),
       ("sim.run_period.s", "s", "lower"),
       ("sim.run_period.self_s", "s", "lower")]
    + [(f"{m}.self_s", "s", "lower")
       for m in ("placement", "channel", "qoe", "generators", "predictors", "cesn", "linalg")]
    + [("trace.overhead_frac", "fraction", "lower")]
)


class Stat:
    __slots__ = ("calls", "incl_s", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.work: dict[str, float] = {}

    def as_dict(self) -> dict:
        return {"calls": self.calls, "s": self.incl_s, "self_s": self.self_s, **self.work}


def _owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    module = importlib.import_module(f"uavcache.{module_name}")
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Installs timing wrappers on :data:`TARGETS`; use as a context manager."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, work):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # seconds spent in traced callees
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.incl_s += elapsed
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    stat.work[key] = stat.work.get(key, 0) + value
            return result

        return traced

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"uavcache.{m}") for m in MODULES]
        for name, owner_spec, attr, work in TARGETS:
            owner = _owner(owner_spec)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name, work)
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [(m, key) for m in modules for key, value in vars(m).items()
                         if value is original]
            for site, key in sites:
                self._restore.append((site, key, original))
                setattr(site, key, wrapper)
        return self

    def uninstall(self) -> None:
        for site, key, original in reversed(self._restore):
            setattr(site, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def table(self) -> dict[str, dict]:
        """Every traced name with its calls, inclusive/self seconds and work counts."""
        return {name: stat.as_dict() for name, stat in sorted(self.stats.items())}

    def per_layer(self, overhead_frac: float) -> dict[str, float]:
        """Values of :data:`PER_LAYER` for what this tracer recorded."""
        values: dict[str, float] = {}
        for name, stat in self.stats.items():
            for key, value in stat.as_dict().items():
                values[f"{name}.{key}"] = value
        ls = self.stats.get("placement.local_search")
        values["placement.local_search.evals_per_call"] = (
            ls.work.get("evals", 0) / ls.calls if ls is not None and ls.calls else 0.0)
        for module in MODULES:
            values[f"{module}.self_s"] = sum(
                stat.self_s for name, stat in self.stats.items()
                if name.startswith(module + "."))
        values["trace.overhead_frac"] = overhead_frac
        return {name: values.get(name, 0) for name, _, _ in PER_LAYER}


# Called thousands of times per operation for microseconds each: stamps there
# would cost more than the finer pieces are worth.
UNSTAMPED = frozenset({"channel.pathloss", "qoe.min_power", "qoe.delay_lower_bound",
                       "generators.position_at", "generators.interval_positions"})


class Timeline(Tracer):
    """Stamps the clock on entry to and exit from the traced functions.

    The stamps cut an operation into pieces, the same pieces in every
    repetition of a deterministic operation, so that :func:`fastest_pieces`
    can take each piece from the repetition in which it ran fastest.
    """

    def __init__(self):
        super().__init__()
        self.stamps = array("d")

    def _wrap(self, fn, name: str, work):
        if name in UNSTAMPED:
            return fn
        stamp = self.stamps.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            stamp(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                stamp(clock())

        return stamped


def pieces(stamps, start: float, end: float) -> list[float]:
    """Seconds between consecutive stamps from ``start`` to ``end``."""
    lo, hi = bisect.bisect_right(stamps, start), bisect.bisect_left(stamps, end)
    cuts = [start, *stamps[lo:hi], end]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def fastest_pieces(repetitions: list[list[float]]) -> float | None:
    """Sum over the pieces of each one's fastest repetition.

    None unless there are two repetitions or more, cut into as many pieces.
    """
    if len(repetitions) < 2 or len({len(r) for r in repetitions}) != 1:
        return None
    return sum(min(times) for times in zip(*repetitions))
