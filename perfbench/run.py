"""uavcache benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload oracle_paper --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one client, one BLAS thread, closed loop: the
workload's operation runs back to back, as many times as fit ``--seconds``
at the workload's nominal speed (at least ``MIN_REPEATS``), and every
operation's outputs are checked.  The count does not depend on how fast the
machine happens to be, so every run of a workload takes the same estimator;
only a machine ``SLOW_MACHINE_FACTOR`` times over the budget stops early.
The repetitions alternate between the CPUs the process may use.

Timing: a :class:`tracer.Timeline` stamps the clock on entry to and exit from
the package's main functions, which cuts every operation into the same
pieces (thousands to tens of thousands).  Each piece counts with its fastest
repetition, and ``op_s`` is the sum.  On a shared 2-vCPU VM each CPU has slow
spells of seconds in which the same code runs up to 1.7 times slower; a whole
operation's time depends on how many spells it met, its fastest pieces much
less.  The report line also gives the median whole operation.

``setup_s`` is the median over fresh processes, each timed from its spawn
until the workload's ``SyntheticWorld`` is built; half of them run before
the timed loop and half after it, so that one slow spell does not set the
median.

With ``--trace 1`` the same loop runs, then one more operation runs under
:class:`tracer.Tracer`; the result line carries the per-layer metrics and
``trace.overhead_frac`` compares the traced operation with the last
untraced one.  The traced outputs must equal the untraced ones.

Standard output: one ``{"report": ...}`` line with every metric by name and
unit, the checks and the environment, then the result line
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 2 when the
checkout has no ``src/uavcache``.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before numpy can be imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("oracle_paper", "train_p12", "learned_desk")
SETUP_PROBES = 6  # half before the timed loop, half after
MIN_REPEATS = 2  # operations per run, however long they take
SLOW_MACHINE_FACTOR = 1.5  # beyond this many times --seconds, stop at MIN_REPEATS
PROBE_TIMEOUT_S = 60
RUN_DEADLINE_S = 170  # the whole run must end well inside 180 s
END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=float, default=None, metavar="SPAWNED_AT",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import uavcache from this checkout's src/, never from an installed copy."""
    if not (SRC / "uavcache" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no uavcache sources under {SRC}; run from a source checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import uavcache
    if Path(uavcache.__file__).resolve().parent != SRC / "uavcache":
        sys.stderr.write(f"perfbench: imported uavcache from {uavcache.__file__}, not {SRC}\n")
        sys.exit(2)


def setup_probe(args) -> None:
    """Child process: import, configure, build the world, report time since spawn."""
    import_package()
    import workloads
    workloads.setup(workloads.WORKLOADS[args.workload], args.seed)
    print(json.dumps({"setup_s": time.monotonic() - args.setup_probe}))


def measure_setup(args, probes: int) -> list[float]:
    samples = []
    for _ in range(probes):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", repr(time.monotonic())]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# -- environment ------------------------------------------------------------------


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked through its own API."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout read from .git directly; 'unknown' outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


# -- the run ----------------------------------------------------------------------


def run_op(workload, cfg, world, stamped: bool = True):
    """One operation: (seconds, outcome or None, error text or None, stamps).

    The seconds are the operation's own timed phases, without its checks.
    With ``stamped`` it runs under a :class:`tracer.Timeline`.
    """
    from tracer import Timeline

    timeline = Timeline()
    start = time.perf_counter()
    try:
        if stamped:
            with timeline:
                outcome = workload.op(cfg, world)
        else:
            outcome = workload.op(cfg, world)
    except Exception:  # a failed operation is counted, the run goes on
        return time.perf_counter() - start, None, traceback.format_exc(), timeline.stamps
    return sum(outcome.times.values()), outcome, None, timeline.stamps


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe is not None:
        setup_probe(args)
        return 0
    signal.alarm(RUN_DEADLINE_S)
    run_start = time.perf_counter()
    import_package()
    setup_samples = [] if args.trace else measure_setup(args, SETUP_PROBES // 2)

    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    cfg, world = workloads.setup(workload, args.seed)
    pins = json.loads((HERE / "pins.json").read_text()).get(workload.name, {}).get(
        str(args.seed), {})

    problems: list[str] = []
    attempted = failed = 0
    outcomes = []

    def check(found: list[str], label: str) -> bool:
        """Count one attempted operation; a non-empty ``found`` fails it."""
        nonlocal attempted, failed
        attempted += 1
        failed += bool(found)
        problems.extend(f"{label}: {p}" for p in found)
        return not found

    def check_op(outcome, error, label: str) -> bool:
        if outcome is None:
            return check([error], label)
        found = list(outcome.problems)
        if outcomes and outcome.outputs != outcomes[0].outputs:
            diffs = workloads.mismatches(outcomes[0].outputs, outcome.outputs)
            found.append("outputs differ from the first operation: "
                         + "; ".join(diffs[:5] or ["only below the pin tolerance"]))
        if "outputs" in pins:
            found += [f"pin: {m}" for m in workloads.mismatches(pins["outputs"], outcome.outputs)]
        outcomes.append(outcome)
        return check(found, label)

    op_times: list[float] = []  # whole seconds of each good operation
    phase_pieces: dict[str, list[list[float]]] = {}  # phase -> pieces of each good operation
    cpus = sorted(os.sched_getaffinity(0))
    repeats = workload.repeats(args.seconds, MIN_REPEATS)
    cutoff = time.perf_counter() + SLOW_MACHINE_FACTOR * args.seconds
    while attempted < repeats:
        # Repetitions alternate between the CPUs this process may use: the
        # shared host slows one CPU at a time, for seconds to minutes, and
        # the fastest pieces then come from the other one.
        os.sched_setaffinity(0, {cpus[attempted % len(cpus)]})
        seconds, outcome, error, stamps = run_op(workload, cfg, world)
        if check_op(outcome, error, f"op {attempted}"):
            op_times.append(seconds)
            for phase, (start, end) in outcome.spans.items():
                phase_pieces.setdefault(phase, []).append(tracer.pieces(stamps, start, end))
        now = time.perf_counter()
        if now + 2 * seconds > run_start + RUN_DEADLINE_S - 10:
            break
        if attempted >= MIN_REPEATS and now + seconds > cutoff:  # a much slower machine
            break
    os.sched_setaffinity(0, cpus)
    timed = list(outcomes)
    if setup_samples:
        setup_samples += measure_setup(args, SETUP_PROBES - SETUP_PROBES // 2)

    # Each phase is the sum of its pieces, each piece from its fastest
    # repetition; with fewer than two good operations, the median whole phase.
    phase_s: dict[str, float] = {}
    for phase, reps in phase_pieces.items():
        if len({len(r) for r in reps}) > 1:
            check([f"{phase}: the repetitions were cut into {sorted({len(r) for r in reps})} "
                   "pieces; the operation does not repeat itself"], "timeline")
        fastest = tracer.fastest_pieces(reps)
        phase_s[phase] = fastest if fastest is not None else statistics.median(map(sum, reps))
    op_s = sum(phase_s.values()) if phase_s else seconds  # no good operation: the last one

    reference = None
    if workload.reference is not None and outcomes:
        try:
            reference = workload.reference(cfg, world, outcomes[0])
            found = list(reference.problems)
            if "reference" in pins:
                found += [f"pin: {m}" for m in
                          workloads.mismatches(pins["reference"], reference.outputs)]
        except Exception:
            found = [traceback.format_exc()]
        check(found, "reference")

    trace_table = per_layer = None
    if args.trace:
        traced = tracer.Tracer()
        with traced:
            traced_cfg, traced_world = workloads.setup(workload, args.seed)
            seconds, outcome, error, _ = run_op(workload, traced_cfg, traced_world,
                                                stamped=False)
        check_op(outcome, error, "traced op")
        trace_table = traced.table()
        # Against the last untraced operation: the nearest in time, so the
        # least affected by drifting machine speed.
        per_layer = traced.per_layer(seconds / op_times[-1] - 1.0 if op_times else 0.0)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- report ------------------------------------------------------------------
    metrics = {"op_s": (op_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    if setup_samples:
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
    metrics.update((phase, (value, "s")) for phase, value in phase_s.items())
    if op_times:
        metrics["whole_op_median_s"] = (statistics.median(op_times), "s")
    quality = dict(timed[0].quality) if timed else {}
    if reference is not None:
        quality.update(reference.quality)
    metrics.update(quality)
    metrics["failed_fraction"] = (failed / attempted, "fraction")

    info = {**(timed[0].info if timed else {}),
            **(reference.info if reference is not None else {})}
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "scenario_seed": cfg.seed,
        "pinned_seed": bool(pins),
        "run_seconds": args.seconds,
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": {"op_s": op_times, "setup_s": setup_samples},
        "pieces": {phase: [len(r) for r in reps] for phase, reps in phase_pieces.items()},
        "problems": problems[:20],
        "info": info,
        "info_matches_pin": ({k: v == pins["info"].get(k) for k, v in info.items()}
                             if pins else None),
        "environment": environment(),
    }
    if trace_table is not None:
        report["trace_table"] = trace_table
    print(json.dumps({"report": report}))

    if args.trace:
        result_metrics = {name: {"value": per_layer[name], "unit": unit}
                          for name, unit, _ in tracer.PER_LAYER}
    else:
        result_metrics = {name: {"value": metrics[name][0], "unit": unit}
                          for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
