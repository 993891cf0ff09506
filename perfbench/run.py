"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mega_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
unmodified; ``--trace 1`` installs the layer wrappers and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; a full record (environment fingerprint, workload
metrics with sample counts, failures and, when traced, every span) is
written to ``.perfbench/`` at the checkout root.  The exit code is
non-zero when any correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
RECORDS = ROOT / ".perfbench"

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 25
"""An untraced run sets up at least 3 times and, for cheap set-ups, until
a second has passed (at most 25 times); ``setup_s`` is the median."""

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("baseline_ref.p50", "ref"),
    ("proposed_ref.p50", "ref"),
)
"""(name, unit) of the metrics an untraced run reports."""

ROLES = ("baseline", "proposed")

REFERENCE_SHARE = 0.02
"""Time spent on each reference measurement, as a share of a unit's."""


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one run measured, checked and recorded."""

    metrics: dict[str, float]
    units: dict[str, str]
    summary: list[tuple[str, float, str, int]]
    attempted: int
    failures: dict[str, list[str]]
    samples: dict[str, list[float]]
    spans: list[dict] = field(default_factory=list)


def measure(workload, seed: int, seconds: float) -> Outcome:
    """Untraced run: repeated set-up, then units until ``seconds`` pass.

    The reference computation is timed before and after every set-up and
    every unit.  ``setup_s`` is the median set-up time scaled to a host on
    which the reference takes :data:`reference.NOMINAL_MS`.  Each
    baseline and proposed sample of a unit is also recorded divided by
    the mean reference time around it, in multiples of the reference
    (``ref``).  Units run for ``step_share`` of ``seconds``; the
    workload's finish phase gets the rest.
    """
    from reference import NOMINAL_MS, Reference
    from workloads import Recorder, median

    reference = Reference()
    setup_times: list[float] = []
    setup_scaled: list[float] = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
        sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        state = None  # release the previous set-up before building the next
        budget_ms = REFERENCE_SHARE * 1000.0 * (setup_times[-1] if setup_times else 0.0)
        before = reference.measure_ms(budget_ms)
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
        ref_ms = (before + reference.measure_ms(budget_ms)) / 2.0
        setup_scaled.append(setup_times[-1] * NOMINAL_MS / ref_ms)
    rec = Recorder()
    start = time.perf_counter()
    units_deadline = start + seconds * workload.step_share
    unit = 0
    budget_ms = 0.0
    while unit < workload.min_units or time.perf_counter() < units_deadline:
        before = reference.measure_ms(budget_ms)
        taken = {role: len(rec.samples[role]) for role in ROLES}
        unit_start = time.perf_counter()
        workload.step(state, seed, unit, rec)
        budget_ms = REFERENCE_SHARE * (time.perf_counter() - unit_start) * 1000.0
        ref_ms = (before + reference.measure_ms(budget_ms)) / 2.0
        rec.samples["reference"].append(ref_ms)
        for role in ROLES:
            rec.samples[f"{role}_ref"] += [ms / ref_ms for ms in rec.samples[role][taken[role]:]]
        unit += 1
    workload.finish(state, rec, start + seconds)
    metrics = {
        "setup_s": median(setup_scaled),
        "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
        **{f"{role}_ref.p50": median(rec.samples[f"{role}_ref"]) for role in ROLES},
    }
    units = dict(END_TO_END)
    counts = {
        "setup_s": len(setup_times),
        "peak_rss_mb": 1,
        **{f"{role}_ref.p50": len(rec.samples[f"{role}_ref"]) for role in ROLES},
    }
    summary = [(name, metrics[name], units[name], counts[name]) for name in units]
    summary.append(("setup_measured_s", median(setup_times), "s", len(setup_times)))
    summary += [
        (f"{role}_ms.p50", median(rec.samples[role]), "ms", len(rec.samples[role]))
        for role in ROLES
    ]
    summary.append(
        ("reference_ms.p50", median(rec.samples["reference"]), "ms", len(rec.samples["reference"]))
    )
    summary += workload.summary(rec)
    failures = {str(index): reasons for index, reasons in rec.failures.items()}
    return Outcome(metrics, units, summary, rec.attempted, failures, dict(rec.samples))


def measure_traced(workload, seed: int) -> Outcome:
    """Traced run: a fixed list of units, each run untraced and traced.

    The untraced and traced runs of a unit alternate in order, so drift
    on the host does not bias the overhead.  The set-up is traced on its
    own tracer: only the set-up metrics come from it.  Counts come from
    the traced runs and repeat exactly for a given seed.
    """
    import layers
    from spans import Tracer
    from workloads import Recorder

    # The counter also holds children reaped before this process exec'd;
    # only a peak above that comes from this run's worker processes.
    children_before = _rss_mb(resource.RUSAGE_CHILDREN)
    setup_tracer, tracer = Tracer(), Tracer()
    layers.register(setup_tracer)
    layers.register(tracer)
    with setup_tracer.installed(), setup_tracer.op("setup"):
        state = workload.setup(seed)
    plain, traced = Recorder(), Recorder(tracer)
    for unit in range(workload.trace_units):
        # Order pattern 0,1,1,0,...: balanced overall and for every other
        # unit, which is what plan_converge alternates its two plans on.
        first_untraced = (unit + unit // 2) % 2 == 0
        for rec in (plain, traced) if first_untraced else (traced, plain):
            workload.step(state, seed, unit, rec)
    for rec in (plain, traced):
        workload.finish(state, rec, None)
    plain_ms = sum(sum(plain.samples[kind]) for kind in workload.overhead_kinds)
    traced_ms = sum(sum(traced.samples[kind]) for kind in workload.overhead_kinds)
    overhead_ms = traced_ms - plain_ms
    children_after = _rss_mb(resource.RUSAGE_CHILDREN)
    metrics = layers.metrics(
        tracer,
        setup_tracer,
        efficiency=workload.efficiency(plain, state),
        child_peak_rss_mb=children_after if children_after > children_before else 0.0,
        overhead_ms=overhead_ms,
        overhead_pct=100.0 * overhead_ms / plain_ms if plain_ms else 0.0,
    )
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    summary = [(name, metrics[name], unit, traced.attempted) for name, unit in units.items()]
    failures = {f"untraced-{index}": reasons for index, reasons in plain.failures.items()}
    failures.update({f"traced-{index}": reasons for index, reasons in traced.failures.items()})
    samples = {f"untraced-{kind}": values for kind, values in plain.samples.items()}
    samples.update({f"traced-{kind}": values for kind, values in traced.samples.items()})
    spans = setup_tracer.records() + tracer.records()
    return Outcome(
        metrics, units, summary, plain.attempted + traced.attempted, failures, samples, spans
    )


def stop_helper_processes() -> None:
    """Stop and reap every helper process the run left behind.

    Joins any multiprocessing child still alive, then stops
    multiprocessing's resource tracker.  The hybrid executor's
    shared-memory payload starts that tracker, which is spawned to
    outlive the process that started it; closing its pipe makes it exit,
    and the call waits until it has.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_helper_processes()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced grid and training sizes (self-test only)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))

    import env
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    overrides = env.code_path_overrides()
    if overrides:
        print(
            f"perfbench: refusing to run with code-path overrides set: {', '.join(overrides)}",
            file=sys.stderr,
        )
        return 2

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    fingerprint = env.fingerprint()
    if args.trace:
        outcome = measure_traced(workload, args.seed)
    else:
        outcome = measure(workload, args.seed, args.seconds)
    failed = len(outcome.failures)

    print(f"# perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print(f"# fingerprint {json.dumps(fingerprint, sort_keys=True)}")
    for name, value, unit, samples in outcome.summary:
        print(f"{name:<44} {value:>14.6g} {unit:<12} n={samples}")
    print(f"{'ops_attempted':<44} {outcome.attempted:>14d} count")
    print(f"{'ops_failed':<44} {failed:>14d} count")
    for op, reasons in outcome.failures.items():
        for reason in reasons:
            print(f"# FAILED op {op}: {reason.splitlines()[0]}", file=sys.stderr)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "fingerprint": fingerprint,
        "metrics": [
            {"name": name, "value": value, "unit": unit, "samples": samples}
            for name, value, unit, samples in outcome.summary
        ],
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "samples": outcome.samples,
        "spans": outcome.spans,
    }
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in outcome.units.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
