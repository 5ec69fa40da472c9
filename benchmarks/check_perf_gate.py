"""CI perf-regression gate over the committed benchmark results.

Validates ``BENCH_perf_telemetry.json`` (the full-mode numbers regenerated
by ``benchmarks/bench_perf_telemetry.py`` and committed alongside perf
changes) against the floors the repository claims:

* vectorized fleet sweep >= 10x over the scalar decide loop, with the
  decision-identity assertion having passed;
* tracing byte-identity held;
* the columnar fleet observability pipeline (recorder + tracer + health
  monitor) costs < 10% over the uninstrumented sweep, decisions identical;
* checkpoint capture (the synchronous ``state_dict`` snapshot) costs
  < 10% of a fleet sweep interval, the snapshot stays immutable while the
  live engine keeps mutating, and a restored engine resumes bit-identical;
* the degraded-mode chaos sweep (5% of tenant-intervals faulted, masks
  compiled, guard verdicts and circuit breakers live) stays within 2x of
  the healthy vectorized sweep per interval.

The gate intentionally reads the *committed* JSON rather than re-running
the benchmark: CI machines are too noisy to time a fleet sweep, but they
can verify that whoever touched the hot path re-ran the benchmark and
that the committed numbers still back the README/DESIGN claims.  Run the
smoke suite (``tests/test_perf_telemetry_smoke.py``) for a fresh,
machine-local timing check.

Usage::

    python benchmarks/check_perf_gate.py [path/to/BENCH_perf_telemetry.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_RESULT_PATH = REPO_ROOT / "BENCH_perf_telemetry.json"

#: (path into the JSON, floor) — committed full-mode numbers must meet these.
SPEEDUP_FLOORS = [
    (("fleet_vectorized", "speedup"), 10.0),
]

TRUTH_FLAGS = [
    ("fleet_vectorized", "decisions_identical"),
    ("tracing", "byte_identical"),
    ("fleet_observability", "decisions_identical"),
    ("checkpoint", "snapshot_immutable"),
    ("checkpoint", "restore_identical"),
    ("fleet_1m", "closed_loop"),
    ("fleet_1m", "actuated"),
]

#: Fleet arms must at least hit the target they record for themselves —
#: keeps the committed JSON, the benchmark constants, and the gate in
#: agreement instead of drifting independently.
SELF_CONSISTENT_SPEEDUPS = [
    ("fleet_vectorized",),
]

#: The fleet-scale closed-loop arm (1M tenants, float64 rings, signals
#: over the whole fleet at once) must stay inside its own recorded ceilings.
FLEET_1M_CEILINGS = [
    ("mean_interval_s", "max_mean_interval_s"),
    ("peak_rss_gb", "max_peak_rss_gb"),
]

#: (path into the JSON, ceiling) — overheads the committed numbers must stay under.
OVERHEAD_CEILINGS = [
    (("fleet_observability", "overhead_pct"), 10.0),
    (("checkpoint", "overhead_pct"), 10.0),
]

#: (path into the JSON, ceiling) — dimensionless ratios that must stay under.
RATIO_CEILINGS = [
    (("chaos_degraded", "degraded_over_healthy"), 2.0),
]

#: The acceptance criterion for paper-scale sweeps: single-digit seconds.
SWEEP_100K_MAX_MEAN_INTERVAL_S = 10.0


def _lookup(result: dict, path: tuple) -> object:
    node = result
    for key in path:
        if not isinstance(node, dict) or key not in node:
            raise KeyError("/".join(map(str, path)))
        node = node[key]
    return node


def check(result: dict) -> list[str]:
    """Return a list of violations (empty = gate passes)."""
    problems = []
    if result.get("mode") != "full":
        problems.append(
            f"committed results must come from a full run, got mode="
            f"{result.get('mode')!r}: re-run "
            "`python benchmarks/bench_perf_telemetry.py` and commit the JSON"
        )
        return problems
    for path, floor in SPEEDUP_FLOORS:
        name = "/".join(map(str, path))
        try:
            value = _lookup(result, path)
        except KeyError:
            problems.append(f"missing {name}")
            continue
        if not isinstance(value, (int, float)) or value < floor:
            problems.append(f"{name} = {value} below the {floor}x floor")
    for path in TRUTH_FLAGS:
        name = "/".join(map(str, path))
        try:
            value = _lookup(result, path)
        except KeyError:
            problems.append(f"missing {name}")
            continue
        if value is not True:
            problems.append(f"{name} = {value!r}, expected True")
    for path, ceiling in OVERHEAD_CEILINGS:
        name = "/".join(map(str, path))
        try:
            value = _lookup(result, path)
        except KeyError:
            problems.append(f"missing {name}")
            continue
        if not isinstance(value, (int, float)) or value > ceiling:
            problems.append(f"{name} = {value} above the {ceiling}% ceiling")
    for path, ceiling in RATIO_CEILINGS:
        name = "/".join(map(str, path))
        try:
            value = _lookup(result, path)
        except KeyError:
            problems.append(f"missing {name}")
            continue
        if not isinstance(value, (int, float)) or value > ceiling:
            problems.append(f"{name} = {value} above the {ceiling}x ceiling")
    try:
        mean_s = _lookup(result, ("sweep_100k", "mean_interval_s"))
        if mean_s > SWEEP_100K_MAX_MEAN_INTERVAL_S:
            problems.append(
                f"sweep_100k/mean_interval_s = {mean_s}s exceeds the "
                f"{SWEEP_100K_MAX_MEAN_INTERVAL_S}s ceiling"
            )
    except KeyError:
        problems.append("missing sweep_100k/mean_interval_s")
    for path in SELF_CONSISTENT_SPEEDUPS:
        name = "/".join(map(str, path))
        try:
            arm = _lookup(result, path)
            speedup = arm["speedup"]
            target = arm["target_speedup"]
        except (KeyError, TypeError):
            problems.append(f"missing {name}/speedup or target_speedup")
            continue
        if speedup < target:
            problems.append(
                f"{name}/speedup = {speedup} below its own recorded "
                f"target_speedup = {target}"
            )
    for value_key, ceiling_key in FLEET_1M_CEILINGS:
        try:
            value = _lookup(result, ("fleet_1m", value_key))
            ceiling = _lookup(result, ("fleet_1m", ceiling_key))
        except KeyError as exc:
            problems.append(f"missing fleet_1m key: {exc}")
            continue
        if not isinstance(value, (int, float)) or value > ceiling:
            problems.append(
                f"fleet_1m/{value_key} = {value} exceeds the "
                f"{ceiling} ceiling ({ceiling_key})"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    path = Path(args[0]) if args else DEFAULT_RESULT_PATH
    if not path.exists():
        print(f"perf gate: {path} not found")
        return 1
    result = json.loads(path.read_text())
    problems = check(result)
    if problems:
        print(f"perf gate FAILED against {path}:")
        for problem in problems:
            print(f"  - {problem}")
        print(
            "\nIf the hot path legitimately changed, regenerate with "
            "`python benchmarks/bench_perf_telemetry.py` on a quiet machine "
            "and commit the refreshed JSON."
        )
        return 1
    vec = result["fleet_vectorized"]
    sweep = result["sweep_100k"]
    obs = result["fleet_observability"]
    ckpt = result["checkpoint"]
    chaos = result["chaos_degraded"]
    big = result["fleet_1m"]
    print(
        f"perf gate OK: vectorized {vec['speedup']}x "
        f"({vec['tenants']} tenants), 100k sweep "
        f"{sweep['mean_interval_s']}s/interval, {big['tenants']}-tenant "
        f"closed loop {big['mean_interval_s']}s/interval at "
        f"{big['peak_rss_gb']} GB peak RSS, fleet pipeline "
        f"{obs['overhead_pct']:+.1f}% overhead, checkpoint capture "
        f"{ckpt['overhead_pct']:+.1f}% of interval, degraded chaos sweep "
        f"{chaos['degraded_over_healthy']}x of healthy, all floors met"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
