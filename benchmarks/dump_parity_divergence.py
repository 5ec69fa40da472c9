"""Dump diverging decision columns: vectorized degraded fleet vs scalar twins.

It replays the canonical parity geometry through both engines — the
tenants :func:`repro.fleet.chaos.chaos_population` draws for
``chaos_sweep``, budgets included — compares the per-tenant decision
columns, writes ``parity-index.json`` (one entry per tenant run, with
its ``diverged_columns``) and one JSON file per diverging tenant under
``--out``.  The artifact then shows *which* columns diverged and *at
which interval*, without anyone having to re-run hypothesis locally.

Unlike the test suite this script never raises on divergence: it is a
post-mortem collector, so it records everything it can and exits 0 even
when the engines disagree.  CI's ``chaos-parity`` step runs it on every
build and fails the job itself unless every index entry has empty
``diverged_columns``; the artifact is uploaded when the job fails.

Usage::

    python benchmarks/dump_parity_divergence.py --out parity-artifacts \
        [--base-seeds 200 400] [--tenants 3] [--intervals 12] [--faults 4]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.core.latency import LatencyGoal
from repro.fleet.chaos import chaos_population
from repro.fleet.degraded import CIRCUIT_CODES, run_fleet_chaos
from repro.harness.chaos import run_chaos
from repro.workloads import cpuio_workload

TICKS = 6
WARM = 3
#: ``chaos_sweep``'s default budget position.
BUDGET_FACTOR = 0.35


def _vector_columns(fleet, t: int) -> dict:
    sc = fleet.scaler
    at = sc.catalog.at_level
    return {
        "decision_trace": [
            at(int(lv[t])).name for lv in fleet.decided_levels
        ],
        "actuated_containers": [
            at(int(c[t])).name for c in fleet.containers
        ],
        "actions": [
            list(w.actions[t])
            for waves in fleet.waves
            for w in waves
            if w.participants[t]
        ],
        "reports": [
            {
                "requested_level": int(fr.requested_level[t]),
                "applied_level": int(fr.applied_level[t]),
                "attempts": int(fr.attempts[t]),
                "backoff_ms": float(fr.backoff_ms[t]),
                "succeeded": bool(fr.succeeded[t]),
                "refund_scheduled": float(fr.refund_scheduled[t]),
                "circuit": CIRCUIT_CODES[fr.circuit[t]],
                "explanations": [list(e) for e in fr.explanations[t]],
            }
            for fr in fleet.reports
        ],
        "guard": {
            "admitted": int(sc.g_admitted[t]),
            "admitted_late": int(sc.g_admitted_late[t]),
            "quarantined": int(sc.g_quarantined[t]),
            "discarded": int(sc.g_discarded[t]),
            "missed": int(sc.g_missed[t]),
            "consecutive_quarantined": int(sc.g_consecutive[t]),
            "reasons": list(sc._g_reasons[t]),
        },
        "budget": {
            "available": float(sc._tokens[t]),
            "spent": float(sc._spent[t]),
            "refunded": float(sc._refunded[t]),
        },
        "safe_mode": bool(sc._safe[t]),
        "damper_cooldown": int(sc._d_cooldown[t]),
    }


def _scalar_columns(res) -> dict:
    g = res.guard.stats
    b = res.budget
    return {
        "decision_trace": res.decision_trace(),
        "actuated_containers": list(res.containers),
        "actions": [
            [e.action.value for e in d.explanations] for d in res.decisions
        ],
        "reports": [
            {
                "requested_level": r.requested.level,
                "applied_level": r.applied.level,
                "attempts": r.attempts,
                "backoff_ms": float(r.backoff_ms),
                "succeeded": r.succeeded,
                "refund_scheduled": float(r.refund_scheduled),
                "circuit": r.circuit.value,
                "explanations": [
                    [e.action.value, e.reason] for e in r.explanations
                ],
            }
            for r in res.reports
        ],
        "guard": {
            "admitted": g.admitted,
            "admitted_late": g.admitted_late,
            "quarantined": g.quarantined,
            "discarded": g.discarded,
            "missed": g.missed,
            "consecutive_quarantined": g.consecutive_quarantined,
            "reasons": list(g.reasons),
        },
        "budget": {
            "available": b.available,
            "spent": b.spent,
            "refunded": b.refunded,
        },
        "safe_mode": res.scaler._safe_mode,
        "damper_cooldown": res.scaler.damper.cooldown_remaining,
    }


def _first_divergence(vector, scalar):
    """Index of the first differing entry of two columns (lists), else None."""
    if isinstance(vector, list) and isinstance(scalar, list):
        for i, (v, s) in enumerate(zip(vector, scalar)):
            if v != s:
                return i
        if len(vector) != len(scalar):
            return min(len(vector), len(scalar))
        return None
    return None


def _diff_columns(vector: dict, scalar: dict) -> dict:
    diverged = {}
    for key in vector:
        if vector[key] != scalar[key]:
            diverged[key] = {
                "first_divergence": _first_divergence(vector[key], scalar[key]),
                "vectorized": vector[key],
                "scalar": scalar[key],
            }
    return diverged


def dump(base_seeds, n_tenants, n_intervals, n_faults, goal_ms, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = cpuio_workload()
    goal = LatencyGoal(goal_ms) if goal_ms is not None else None
    total_diverged = 0
    index = []
    for base_seed in base_seeds:
        population = chaos_population(
            n_tenants, base_seed, n_intervals, n_faults, TICKS, WARM,
            BUDGET_FACTOR,
        )
        fleet = run_fleet_chaos(
            workload,
            [draw.trace for draw in population],
            [draw.schedule for draw in population],
            config=population[0].config,
            seeds=[draw.seed for draw in population],
            goal=goal,
            budgets=[draw.budget for draw in population],
        )
        for t, draw in enumerate(population):
            res = run_chaos(
                workload,
                draw.trace,
                draw.schedule,
                config=draw.config,
                goal=goal,
                budget=draw.budget,
            )
            vector = _vector_columns(fleet, t)
            scalar = _scalar_columns(res)
            diverged = _diff_columns(vector, scalar)
            entry = {
                "base_seed": base_seed,
                "tenant": t,
                "seed": draw.seed,
                "schedule": [
                    [e.kind.value, e.interval, e.duration, e.magnitude]
                    for e in draw.schedule.events
                ],
                "diverged_columns": sorted(diverged),
            }
            index.append(entry)
            if diverged:
                total_diverged += 1
                path = out_dir / f"divergence-seed{base_seed}-t{t}.json"
                path.write_text(
                    json.dumps({**entry, "columns": diverged}, indent=2)
                )
                print(
                    f"seed {base_seed} tenant {t}: "
                    f"{', '.join(sorted(diverged))} -> {path}"
                )
    (out_dir / "parity-index.json").write_text(json.dumps(index, indent=2))
    if total_diverged == 0:
        print(
            f"no divergence across {len(index)} tenant runs (after a suite "
            "failure, re-run with the failing seed via --base-seeds)"
        )
    else:
        print(f"{total_diverged}/{len(index)} tenant runs diverged")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=Path("parity-artifacts"),
        help="directory receiving the JSON dumps",
    )
    parser.add_argument(
        "--base-seeds", type=int, nargs="+", default=[200, 400, 70],
        help="population base seeds to replay (default mirrors the suite)",
    )
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--intervals", type=int, default=12)
    parser.add_argument("--faults", type=int, default=4)
    parser.add_argument(
        "--goal-ms", type=float, default=100.0,
        help="latency goal; pass a negative value for goal-free scaling",
    )
    args = parser.parse_args(argv)
    goal_ms = None if args.goal_ms is not None and args.goal_ms < 0 else args.goal_ms
    dump(
        args.base_seeds, args.tenants, args.intervals, args.faults,
        goal_ms, args.out,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
