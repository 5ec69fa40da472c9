"""Service-wide telemetry substrate: synthetic fleet, demand analysis,
and wait-threshold calibration."""

from repro.fleet.analysis import (
    ChangeEventStats,
    FleetDemandAnalysis,
    analyze_fleet,
    analyze_tenant,
    assign_container_levels,
)
from repro.fleet.chaos import ChaosSweepResult, TenantChaosOutcome, chaos_sweep
from repro.fleet.degraded import (
    DegradedVectorizedAutoScaler,
    FleetChaosResult,
    MaskedFaultDataPlane,
    run_fleet_chaos,
)
from repro.fleet.calibration import (
    FleetTelemetry,
    WaitSample,
    calibrate_thresholds,
    collect_fleet_telemetry,
)
from repro.fleet.population import (
    DemandPattern,
    TenantProfile,
    population_traces,
    rate_series,
    synthesize_population,
    usage_series,
)
from repro.fleet.vectorized import (
    RULE_NAMES,
    ClosedLoopFleetSynthesizer,
    FleetDecisions,
    FleetDemand,
    FleetSignals,
    FleetTelemetryArrays,
    VectorizedAutoScaler,
    VectorizedTelemetry,
    counters_to_interval_arrays,
    estimate_fleet,
    replay_decisions,
    run_synthetic_sweep,
    synthesize_fleet_telemetry,
)

__all__ = [
    "RULE_NAMES",
    "ClosedLoopFleetSynthesizer",
    "FleetDecisions",
    "FleetDemand",
    "FleetSignals",
    "FleetTelemetryArrays",
    "VectorizedAutoScaler",
    "VectorizedTelemetry",
    "counters_to_interval_arrays",
    "estimate_fleet",
    "replay_decisions",
    "run_synthetic_sweep",
    "synthesize_fleet_telemetry",
    "ChangeEventStats",
    "FleetDemandAnalysis",
    "analyze_fleet",
    "analyze_tenant",
    "assign_container_levels",
    "ChaosSweepResult",
    "TenantChaosOutcome",
    "chaos_sweep",
    "DegradedVectorizedAutoScaler",
    "FleetChaosResult",
    "MaskedFaultDataPlane",
    "run_fleet_chaos",
    "FleetTelemetry",
    "WaitSample",
    "calibrate_thresholds",
    "collect_fleet_telemetry",
    "DemandPattern",
    "TenantProfile",
    "population_traces",
    "rate_series",
    "synthesize_population",
    "usage_series",
]
