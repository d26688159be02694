"""Heavy-ion fault injection (paper section 6).

The LEON-Express device was irradiated at the Louvain Cyclotron with ions of
6-110 MeV effective LET at fluxes of 400-5 000 ions/s/cm2.  This package is
the simulator's cyclotron: a per-bit Weibull cross-section model, Poisson
particle arrivals, a geometric multiple-bit-upset model for adjacent cells,
and a campaign runner that reproduces the paper's measurement procedure
(run a self-checking program, count the hardware error-monitor counters,
verify the checksum, classify failures).
"""

from repro.fault.beam import BeamParameters, HeavyIonBeam, WeibullCrossSection
from repro.fault.campaign import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    WarmStart,
    prepare_warm_start,
    warm_start_key,
)
from repro.fault.grading import (
    GoldenCheckpoint,
    GoldenTimeline,
    checkpoint_schedule,
    first_strike_instructions,
)
from repro.fault.crosssection import (
    CrossSectionCurve,
    WeibullFit,
    fit_weibull,
    measure_curve,
    render_curve,
    sweep,
)
from repro.fault.executor import (
    CampaignExecutionError,
    CampaignExecutor,
    StrikeBatch,
    derive_seed,
    expand_runs,
    plan_batches,
    run_campaign,
)
from repro.fault.injector import FaultInjector, SeuTarget
from repro.fault.results import config_key

__all__ = [
    "BeamParameters",
    "Campaign",
    "CampaignConfig",
    "CampaignExecutionError",
    "CampaignExecutor",
    "CampaignResult",
    "CrossSectionCurve",
    "FaultInjector",
    "GoldenCheckpoint",
    "GoldenTimeline",
    "HeavyIonBeam",
    "SeuTarget",
    "StrikeBatch",
    "WarmStart",
    "WeibullCrossSection",
    "WeibullFit",
    "checkpoint_schedule",
    "config_key",
    "derive_seed",
    "expand_runs",
    "first_strike_instructions",
    "fit_weibull",
    "measure_curve",
    "plan_batches",
    "prepare_warm_start",
    "render_curve",
    "run_campaign",
    "sweep",
    "warm_start_key",
]
