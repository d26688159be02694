"""Campaign result serialization: run identity and the stored row format.

A run is keyed by the fields that determine its outcome (program, beam
setting, seed, timeline) -- :func:`config_key`.  Runs are pure functions of
their config, so a stored result is exactly what re-running would produce;
the campaign database (:class:`repro.store.CampaignDatabase`) keys its
rows by this string, which is what lets ``campaign --results`` skip every
run already stored.

:func:`result_to_dict` / :func:`result_from_dict` are the row payload --
also the line format of the JSONL result logs ``repro ingest`` imports.
The device configuration (``CampaignConfig.leon``) is not serialized; the
store covers campaigns on the default device.
"""

from __future__ import annotations

import json

from repro.errors import ConfigurationError
from repro.fault.campaign import CampaignConfig, CampaignResult

#: CampaignConfig fields serialized into the store (order fixed).
_CONFIG_FIELDS = (
    "program", "let", "flux", "fluence", "seed",
    "instructions_per_second", "max_instructions",
    "flush_period_instructions", "beam_delay_s", "beam_tail_s",
    "recovery",
)


def config_key(config: CampaignConfig) -> str:
    """Stable identity of one run, as a canonical JSON string."""
    if config.leon is not None:
        raise ConfigurationError(
            "the campaign database only stores runs on the default "
            "device configuration (CampaignConfig.leon is set)")
    payload = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    payload["program_kwargs"] = dict(sorted(config.program_kwargs.items()))
    # Fault-model fields serialize only when non-default, so every key
    # (and stored row) written before the model layer existed -- and every
    # default-model key after it -- stays byte-identical.
    if config.fault_model != "seu":
        payload["fault_model"] = config.fault_model
    if config.fault_params:
        payload["fault_params"] = dict(sorted(config.fault_params.items()))
    return json.dumps(payload, sort_keys=True)


def config_to_dict(config: CampaignConfig) -> dict:
    """JSON-serializable form of one config (the stored fields only)."""
    out = {
        **{name: getattr(config, name) for name in _CONFIG_FIELDS},
        "program_kwargs": dict(config.program_kwargs),
    }
    if config.fault_model != "seu":
        out["fault_model"] = config.fault_model
    if config.fault_params:
        out["fault_params"] = dict(config.fault_params)
    return out


def config_from_dict(payload: dict) -> CampaignConfig:
    """Rebuild a config from :func:`config_to_dict` output."""
    payload = dict(payload)
    kwargs = payload.pop("program_kwargs", {})
    fault_model = payload.pop("fault_model", "seu")
    fault_params = payload.pop("fault_params", {})
    return CampaignConfig(program_kwargs=kwargs, fault_model=fault_model,
                          fault_params=dict(fault_params), **payload)


def result_to_dict(result: CampaignResult) -> dict:
    """JSON-serializable form of one result (drops the leon sub-config)."""
    return {
        "config": config_to_dict(result.config),
        "counts": dict(result.counts),
        "upsets": result.upsets,
        "upsets_by_target": dict(result.upsets_by_target),
        "sw_errors": result.sw_errors,
        "error_traps": result.error_traps,
        "halted": result.halted,
        "iterations": result.iterations,
        "instructions": result.instructions,
        "wall_seconds": result.wall_seconds,
        "effaced": result.effaced,
        "cycles": result.cycles,
        "recoveries": dict(result.recoveries),
        "recovery_downtime": dict(result.recovery_downtime),
        "halts": result.halts,
        "unrecovered": result.unrecovered,
        "exit_reason": result.exit_reason,
        "graded_at_instruction": result.graded_at_instruction,
    }


def result_from_dict(payload: dict) -> CampaignResult:
    config = config_from_dict(payload["config"])
    return CampaignResult(
        config=config,
        counts=dict(payload["counts"]),
        upsets=payload["upsets"],
        upsets_by_target=dict(payload["upsets_by_target"]),
        sw_errors=payload["sw_errors"],
        error_traps=payload["error_traps"],
        halted=payload["halted"],
        iterations=payload["iterations"],
        instructions=payload["instructions"],
        wall_seconds=payload.get("wall_seconds", 0.0),
        cycles=payload.get("cycles", 0),
        recoveries=dict(payload.get("recoveries", {})),
        recovery_downtime=dict(payload.get("recovery_downtime", {})),
        halts=payload.get("halts", 0),
        unrecovered=payload.get("unrecovered", False),
        # Early-exit grading fields: rows written before fast grading
        # existed lack them; they are execution annotations, so the
        # defaults keep old and new rows byte-comparable.  Such a row's
        # ``effaced`` flag marks the window-close reconvergence exit of
        # its day (``effaced`` itself is derived from ``exit_reason``).
        exit_reason=payload.get(
            "exit_reason",
            "reconverged" if payload.get("effaced", False) else ""),
        graded_at_instruction=payload.get("graded_at_instruction"),
    )
