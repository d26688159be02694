"""Shared fixtures for the LEON-FT test suite."""

from __future__ import annotations

import pytest

from repro.core.config import LeonConfig
from repro.core.system import LeonSystem
from repro.sparc.asm import assemble


@pytest.fixture
def standard_config() -> LeonConfig:
    return LeonConfig.standard()


@pytest.fixture
def ft_config() -> LeonConfig:
    return LeonConfig.fault_tolerant()


@pytest.fixture
def express_config() -> LeonConfig:
    return LeonConfig.leon_express()


@pytest.fixture
def system(ft_config) -> LeonSystem:
    """A fault-tolerant LEON system (the configuration under the beam)."""
    return LeonSystem(ft_config)


@pytest.fixture
def standard_system(standard_config) -> LeonSystem:
    return LeonSystem(standard_config)


@pytest.fixture
def express_system(express_config) -> LeonSystem:
    return LeonSystem(express_config)


SRAM_BASE = 0x40000000


def run_asm(system: LeonSystem, body: str, *, max_instructions: int = 200_000,
            symbols=None):
    """Assemble ``body`` with a trailing halt loop, run to the halt."""
    source = body + "\n_test_done:\n    ba _test_done\n    nop\n"
    program = assemble(source, base=SRAM_BASE, symbols=symbols)
    system.load_program(program)
    if "_start" in program.symbols:
        entry = program.symbols["_start"]
        system.special.pc = entry
        system.special.npc = entry + 4
    result = system.run(max_instructions,
                        stop_pc=program.address_of("_test_done"))
    return program, result


@pytest.fixture
def run(system):
    """Run assembly on the FT system: ``run('mov 1, %g1 ...')``."""

    def runner(body: str, **kwargs):
        return run_asm(system, body, **kwargs)

    return runner


@pytest.fixture
def crash_mid_batch(monkeypatch):
    """``arm(n)``: the n-th row ``CampaignDatabase.add_results`` writes from
    then on raises ``OSError`` -- a host dying partway through a batch.
    Every other row is written normally."""
    from repro.store import db as db_module

    real = db_module.result_to_dict

    def arm(row: int) -> None:
        calls = []

        def crash(result):
            calls.append(result)
            if len(calls) == row:
                raise OSError("host died mid-batch")
            return real(result)

        monkeypatch.setattr(db_module, "result_to_dict", crash)

    return arm
