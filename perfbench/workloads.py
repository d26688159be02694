"""The benchmark's three beam-campaign workloads and their inputs.

Every workload is a closed loop of campaigns with one submitter: each
campaign is a list of :class:`CampaignConfig` runs generated from the
workload seed, the cycle number and the workload's LETs.  The program
under test receives only those configs.

All three keep the paper's flux (400 ions/s/cm2) and a paper-scale
fluence, but shrink the virtual device speed and the observation tail so
that a campaign holds many short runs.  Beam outcomes are random per run
(reconverge or not, statically masked or not, trap early or not), and a
campaign wall summed over a dozen runs moves with that mix from seed to
seed; many short runs average it out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.core.config import CacheConfig, LeonConfig
from repro.fault.campaign import CampaignConfig
from repro.fault.executor import derive_seed, expand_runs

#: The seed the committed expected readouts were generated for.
DEFAULT_SEED = 2002
#: Held out from tuning: a later change confirms a claimed gain on this
#: seed only after it was measured on others.
HELD_OUT_SEED = 7741


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why the workload is in the benchmark (one line).
    why: str
    #: The legacy ``BENCH_*.json`` record whose shape it overlaps.
    overlaps: str
    base: CampaignConfig
    lets: Tuple[float, ...]
    #: Runs per LET in one campaign.
    replicas: int
    #: Golden-timeline checkpoints requested from ``prepare_warm_start``.
    checkpoints: int
    #: Fault-free ``sim_ips`` run: warm-up instructions (until the JIT
    #: has compiled the hot loops) and instructions per timed chunk.
    sim_warmup: int
    sim_instructions: int

    @property
    def leon(self) -> LeonConfig:
        return self.base.leon or LeonConfig.leon_express()

    def configs(self, seed: int, cycle: int,
                replicas: int = 0) -> List[CampaignConfig]:
        """The runs of campaign ``cycle`` for workload seed ``seed``.

        ``replicas`` overrides the per-LET run count (smoke runs); the
        first replicas of each LET are the same at any count.
        """
        configs: List[CampaignConfig] = []
        for index, let in enumerate(self.lets):
            lead = derive_seed(seed, cycle * len(self.lets) + index)
            configs.extend(expand_runs(replace(self.base, let=let, seed=lead),
                                       replicas or self.replicas))
        return configs


def run_key(config: CampaignConfig) -> str:
    """Identity of one run inside a workload (LET and beam seed)."""
    return f"{config.let!r}:{config.seed}"


_FLUX = 400.0
_FLUSH = 4_000

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        # Grading-heavy: a restore, a stretch of execution and a digest at
        # every boundary walked; about half the runs reconverge at a
        # checkpoint, the rest walk to the end.  The golden run behind
        # setup_s is JIT-heavy.  Overlaps BENCH_grading (same device,
        # LETs, fluence, prefix and flush period; 10k tail, not 600k); its
        # sim run boots IUTEST exactly as BENCH_throughput does.
        Workload(
            name="iutest-reconverge",
            why="IUTEST near threshold: restore, digests and reconvergence "
                "exits dominate each run; JIT-heavy golden setup",
            overlaps="BENCH_grading; its sim run is "
                     "BENCH_throughput.single_run_ips",
            base=CampaignConfig(
                program="iutest", flux=_FLUX, fluence=1.0e5,
                instructions_per_second=100.0, beam_delay_s=40.0,
                beam_tail_s=100.0, flush_period_instructions=_FLUSH),
            lets=(5.0, 6.0), replicas=6, checkpoints=64,
            sim_warmup=300_000, sim_instructions=100_000),
        # Static masking: most runs are graded from the ACE map without
        # executing; the rest run interpreted, because block discovery
        # reads the 16-word i-cache and starves the JIT.  Overlaps
        # BENCH_static (same program, device and LETs; 2.5k-instruction
        # window and 1.5k tail instead of 25k and 600k).
        Workload(
            name="random7-static",
            why="random:7 on 64-byte caches: ACE static masking skips most "
                "runs, the rest run interpreted",
            overlaps="BENCH_static",
            base=CampaignConfig(
                program="random:7", flux=_FLUX, fluence=1.0e5,
                instructions_per_second=10.0, beam_delay_s=400.0,
                beam_tail_s=150.0, flush_period_instructions=_FLUSH,
                leon=LeonConfig.leon_express(
                    icache=CacheConfig(size_bytes=64),
                    dcache=CacheConfig(size_bytes=64))),
            lets=(4.4, 4.6), replicas=40, checkpoints=64,
            sim_warmup=10_000, sim_instructions=4_000),
        # Strike-dense: ~200 upsets per run with parity, EDAC and BCH
        # corrections and some error traps; suspect sets stay dirty so
        # JIT bursts never run, and grading walks every boundary without
        # exiting early.  No legacy record has this shape.
        Workload(
            name="paranoia-dense",
            why="PARANOIA at LET 110: dense strikes, corrections and traps; "
                "grading walks every boundary and never exits early",
            overlaps="none; the strike-dense side of BENCH_grading",
            base=CampaignConfig(
                program="paranoia", flux=_FLUX, fluence=2.0e4,
                instructions_per_second=100.0, beam_delay_s=40.0,
                beam_tail_s=150.0, flush_period_instructions=_FLUSH),
            lets=(110.0,), replicas=16, checkpoints=64,
            sim_warmup=200_000, sim_instructions=25_000),
    )
}
