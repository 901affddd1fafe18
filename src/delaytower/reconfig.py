"""End-of-epoch validator-set rotation.

The boundary pipeline: snapshot jail progress, jail validators that missed
the liveliness threshold, extract the compliant miner universe (resetting
per-epoch proof counts), rank it, install the top slice as the next validator
set, then settle jail sentences. The whole sequence is one atomic step from
the caller's point of view.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from .ledger import MIN_VALIDATORS, LedgerState, MinerState, Ranking


class LifecycleState(Enum):
    FULL_NODE = "full-node"
    MINER = "miner"
    VALIDATOR_CANDIDATE = "validator-candidate"
    VALIDATOR = "validator"
    JAILED = "jailed"


@dataclass(frozen=True)
class EpochSummary:
    """Boundary record consumed by the simulator's metrics writer."""

    epoch: int
    jailed: tuple[bytes, ...]
    released: tuple[bytes, ...]
    proposed: tuple[bytes, ...]
    reconfiguration_skipped: bool


def qualifies(state: LedgerState, ms: MinerState) -> bool:
    """Whether ``ms`` was credited more links this epoch than the mining threshold."""
    return ms.num > state.epoch_config.mining_threshold


def jail_failed_validators(state: LedgerState) -> list[bytes]:
    """Jail every validator at or below the liveliness threshold.

    Skipped entirely when the epoch produced no blocks, because failure cannot
    be attributed to anyone. Returns the addresses jailed by this call.
    """
    if state.epoch_blocks_total == 0:
        return []
    # Liveliness (signed / blocks) <= p / q, cross-multiplied so both sides are exact.
    p, q = state.epoch_config.liveliness_threshold.as_integer_ratio()
    signed = state.epoch_signatures  # settled once, not once per validator
    newly_jailed = []
    for address in state.validator_set:
        ms = state.miner_pool[address]
        if signed[address] * q <= p * state.epoch_blocks_total:
            if not ms.jailed:
                newly_jailed.append(address)
            ms.jailed = True
            ms.jail_sentence = state.epoch_config.jail_sentence_epochs
    return newly_jailed


def get_validator_universe(state: LedgerState) -> list[bytes]:
    """Collect miners above the mining threshold and not jailed; reset all counts.

    Every miner's per-epoch proof count drops to zero afterwards, qualifier or
    not; qualifiers also earn one compliant-epoch credit for the alternative
    ranking.
    """
    universe = []
    for address, ms in state.miner_pool.items():
        if qualifies(state, ms):
            ms.compliant_epochs += 1
            if not ms.jailed:
                universe.append(address)
        ms.num = 0
    return universe


def propose_validator_set(state: LedgerState, universe: list[bytes]) -> list[bytes]:
    """Top slice of the universe: descending rank, ascending address on ties."""
    by_epochs = state.epoch_config.ranking is Ranking.BY_COMPLIANT_EPOCHS
    rank = attrgetter("compliant_epochs" if by_epochs else "height")
    pool = state.miner_pool
    ranked = sorted(universe, key=lambda a: (-rank(pool[a]), a))
    return ranked[:state.epoch_config.max_validators]


def advance_epoch(state: LedgerState) -> EpochSummary:
    """Run the boundary pipeline once and enter the next epoch.

    Jail sentences tick down one epoch for each already-jailed miner that met
    the mining threshold this epoch; a served sentence releases the miner as
    soon as it no longer occupies a validator seat. A proposed set smaller
    than the BFT minimum is discarded: the previous validator set stays and
    the summary carries the skip flag.
    """
    progressed = [ms for ms in state.miner_pool.values() if ms.jailed and qualifies(state, ms)]

    newly_jailed = jail_failed_validators(state)
    universe = get_validator_universe(state)
    proposed = propose_validator_set(state, universe)

    for ms in progressed:
        ms.jail_sentence = max(0, ms.jail_sentence - 1)

    skipped = len(proposed) < MIN_VALIDATORS
    if not skipped:
        state.validator_set = proposed

    released = []
    seated = set(state.validator_set)
    for address, ms in state.miner_pool.items():
        if ms.jailed and ms.jail_sentence == 0 and address not in seated:
            ms.jailed = False
            released.append(address)

    ended_epoch = state.epoch
    state.epoch += 1
    state.epoch_blocks_total = 0
    state.epoch_signatures = {}

    return EpochSummary(
        epoch=ended_epoch,
        jailed=tuple(newly_jailed),
        released=tuple(released),
        proposed=tuple(proposed),
        reconfiguration_skipped=skipped,
    )


def lifecycle_of(state: LedgerState, address: bytes) -> LifecycleState:
    """Derive a node's lifecycle label from ledger membership.

    Unregistered addresses read as full nodes; the ledger cannot tell a fresh
    node from a syncing full node, so that distinction stays with the caller.
    A jailed miner reads as jailed no matter what else holds for it.
    """
    ms = state.miner_pool.get(address)
    if ms is None:
        return LifecycleState.FULL_NODE
    if ms.jailed:
        return LifecycleState.JAILED
    if address in state.validator_set:
        return LifecycleState.VALIDATOR
    if qualifies(state, ms):
        return LifecycleState.VALIDATOR_CANDIDATE
    return LifecycleState.MINER
