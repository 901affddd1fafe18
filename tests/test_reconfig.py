"""Boundary pipeline: jailing, universe extraction, ranking, epoch advance."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from delaytower.ledger import EpochConfig, LedgerState, Ranking
from delaytower.reconfig import (
    LifecycleState,
    advance_epoch,
    get_validator_universe,
    jail_failed_validators,
    lifecycle_of,
    propose_validator_set,
)
from conftest import make_ledger


def commit_blocks(state: LedgerState, total: int, signer_map: dict[bytes, int]):
    """Record `total` committed blocks where each validator signs its quota."""
    members = list(state.validator_set)
    for i in range(total):
        signers = [a for a in members if signer_map.get(a, total) > i]
        assert state.record_block(signers)


def snapshot(state: LedgerState) -> dict:
    return {
        a: (ms.height, ms.num, ms.jailed, ms.jail_sentence, ms.compliant_epochs)
        for a, ms in state.miner_pool.items()
    }


class TestJailing:
    def build(self, pi=Fraction(9, 10)) -> LedgerState:
        cfg = EpochConfig(liveliness_threshold=pi, jail_sentence_epochs=2)
        state = make_ledger(config=cfg, miners=6, validators=4)
        return state

    def test_below_threshold_jailed_with_sentence(self):
        state = self.build()
        commit_blocks(state, 10, {b"m-00": 5})
        jailed = jail_failed_validators(state)
        assert jailed == [b"m-00"]
        ms = state.miner_pool[b"m-00"]
        assert ms.jailed and ms.jail_sentence == 2

    def test_exactly_at_threshold_jailed(self):
        state = self.build(pi=Fraction(1, 2))
        commit_blocks(state, 10, {b"m-01": 5})
        jailed = jail_failed_validators(state)
        assert jailed == [b"m-01"]

    def test_full_liveliness_untouched(self):
        state = self.build()
        commit_blocks(state, 10, {})
        assert jail_failed_validators(state) == []
        assert not any(ms.jailed for ms in state.miner_pool.values())

    def test_no_blocks_is_noop(self):
        state = self.build()
        before = snapshot(state)
        assert jail_failed_validators(state) == []
        assert snapshot(state) == before

    def test_non_validators_never_jailed(self):
        state = self.build()
        commit_blocks(state, 10, {b"m-00": 0})
        state.miner_pool[b"m-05"].num = 0
        jail_failed_validators(state)
        assert not state.miner_pool[b"m-05"].jailed


class TestUniverse:
    def test_strictly_above_threshold(self):
        state = make_ledger(miners=4, validators=4)
        mu = state.epoch_config.mining_threshold
        state.miner_pool[b"m-00"].num = mu + 1
        state.miner_pool[b"m-01"].num = mu
        state.miner_pool[b"m-02"].num = 0
        assert get_validator_universe(state) == [b"m-00"]

    def test_jailed_excluded_but_reset(self):
        state = make_ledger(miners=4, validators=4)
        mu = state.epoch_config.mining_threshold
        for a in (b"m-00", b"m-01"):
            state.miner_pool[a].num = mu + 5
        state.miner_pool[b"m-01"].jailed = True
        state.miner_pool[b"m-01"].jail_sentence = 1
        assert get_validator_universe(state) == [b"m-00"]
        assert all(ms.num == 0 for ms in state.miner_pool.values())

    def test_compliant_epochs_counted(self):
        state = make_ledger(miners=4, validators=4)
        mu = state.epoch_config.mining_threshold
        state.miner_pool[b"m-00"].num = mu + 1
        state.miner_pool[b"m-03"].num = mu + 9
        state.miner_pool[b"m-03"].jailed = True
        state.miner_pool[b"m-03"].jail_sentence = 1
        get_validator_universe(state)
        assert state.miner_pool[b"m-00"].compliant_epochs == 1
        assert state.miner_pool[b"m-03"].compliant_epochs == 1
        assert state.miner_pool[b"m-01"].compliant_epochs == 0


class TestPropose:
    def test_caps_at_max_validators(self):
        cfg = EpochConfig(max_validators=5)
        state = make_ledger(config=cfg, miners=9, validators=4)
        for i, ms in enumerate(state.miner_pool.values()):
            ms.height = 10 + i
        universe = list(state.miner_pool)
        proposed = propose_validator_set(state, universe)
        assert len(proposed) == 5
        assert proposed == sorted(universe,
                                  key=lambda a: (-state.miner_pool[a].height, a))[:5]

    def test_small_universe_returned_whole(self):
        state = make_ledger(miners=6, validators=4)
        assert len(propose_validator_set(state, [b"m-00", b"m-01", b"m-02"])) == 3

    def test_tie_breaks_by_ascending_address(self):
        state = make_ledger(miners=4, validators=4)
        for ms in state.miner_pool.values():
            ms.height = 7
        proposed = propose_validator_set(state, [b"m-02", b"m-00", b"m-03", b"m-01"])
        assert proposed == [b"m-00", b"m-01", b"m-02", b"m-03"]

    def test_compliant_epoch_ranking(self):
        cfg = EpochConfig(ranking=Ranking.BY_COMPLIANT_EPOCHS)
        state = make_ledger(config=cfg, miners=4, validators=4)
        state.miner_pool[b"m-03"].compliant_epochs = 9
        state.miner_pool[b"m-03"].height = 1
        state.miner_pool[b"m-00"].compliant_epochs = 1
        state.miner_pool[b"m-00"].height = 100
        proposed = propose_validator_set(state, [b"m-00", b"m-03"])
        assert proposed == [b"m-03", b"m-00"]

    def test_selection_monotone_in_height(self):
        rng = random.Random(31)
        cfg = EpochConfig(max_validators=4)
        for _ in range(50):
            state = make_ledger(config=cfg, miners=8, validators=4)
            for ms in state.miner_pool.values():
                ms.height = rng.randrange(1, 40)
            universe = list(state.miner_pool)
            chosen_before = set(propose_validator_set(state, universe))
            lucky = rng.choice(universe)
            state.miner_pool[lucky].height += rng.randrange(1, 10)
            chosen_after = set(propose_validator_set(state, universe))
            if lucky in chosen_before:
                assert lucky in chosen_after


class TestAdvanceEpoch:
    def build(self, miners=30, validators=10, max_validators=10) -> LedgerState:
        cfg = EpochConfig(max_validators=max_validators, jail_sentence_epochs=2)
        return make_ledger(config=cfg, miners=miners, validators=validators)

    def test_healthy_rotation(self):
        state = self.build()
        mu = state.epoch_config.mining_threshold
        commit_blocks(state, 10, {})
        for ms in state.miner_pool.values():
            ms.num = mu + 1
        summary = advance_epoch(state)
        assert state.epoch == 1
        assert summary.epoch == 0
        assert not summary.reconfiguration_skipped
        assert len(state.validator_set) == 10
        assert state.epoch_blocks_total == 0 and state.epoch_signatures == {}

    def test_epoch_strictly_increments(self):
        state = self.build()
        for expected in range(1, 6):
            advance_epoch(state)
            assert state.epoch == expected

    def test_undersized_proposal_keeps_previous_set(self):
        state = self.build()
        mu = state.epoch_config.mining_threshold
        previous = list(state.validator_set)
        for a in (b"m-00", b"m-01", b"m-02"):
            state.miner_pool[a].num = mu + 1
        summary = advance_epoch(state)
        assert summary.reconfiguration_skipped
        assert summary.proposed == (b"m-00", b"m-01", b"m-02")
        assert state.validator_set == tuple(previous)
        assert state.epoch == 1

    def test_jailed_validator_removed_and_released_after_serving(self):
        state = self.build()
        mu = state.epoch_config.mining_threshold

        # epoch 0: m-00 misses liveliness, everyone mines
        commit_blocks(state, 10, {b"m-00": 0})
        for ms in state.miner_pool.values():
            ms.num = mu + 1
        summary = advance_epoch(state)
        assert summary.jailed == (b"m-00",)
        assert b"m-00" not in state.validator_set
        assert state.miner_pool[b"m-00"].jail_sentence == 2

        # two qualifying epochs serve the sentence
        for expected_sentence in (1, 0):
            for ms in state.miner_pool.values():
                ms.num = mu + 1
            summary = advance_epoch(state)
            assert state.miner_pool[b"m-00"].jail_sentence == expected_sentence
        assert not state.miner_pool[b"m-00"].jailed
        assert b"m-00" in summary.released

    def test_non_mining_epochs_do_not_serve_sentence(self):
        state = self.build()
        mu = state.epoch_config.mining_threshold
        commit_blocks(state, 10, {b"m-00": 0})
        for ms in state.miner_pool.values():
            ms.num = mu + 1
        advance_epoch(state)
        advance_epoch(state)  # m-00 mined nothing
        assert state.miner_pool[b"m-00"].jail_sentence == 2
        assert state.miner_pool[b"m-00"].jailed

    def test_never_touches_height_or_hash(self):
        state = self.build()
        mu = state.epoch_config.mining_threshold
        commit_blocks(state, 10, {b"m-01": 3})
        for ms in state.miner_pool.values():
            ms.num = mu + 1
        before = {a: (ms.height, ms.hash) for a, ms in state.miner_pool.items()}
        advance_epoch(state)
        after = {a: (ms.height, ms.hash) for a, ms in state.miner_pool.items()}
        assert before == after

    def test_released_only_once_unseated(self):
        # Degenerate corner: the proposal is undersized, the old set is kept,
        # so a jailed validator that finished its sentence stays jailed until
        # a successful reconfiguration removes its seat.
        state = self.build(miners=6, validators=4, max_validators=4)
        mu = state.epoch_config.mining_threshold
        commit_blocks(state, 10, {b"m-00": 0})
        advance_epoch(state)  # jails m-00; universe empty, set retained
        assert state.miner_pool[b"m-00"].jailed
        assert b"m-00" in state.validator_set
        for _ in range(2):  # sentence served while still seated
            state.miner_pool[b"m-00"].num = mu + 1
            advance_epoch(state)
        assert state.miner_pool[b"m-00"].jail_sentence == 0
        assert state.miner_pool[b"m-00"].jailed
        # once enough miners qualify, the seat turns over and release lands
        for a in (b"m-01", b"m-02", b"m-03", b"m-04"):
            state.miner_pool[a].num = mu + 1
        summary = advance_epoch(state)
        assert not summary.reconfiguration_skipped
        assert b"m-00" in summary.released
        assert not state.miner_pool[b"m-00"].jailed


class TestLifecycle:
    def test_membership_labels(self):
        state = make_ledger(miners=6, validators=4)
        mu = state.epoch_config.mining_threshold
        state.miner_pool[b"m-04"].num = mu + 1
        state.miner_pool[b"m-05"].jailed = True
        state.miner_pool[b"m-05"].jail_sentence = 1
        assert lifecycle_of(state, b"stranger") is LifecycleState.FULL_NODE
        assert lifecycle_of(state, b"m-00") is LifecycleState.VALIDATOR
        assert lifecycle_of(state, b"m-04") is LifecycleState.VALIDATOR_CANDIDATE
        assert lifecycle_of(state, b"m-05") is LifecycleState.JAILED

    def test_jailed_wins_regardless_of_num(self):
        state = make_ledger(miners=5, validators=4)
        ms = state.miner_pool[b"m-04"]
        ms.jailed = True
        ms.jail_sentence = 1
        ms.num = state.epoch_config.mining_threshold + 10
        assert lifecycle_of(state, b"m-04") is LifecycleState.JAILED

    def test_plain_miner(self):
        state = make_ledger(miners=5, validators=4)
        assert lifecycle_of(state, b"m-04") is LifecycleState.MINER


def random_ledger(rng: random.Random) -> LedgerState:
    """Arbitrary mid-epoch ledger with up to 20 miners for oracle comparison."""
    n_miners = rng.randrange(4, 21)
    cfg = EpochConfig(
        max_validators=rng.randrange(4, 9),
        liveliness_threshold=Fraction(rng.randrange(0, 11), 10),
        mining_threshold=rng.randrange(1, 6),
        jail_sentence_epochs=rng.randrange(1, 4),
        growth_cap=8,
        ranking=rng.choice([Ranking.BY_TOWER_HEIGHT, Ranking.BY_COMPLIANT_EPOCHS]),
    )
    state = make_ledger(config=cfg, miners=n_miners)
    addresses = list(state.miner_pool)
    for ms in state.miner_pool.values():
        ms.height = rng.randrange(1, 60)
        ms.num = rng.randrange(0, 9)
        ms.compliant_epochs = rng.randrange(0, 12)
        if rng.random() < 0.3:
            ms.jailed = True
            ms.jail_sentence = rng.randrange(0, 4)
    vs_size = rng.randrange(4, n_miners + 1)
    state.install_validators(rng.sample(addresses, vs_size))
    state.epoch = rng.randrange(0, 50)
    total = rng.randrange(0, 12)
    state.epoch_blocks_total = total
    if total:
        state.epoch_signatures = {
            a: rng.randrange(0, total + 1) for a in state.validator_set
        }
    return state


def oracle_advance(state: LedgerState) -> dict:
    """Plain-data reimplementation of the boundary pipeline."""
    cfg = state.epoch_config
    pool = {
        a: {
            "height": ms.height, "num": ms.num, "jailed": ms.jailed,
            "sentence": ms.jail_sentence, "compliant": ms.compliant_epochs,
        }
        for a, ms in state.miner_pool.items()
    }
    progressed = {a for a, m in pool.items() if m["jailed"] and m["num"] > cfg.mining_threshold}

    newly_jailed = []
    if state.epoch_blocks_total > 0:
        for a in state.validator_set:
            lively = Fraction(state.epoch_signatures.get(a, 0), state.epoch_blocks_total)
            if lively <= cfg.liveliness_threshold:
                if not pool[a]["jailed"]:
                    newly_jailed.append(a)
                pool[a]["jailed"] = True
                pool[a]["sentence"] = cfg.jail_sentence_epochs

    universe = []
    for a, m in pool.items():
        if m["num"] > cfg.mining_threshold:
            m["compliant"] += 1
            if not m["jailed"]:
                universe.append(a)
        m["num"] = 0

    key = "compliant" if cfg.ranking is Ranking.BY_COMPLIANT_EPOCHS else "height"
    proposed = sorted(universe, key=lambda a: (-pool[a][key], a))[:cfg.max_validators]

    for a in progressed:
        pool[a]["sentence"] = max(0, pool[a]["sentence"] - 1)

    skipped = len(proposed) < 4
    validator_set = list(state.validator_set) if skipped else list(proposed)

    released = []
    for a, m in pool.items():
        if m["jailed"] and m["sentence"] == 0 and a not in set(validator_set):
            m["jailed"] = False
            released.append(a)

    return {
        "pool": pool,
        "validator_set": validator_set,
        "proposed": list(proposed),
        "newly_jailed": newly_jailed,
        "released": released,
        "skipped": skipped,
        "epoch": state.epoch + 1,
    }


@pytest.mark.parametrize("seed", range(5))
def test_advance_epoch_matches_bruteforce_oracle(seed):
    rng = random.Random(seed)
    for _ in range(40):
        state = random_ledger(rng)
        expected = oracle_advance(state)
        summary = advance_epoch(state)
        assert list(summary.proposed) == expected["proposed"]
        assert list(summary.jailed) == expected["newly_jailed"]
        assert list(summary.released) == expected["released"]
        assert summary.reconfiguration_skipped == expected["skipped"]
        assert state.validator_set == tuple(expected["validator_set"])
        assert state.epoch == expected["epoch"]
        assert state.epoch_blocks_total == 0 and state.epoch_signatures == {}
        for a, m in expected["pool"].items():
            ms = state.miner_pool[a]
            assert (ms.height, ms.num, ms.jailed, ms.jail_sentence,
                    ms.compliant_epochs) == (
                m["height"], m["num"], m["jailed"], m["sentence"], m["compliant"])
