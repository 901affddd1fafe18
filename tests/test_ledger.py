"""Ledger acceptance gauntlet, quorum arithmetic, and snapshots."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytower import ledger, tower, vdf
from delaytower.ledger import (
    AlreadyRegistered,
    EpochConfig,
    ForeignSigner,
    InvalidProof,
    InvalidSignature,
    LedgerState,
    MinerState,
    Ranking,
    UnknownMiner,
    quorum,
    registration_message,
    submission_message,
)
from delaytower.reconfig import advance_epoch
from delaytower.serialization import encode_bytes
from delaytower.signing import SCHEMES, KeyedHashScheme

from conftest import (FOLD_SECURITY, LINK_FAULTS, SMALL_SECURITY, TINY_SECURITY, format_3_proof,
                      link_of, make_ledger)

SCHEME = KeyedHashScheme()


def fingerprint(state: LedgerState) -> bytes:
    return hashlib.sha256(state.export_snapshot().encode()).digest()


class Miner:
    """Real miner driving the genuine registration and submission paths."""

    def __init__(self, state: LedgerState, name: bytes):
        self.state = state
        self.address = name
        self.tower = tower.init_tower(state.security, name, b"test-endpoint")

    def register(self):
        record = self.tower.records[0]
        message = registration_message(self.address, self.tower.params, record)
        return self.state.register_miner(
            self.address, self.tower.params, record, SCHEME.sign(self.address, message))

    def next_record(self) -> tower.ProofRecord:
        x = tower.next_input(self.tower)
        output, proof = vdf.eval(self.tower.params, x)
        return tower.ProofRecord(index=self.tower.height, input=x, output=output,
                                 proof=proof)

    def accept(self, record: tower.ProofRecord):
        self.tower = dataclasses.replace(
            self.tower, records=self.tower.records + (record,))

    def submit(self, record: tower.ProofRecord, claimed: int | None = None,
               signature: bytes | None = None) -> bool:
        claimed = record.index + 1 if claimed is None else claimed
        if signature is None:
            message = submission_message(self.address, claimed, record)
            signature = SCHEME.sign(self.address, message)
        accepted = self.state.submit_proof(self.address, claimed, record, signature)
        if accepted:
            self.accept(record)
        return accepted


@pytest.fixture()
def state() -> LedgerState:
    return LedgerState(TINY_SECURITY, EpochConfig(), SCHEME)


@pytest.fixture()
def miner(state) -> Miner:
    m = Miner(state, b"alice")
    m.register()
    return m


class TestEpochConfig:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            EpochConfig(max_validators=3)
        with pytest.raises(ValueError):
            EpochConfig(liveliness_threshold=Fraction(11, 10))
        with pytest.raises(ValueError):
            EpochConfig(mining_threshold=50, growth_cap=48)
        with pytest.raises(ValueError):
            EpochConfig(rounds_per_epoch=0)

    def test_defaults_consistent(self):
        cfg = EpochConfig()
        assert cfg.max_validators == 100
        assert cfg.growth_cap >= cfg.mining_threshold

    def test_float_threshold_round_trips(self):
        # A float threshold is held as its exact Fraction, so to_doc writes the
        # one spelling that from_doc reads back to the same value.
        config = EpochConfig(liveliness_threshold=0.9)
        assert config.liveliness_threshold == Fraction(0.9)
        # A document's float means the same exact value.
        assert EpochConfig.from_doc({"liveliness_threshold": 0.9}) == config
        doc = config.to_doc()
        assert EpochConfig.from_doc(doc) == config
        assert EpochConfig.from_doc(doc).to_doc() == doc


class TestQuorum:
    def test_matches_rational_ceiling_oracle(self):
        for n in range(4, 1001):
            assert quorum(n) == math.ceil(Fraction(2 * n, 3))

    def test_spec_cases(self):
        assert quorum(4) == 3
        assert quorum(100) == 67


class TestRegistration:
    def test_fresh_miner_joins_pool(self, state):
        miner = Miner(state, b"alice")
        ms = miner.register()
        assert ms.height == 1
        assert ms.num == 1
        assert not ms.jailed and ms.jail_sentence == 0
        assert ms.hash == link_of(miner.tower.records[0])
        assert b"alice" in state.miner_pool

    def test_duplicate_rejected(self, state):
        miner = Miner(state, b"alice")
        miner.register()
        before = fingerprint(state)
        with pytest.raises(AlreadyRegistered):
            miner.register()
        assert fingerprint(state) == before

    def test_bad_signature_rejected(self, state):
        miner = Miner(state, b"alice")
        record = miner.tower.records[0]
        before = fingerprint(state)
        with pytest.raises(InvalidSignature):
            state.register_miner(b"alice", miner.tower.params, record, b"garbage")
        assert fingerprint(state) == before

    def test_tampered_proof_rejected(self, state):
        miner = Miner(state, b"alice")
        record = miner.tower.records[0]
        bad_output = record.output + 1 if record.output + 1 < state.modulus else 1
        bad = dataclasses.replace(record, output=bad_output)
        message = registration_message(b"alice", miner.tower.params, bad)
        before = fingerprint(state)
        with pytest.raises(InvalidProof):
            state.register_miner(b"alice", miner.tower.params, bad,
                                 SCHEME.sign(b"alice", message))
        assert fingerprint(state) == before

    def test_foreign_genesis_params_rejected(self, state):
        miner = Miner(state, b"alice")
        record = miner.tower.records[0]
        foreign = dataclasses.replace(
            miner.tower.params, modulus=vdf.generate_modulus(256, b"another-network"))
        message = registration_message(b"alice", foreign, record)
        with pytest.raises(InvalidProof):
            state.register_miner(b"alice", foreign, record,
                                 SCHEME.sign(b"alice", message))

    def test_foreign_owner_rejected(self, state):
        # Owner B's tower, registered under address A with A's valid signature.
        owner_b = Miner(state, b"bob")
        params, record = owner_b.tower.params, owner_b.tower.records[0]
        message = registration_message(b"alice", params, record)
        before = fingerprint(state)
        with pytest.raises(InvalidProof):
            state.register_miner(b"alice", params, record, SCHEME.sign(b"alice", message))
        assert fingerprint(state) == before

    def test_address_setup_refuses_is_invalid_proof(self, state):
        params = dataclasses.replace(vdf.setup(state.security, b"k", b"ep"), public_key=b"")
        x0 = vdf.hash_to_group(params.input_digest, params.modulus)
        output, proof = vdf.eval(params, x0)
        record = tower.ProofRecord(index=0, input=x0, output=output, proof=proof)
        message = registration_message(b"", params, record)
        before = fingerprint(state)
        with pytest.raises(InvalidProof):
            state.register_miner(b"", params, record, SCHEME.sign(b"", message))
        assert fingerprint(state) == before

    def test_nonzero_index_rejected(self, state):
        miner = Miner(state, b"alice")
        record = dataclasses.replace(miner.tower.records[0], index=1)
        message = registration_message(b"alice", miner.tower.params, record)
        with pytest.raises(InvalidProof):
            state.register_miner(b"alice", miner.tower.params, record,
                                 SCHEME.sign(b"alice", message))


# Fields no message can encode: wider than a fixed-width field, or negative.
UNENCODABLE = (1 << 64, -1)
# Values whose type is not exactly int: no signed message encodes them, a bool included.
NOT_INT = (2.0, "2", None, True)


class TestUnencodableIntake:
    """A value no signed message can encode is refused, and the state does not move."""

    @pytest.mark.parametrize("value", UNENCODABLE)
    def test_claimed_height_refused(self, state, miner, value):
        record = miner.next_record()
        before = fingerprint(state)
        assert state.submit_proof(b"alice", value, record, b"sig") is False
        assert fingerprint(state) == before

    @pytest.mark.parametrize("field, value", [("index", 1 << 64), ("index", -1),
                                              ("input", -5), ("output", -1),
                                              ("proof", vdf.VdfProof((-1,)))])
    def test_record_field_refused(self, state, miner, field, value):
        record = dataclasses.replace(miner.next_record(), **{field: value})
        before = fingerprint(state)
        assert state.submit_proof(b"alice", 2, record, b"sig") is False
        assert fingerprint(state) == before

    @pytest.mark.parametrize("field, value", [("index", 1 << 64), ("input", -5),
                                              ("proof", vdf.VdfProof((-1,)))])
    def test_registration_refused_at_signature(self, state, field, value):
        miner = Miner(state, b"alice")
        record = dataclasses.replace(miner.tower.records[0], **{field: value})
        before = fingerprint(state)
        with pytest.raises(InvalidSignature):
            state.register_miner(b"alice", miner.tower.params, record, b"sig")
        assert fingerprint(state) == before

    @pytest.mark.parametrize("value", NOT_INT)
    def test_non_integer_claimed_height_refused(self, state, miner, value):
        record = miner.next_record()
        before = fingerprint(state)
        assert state.submit_proof(b"alice", value, record, b"sig") is False
        assert fingerprint(state) == before

    @pytest.mark.parametrize("field, value", [("index", 1.0), ("index", "1"), ("input", "5"),
                                              ("output", None)])
    def test_non_integer_record_field_refused(self, state, miner, value, field):
        record = dataclasses.replace(miner.next_record(), **{field: value})
        before = fingerprint(state)
        assert state.submit_proof(b"alice", 2, record, b"sig") is False
        assert fingerprint(state) == before

    def test_bool_index_refused_though_signed(self, state, miner):
        # True == 1 and encodes as 1, so its signature is the honest record's.
        honest = miner.next_record()
        signature = SCHEME.sign(b"alice", submission_message(b"alice", 2, honest))
        before = fingerprint(state)
        assert state.submit_proof(b"alice", 2, dataclasses.replace(honest, index=True),
                                  signature) is False
        assert fingerprint(state) == before
        assert miner.submit(honest)

    def test_bool_index_registration_refused_though_signed(self, state):
        miner = Miner(state, b"alice")
        honest = miner.tower.records[0]
        signature = SCHEME.sign(b"alice", registration_message(
            b"alice", miner.tower.params, honest))
        before = fingerprint(state)
        with pytest.raises(InvalidSignature):
            state.register_miner(b"alice", miner.tower.params,
                                 dataclasses.replace(honest, index=False), signature)
        assert fingerprint(state) == before
        assert miner.register().height == 1


class TestMessages:
    # SHA-256 of an honest miner's registration message followed by its
    # submission of link 1: what miners sign must not drift.
    PINNED_SHA256 = "a7f98b77bc15f606a2088cb7849c73fc48b1a7515ce58f63e7c7be266811459e"

    def test_bytes_pinned(self, state):
        miner = Miner(state, b"alice")
        record = miner.next_record()
        message = (registration_message(b"alice", miner.tower.params, miner.tower.records[0])
                   + submission_message(b"alice", 2, record))
        assert hashlib.sha256(message).hexdigest() == self.PINNED_SHA256

    @staticmethod
    def version_1(message: bytes, tag: bytes) -> bytes:
        """The same fields under version 1's tag, then its trailing 8-byte epoch label."""
        assert message.startswith(tag + b"/v2")
        return tag + b"/v1" + message[len(tag) + 3:] + bytes(8)

    @staticmethod
    def with_format_3_proof(message: bytes, record: tower.ProofRecord) -> bytes:
        """The same message with the record's proof as format 3 wrote it."""
        proof = encode_bytes(vdf.serialize_proof(record.proof))
        assert message.endswith(proof)
        return message[:-len(proof)] + encode_bytes(format_3_proof(record.output, record.proof))

    def test_format_3_proof_signatures_refused(self, state):
        miner = Miner(state, b"alice")
        params, record = miner.tower.params, miner.tower.records[0]
        old = self.with_format_3_proof(registration_message(b"alice", params, record), record)
        with pytest.raises(InvalidSignature):
            state.register_miner(b"alice", params, record, SCHEME.sign(b"alice", old))
        miner.register()
        record = miner.next_record()
        old = self.with_format_3_proof(submission_message(b"alice", 2, record), record)
        before = fingerprint(state)
        assert not state.submit_proof(b"alice", 2, record, SCHEME.sign(b"alice", old))
        assert fingerprint(state) == before
        assert miner.submit(record)

    def test_version_1_signatures_refused(self, state):
        miner = Miner(state, b"alice")
        params, record = miner.tower.params, miner.tower.records[0]
        old = self.version_1(registration_message(b"alice", params, record),
                             b"delay-tower/register")
        with pytest.raises(InvalidSignature):
            state.register_miner(b"alice", params, record, SCHEME.sign(b"alice", old))
        miner.register()
        record = miner.next_record()
        old = self.version_1(submission_message(b"alice", 2, record), b"delay-tower/submit")
        before = fingerprint(state)
        assert not state.submit_proof(b"alice", 2, record, SCHEME.sign(b"alice", old))
        assert fingerprint(state) == before


class TestSubmission:
    def test_valid_extension_accepted(self, state, miner):
        record = miner.next_record()
        assert miner.submit(record)
        ms = state.miner_pool[b"alice"]
        assert ms.height == 2
        assert ms.num == 2
        assert ms.hash == link_of(record)

    def test_replay_of_tip_rejected(self, state, miner):
        record = miner.next_record()
        assert miner.submit(record)
        before = fingerprint(state)
        assert not state.submit_proof(
            b"alice", record.index + 1, record,
            SCHEME.sign(b"alice", submission_message(b"alice", record.index + 1, record)))
        assert fingerprint(state) == before

    def test_stale_parent_rejected(self, state, miner):
        first = miner.next_record()
        assert miner.submit(first)
        stale_input = vdf.hash_to_group(
            link_of(miner.tower.records[0]), state.modulus)
        output, proof = vdf.eval(miner.tower.params, stale_input)
        stale = tower.ProofRecord(index=2, input=stale_input, output=output, proof=proof)
        before = fingerprint(state)
        assert not miner.submit(stale)
        assert fingerprint(state) == before

    def test_claimed_height_not_above_rejected(self, state, miner):
        record = miner.next_record()
        before = fingerprint(state)
        assert not miner.submit(record, claimed=1)
        assert fingerprint(state) == before
        assert miner.submit(record)

    def test_wrong_signature_rejected(self, state, miner):
        record = miner.next_record()
        before = fingerprint(state)
        assert not miner.submit(record, signature=b"nope")
        assert fingerprint(state) == before

    def test_tampered_transcript_rejected(self, state, miner):
        record = miner.next_record()
        bad_output = record.output + 1 if record.output + 1 < state.modulus else 1
        bad = dataclasses.replace(record, output=bad_output)
        before = fingerprint(state)
        assert not miner.submit(bad)
        assert fingerprint(state) == before

    def test_wrong_prime_length_rejected_fast(self, state, miner):
        record = miner.next_record()
        bad = dataclasses.replace(
            record, proof=dataclasses.replace(record.proof,
                                              embedded_prime_length_bits=511))
        assert not miner.submit(bad)

    def test_unknown_miner_raises(self, state):
        record = tower.ProofRecord(index=0, input=2, output=4,
                                   proof=vdf.VdfProof(()))
        with pytest.raises(UnknownMiner):
            state.submit_proof(b"ghost", 1, record, b"sig")

    def test_num_saturates_at_growth_cap(self, state, miner):
        cap = state.epoch_config.growth_cap
        state.miner_pool[b"alice"].num = cap
        record = miner.next_record()
        assert miner.submit(record)
        ms = state.miner_pool[b"alice"]
        assert ms.num == cap
        assert ms.height == 2

    def test_accepted_chain_replays_through_validate(self, state, miner):
        for _ in range(4):
            assert miner.submit(miner.next_record())
        assert tower.validate_chain(miner.tower)


@pytest.fixture(scope="module")
def fold_tower() -> tower.Tower:
    """Height 3 at a profile whose proofs carry midpoints to tamper with."""
    return tower.extend(tower.extend(tower.init_tower(FOLD_SECURITY, b"carol", b"ep")))


class TestLinkGates:
    """One chain rule: the tower and the ledger reject a link at the same gate."""

    @staticmethod
    def ledger_at_height_2(twr: tower.Tower) -> LedgerState:
        state = LedgerState(FOLD_SECURITY, EpochConfig(), SCHEME)
        address, first, second = twr.params.public_key, twr.records[0], twr.records[1]
        state.register_miner(address, twr.params, first, SCHEME.sign(
            address, registration_message(address, twr.params, first)))
        assert state.submit_proof(address, 2, second, SCHEME.sign(
            address, submission_message(address, 2, second)))
        return state

    def submit_last(self, twr: tower.Tower, record: tower.ProofRecord) -> tuple[bool, bool]:
        """Whether the ledger accepts ``record`` as link 2, and whether its state moved."""
        state = self.ledger_at_height_2(twr)
        address = twr.params.public_key
        before = fingerprint(state)
        accepted = state.submit_proof(address, 3, record, SCHEME.sign(
            address, submission_message(address, 3, record)))
        return accepted, fingerprint(state) != before

    def check_last(self, twr: tower.Tower, record: tower.ProofRecord):
        previous = link_of(twr.records[1])
        return tower.check_link(twr.params.modulus, twr.params.iterations, previous, 2, record)

    @pytest.mark.parametrize("gate", list(LINK_FAULTS))
    def test_link_fails_the_same_gate_everywhere(self, fold_tower, gate):
        assert len(fold_tower.records[2].proof.checkpoints) == 3
        record = LINK_FAULTS[gate](fold_tower, fold_tower.records[2])
        tampered = dataclasses.replace(fold_tower, records=fold_tower.records[:2] + (record,))
        assert self.check_last(fold_tower, record) == gate
        assert tower.record_valid(tampered, 2) is (gate is None)
        assert self.submit_last(fold_tower, record) == (gate is None, gate is None)


class TestBlocks:
    def test_quorum_commits_and_tallies(self):
        state = make_ledger(miners=4, validators=4)
        signers = [f"m-{i:02d}".encode() for i in range(3)]
        assert state.record_block(signers)
        assert state.epoch_blocks_total == 1
        assert state.epoch_signatures[b"m-00"] == 1
        assert b"m-03" not in state.epoch_signatures

    def test_below_quorum_no_commit(self):
        state = make_ledger(miners=4, validators=4)
        before = fingerprint(state)
        assert not state.record_block([b"m-00", b"m-01"])
        assert fingerprint(state) == before

    def test_hundred_validator_boundary(self):
        state = make_ledger(miners=100, validators=100)
        members = [f"m-{i:02d}".encode() for i in range(100)]
        assert not state.record_block(members[:66])
        assert state.record_block(members[:67])

    def test_full_set_commits(self):
        state = make_ledger(miners=5, validators=5)
        members = [f"m-{i:02d}".encode() for i in range(5)]
        assert state.record_block(members)
        assert all(state.epoch_signatures[m] == 1 for m in members)

    def test_no_seated_set_refuses_block(self, state):
        before = fingerprint(state)
        assert not state.record_block([])
        assert state.epoch_blocks_total == 0
        assert fingerprint(state) == before

    def test_foreign_signer_rejected(self):
        state = make_ledger(miners=6, validators=4)
        with pytest.raises(ForeignSigner):
            state.record_block([b"m-00", b"m-01", b"m-05"])

    def test_foreign_signers_named_in_one_order(self):
        # Set order follows the hash seed; the message must not.
        script = textwrap.dedent("""
            from conftest import make_ledger
            state = make_ledger(miners=16, validators=4)
            try:
                state.record_block([f"m-{i:02d}".encode() for i in range(15, 0, -1)])
            except Exception as exc:
                print(type(exc).__name__, exc)
        """)
        messages = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": seed}
            done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=env, timeout=60)
            assert (done.returncode, done.stderr) == (0, "")
            messages.append(done.stdout)
        foreign = [f"m-{i:02d}".encode().hex() for i in range(4, 16)]
        assert messages == [f"ForeignSigner signers outside validator set: {foreign}\n"] * 2

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(4, 200), k=st.integers(0, 200))
    def test_commit_decision_matches_oracle(self, n, k):
        k = min(k, n)
        state = make_ledger(miners=n, validators=n)
        signers = [f"m-{i:02d}".encode() for i in range(k)]
        committed = state.record_block(signers)
        assert committed == (k >= math.ceil(Fraction(2 * n, 3)))


NEW_SET = [f"m-{i:02d}".encode() for i in range(4, 8)]


def _install(state: LedgerState) -> LedgerState:
    state.install_validators(NEW_SET)
    return state


def _assign(state: LedgerState) -> LedgerState:
    state.validator_set = NEW_SET
    return state


def _advance_epoch(state: LedgerState) -> LedgerState:
    for address in NEW_SET:
        state.miner_pool[address].num = state.epoch_config.mining_threshold + 1
    advance_epoch(state)
    return state


def _import(state: LedgerState) -> LedgerState:
    doc = json.loads(state.export_snapshot())
    doc["validator_set"] = [a.hex() for a in NEW_SET]
    return LedgerState.import_snapshot(json.dumps(doc))


class TestValidatorSet:
    @pytest.mark.parametrize("replace", [_install, _assign, _advance_epoch, _import])
    def test_replacement_keeps_tally_in_step(self, replace):
        state = make_ledger(miners=8, validators=4)
        assert state.record_block([b"m-00", b"m-01", b"m-02"])
        state = replace(state)
        assert state.validator_set == tuple(NEW_SET)
        state.epoch_blocks_total, state.epoch_signatures = 0, {}
        with pytest.raises(ForeignSigner):
            state.record_block([b"m-00"] + NEW_SET[:2])
        assert state.record_block(NEW_SET[:3])
        assert state.epoch_blocks_total == 1
        assert [state.epoch_signatures[a] for a in NEW_SET] == [1, 1, 1, 0]
        assert state.epoch_signatures[b"m-00"] == 0

    def test_read_only(self):
        state = make_ledger(miners=5, validators=4)
        with pytest.raises(AttributeError):
            state.validator_set.append(b"m-04")
        with pytest.raises(ForeignSigner):
            state.record_block([b"m-00", b"m-01", b"m-04"])


class TestLiveliness:
    def test_fraction_of_signed_blocks(self):
        state = make_ledger(miners=4, validators=4)
        members = [f"m-{i:02d}".encode() for i in range(4)]
        for i in range(4):
            state.record_block(members if i == 0 else members[:3])
        assert state.epoch_blocks_total == 4
        assert state.epoch_signatures[b"m-00"] == 4
        assert state.epoch_signatures[b"m-03"] == 1

    def test_zero_when_never_signed(self):
        state = make_ledger(miners=5, validators=5)
        members = [f"m-{i:02d}".encode() for i in range(4)]
        state.record_block(members)
        assert state.epoch_blocks_total == 1
        assert state.epoch_signatures[b"m-04"] == 0


class TestSnapshot:
    def test_roundtrip_stable(self, state, miner):
        miner.submit(miner.next_record())
        state.bootstrap_miner(b"v-1")
        state.bootstrap_miner(b"v-2")
        state.bootstrap_miner(b"v-3")
        state.install_validators([b"alice", b"v-1", b"v-2", b"v-3"])
        state.record_block([b"alice", b"v-1", b"v-2"])
        text = state.export_snapshot()
        imported = LedgerState.import_snapshot(text)
        assert imported.export_snapshot() == text
        assert imported.validator_set == state.validator_set
        assert imported.miner_pool.keys() == state.miner_pool.keys()
        assert imported.epoch_blocks_total == 1

    def test_bad_version_rejected(self, state):
        text = state.export_snapshot().replace('"version": 1', '"version": 9')
        with pytest.raises(ValueError):
            LedgerState.import_snapshot(text)


def pinned_ledger() -> LedgerState:
    """A fixed ledger touching every snapshot field with a non-default value."""
    config = EpochConfig(rounds_per_epoch=7, max_validators=5,
                         liveliness_threshold=Fraction(2, 3), mining_threshold=3,
                         jail_sentence_epochs=2, growth_cap=6,
                         ranking=Ranking.BY_COMPLIANT_EPOCHS)
    state = LedgerState(TINY_SECURITY, config, SCHEME)
    miner = Miner(state, b"alice")
    miner.register()
    assert miner.submit(miner.next_record())
    for name in (b"v-1", b"v-2", b"v-3", b"v-4"):
        state.bootstrap_miner(name, height=3)
    state.install_validators([b"v-1", b"alice", b"v-2", b"v-3", b"v-4"])
    state.record_block([b"alice", b"v-1", b"v-2", b"v-3"])
    state.record_block([b"alice", b"v-1", b"v-2", b"v-4"])
    state.epoch = 4
    jailed = state.miner_pool[b"v-4"]
    jailed.jailed, jailed.jail_sentence, jailed.compliant_epochs = True, 2, 3
    return state


ALICE = b"alice".hex()
DROP = object()


def edit(*path_and_value):
    """Snapshot mutation: set the value at a key path, or delete it when the value is DROP."""
    *path, value = path_and_value

    def apply(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return json.dumps(doc)
    return apply

BAD_SNAPSHOTS = {
    "malformed-json": lambda doc: json.dumps(doc)[:-2],
    "deeply-nested-json": lambda doc: "[" * 100000,
    "not-an-object": lambda doc: json.dumps([doc]),
    "missing-key": edit("epoch_signatures", DROP),
    "missing-miner-field": edit("miner_pool", ALICE, "num", DROP),
    "miner-pool-not-object": edit("miner_pool", [ALICE]),
    "miner-not-object": edit("miner_pool", ALICE, 5),
    "security-not-object": edit("security", "x"),
    "config-not-object": edit("epoch_config", [7]),
    "height-string": edit("miner_pool", ALICE, "height", "5"),
    "height-float": edit("miner_pool", ALICE, "height", 5.0),
    "modulus-not-decimal": edit("modulus", "0x1f"),
    "modulus-degenerate": edit("modulus", "3"),  # hash_to_group would never return
    "modulus-prime": edit("modulus", str(2**256 - 189)),  # every registration would fail
    "modulus-size": edit("modulus", str(vdf.generate_modulus(512))),
    "bad-hash-hex": edit("miner_pool", ALICE, "hash", "zz"),
    "bad-validator-hex": edit("validator_set", 0, "zz"),
    "bad-signer-hex": edit("epoch_signatures", {"zz": 1}),
    "negative-epoch": edit("epoch", -1),
    "negative-height": edit("miner_pool", ALICE, "height", -5),
    "negative-num": edit("miner_pool", ALICE, "num", -1),
    "negative-jail-sentence": edit("miner_pool", ALICE, "jail_sentence", -1),
    "negative-compliant-epochs": edit("miner_pool", ALICE, "compliant_epochs", -1),
    "negative-blocks-total": edit("epoch_blocks_total", -1),
    "negative-signature-count": edit("epoch_signatures", ALICE, -1),
    "signature-count-above-blocks": edit("epoch_signatures", ALICE, 3),
    "signer-not-in-pool": edit("epoch_signatures", b"ghost".hex(), 1),
    "jailed-string": edit("miner_pool", ALICE, "jailed", "yes"),
    "jailed-int": edit("miner_pool", ALICE, "jailed", 1),
    "config-out-of-range": edit("epoch_config", "max_validators", 3),
    "config-bad-threshold": edit("epoch_config", "liveliness_threshold", "x/y"),
    # 1e400 overflows to inf; json.loads reads the text 1e400 as inf too.
    "config-infinite-threshold": edit("epoch_config", "liveliness_threshold", 1e400),
    "config-boolean-threshold": edit("epoch_config", "liveliness_threshold", True),
    "config-zero-denominator-threshold": edit("epoch_config", "liveliness_threshold", "1/0"),
    # Thresholds export never writes for the pinned 2/3, and configs it writes whole.
    "config-unreduced-threshold": edit("epoch_config", "liveliness_threshold", "4/6"),
    "config-padded-threshold": edit("epoch_config", "liveliness_threshold", " 2/3 "),
    "config-decimal-threshold": edit("epoch_config", "liveliness_threshold", "0.5"),
    "config-float-threshold": edit("epoch_config", "liveliness_threshold", 0.5),
    "config-missing-field": edit("epoch_config", "growth_cap", DROP),
    "security-missing-label": edit("security", "prime_length_bits", DROP),
    "config-bad-ranking": edit("epoch_config", "ranking", "by-luck"),
    "config-float": edit("epoch_config", "growth_cap", 6.5),
    "security-out-of-range": edit("security", "iterations", 0),
    "security-missing-field": edit("security", "modulus_bits", DROP),
    "security-prime-length": edit("security", "prime_length_bits", 1024),
    # A repeated key: json.loads would keep the last one silently.
    "duplicate-epoch": lambda doc: '{"epoch": 99, ' + json.dumps(doc)[1:],
    "duplicate-miner-height": lambda doc: json.dumps(doc).replace(
        '"height": ', '"height": 7, "height": ', 1),
    "unknown-scheme": edit("scheme", "rot13"),
    "too-few-validators": edit("validator_set", [ALICE]),
    # Spellings that decode like what export writes, but that it never writes.
    # The spaced key decodes to v-1's address, so it would silently drop a miner.
    "colliding-miner-key": lambda doc: edit(
        "miner_pool", "76 2d31", doc["miner_pool"][b"v-1".hex()])(doc),
    "uppercase-miner-key": lambda doc: edit(
        "miner_pool", ALICE.upper(), doc["miner_pool"].pop(ALICE))(doc),
    "uppercase-hash": lambda doc: edit(
        "miner_pool", ALICE, "hash", doc["miner_pool"][ALICE]["hash"].upper())(doc),
    "uppercase-validator": lambda doc: edit("validator_set", 1, ALICE.upper())(doc),
    # Keys export never writes: a misspelled one would silently take its default.
    "unknown-top-level-key": edit("note", "extra"),
    "config-misspelled-key": edit("epoch_config", "growth_cpa", 6),
    "security-unknown-key": edit("security", "modulus_bitz", 256),
    "miner-misspelled-key": edit("miner_pool", ALICE, "heigth", 1),
    "uppercase-signer": lambda doc: edit(
        "epoch_signatures", ALICE.upper(), doc["epoch_signatures"].pop(ALICE))(doc),
    "modulus-leading-zero": lambda doc: edit("modulus", "0" + doc["modulus"])(doc),
    "modulus-plus": lambda doc: edit("modulus", "+" + doc["modulus"])(doc),
    "modulus-spaces": lambda doc: edit("modulus", f" {doc['modulus']} ")(doc),
    "modulus-underscore": lambda doc: edit(
        "modulus", doc["modulus"][:3] + "_" + doc["modulus"][3:])(doc),
    "modulus-unicode-digits": lambda doc: edit(
        "modulus", "".join(chr(0x660 + int(d)) for d in doc["modulus"]))(doc),
}


def snapshot_doc(state: LedgerState) -> dict:
    """The snapshot document that ``export_snapshot`` lays out by hand."""
    return {
        "version": ledger.SNAPSHOT_VERSION,
        "scheme": state.scheme.name,
        "security": state.security.to_doc(),
        "modulus": str(state.modulus),
        "epoch_config": state.epoch_config.to_doc(),
        "epoch": state.epoch,
        "validator_set": [a.hex() for a in state.validator_set],
        "miner_pool": {
            a.hex(): {
                "height": ms.height,
                "hash": ms.hash.hex(),
                "num": ms.num,
                "jailed": ms.jailed,
                "jail_sentence": ms.jail_sentence,
                "compliant_epochs": ms.compliant_epochs,
            }
            for a, ms in state.miner_pool.items()
        },
        "epoch_blocks_total": state.epoch_blocks_total,
        "epoch_signatures": {a.hex(): n for a, n in state.epoch_signatures.items()},
    }


COUNTS = st.one_of(st.just(0), st.integers(0, 1000), st.integers(2**64, 2**80))
THRESHOLDS = st.one_of(st.sampled_from([Fraction(0), Fraction(9, 10), Fraction(1)]),
                       st.fractions(0, 1))


@st.composite
def ledger_states(draw) -> LedgerState:
    """Any field values of the right types; consistency between fields is not needed."""
    mining_threshold = draw(st.integers(1, 50))
    config = EpochConfig(
        rounds_per_epoch=draw(st.integers(1, 10**6)),
        max_validators=draw(st.integers(4, 1000)),
        liveliness_threshold=draw(THRESHOLDS),
        mining_threshold=mining_threshold,
        jail_sentence_epochs=draw(st.integers(1, 10)),
        growth_cap=draw(st.integers(mining_threshold, 100)),
        ranking=draw(st.sampled_from(Ranking)),
    )
    state = LedgerState(draw(st.sampled_from([TINY_SECURITY, SMALL_SECURITY])), config,
                        SCHEMES[draw(st.sampled_from(sorted(SCHEMES)))],
                        modulus=draw(st.integers(2, 2**300)) * 2 + 1)
    state.epoch = draw(COUNTS)
    state.epoch_blocks_total = draw(COUNTS)
    pool = draw(st.lists(st.binary(min_size=1, max_size=6), unique=True, max_size=8))
    for address in pool:
        state.miner_pool[address] = MinerState(
            address=address, height=draw(COUNTS), hash=draw(st.binary(max_size=32)),
            num=draw(COUNTS), jailed=draw(st.booleans()), jail_sentence=draw(COUNTS),
            compliant_epochs=draw(COUNTS))
    if pool:
        members = st.lists(st.sampled_from(pool), unique=True)
        state.validator_set = draw(members)
        state.epoch_signatures = {a: draw(COUNTS) for a in draw(members)}
    return state


class TestSnapshotWriter:
    @settings(deadline=None, max_examples=300)
    @given(state=ledger_states())
    def test_equals_indented_json_dumps(self, state):
        expected = json.dumps(snapshot_doc(state), sort_keys=True, indent=2) + "\n"
        assert state.export_snapshot() == expected

    def test_empty_and_pinned_ledgers(self, state):
        for subject in (state, pinned_ledger()):
            expected = json.dumps(snapshot_doc(subject), sort_keys=True, indent=2) + "\n"
            assert subject.export_snapshot() == expected

    def test_equal_configs_written_as_each_spells_itself(self, state):
        # 0.5 is held as the Fraction 1/2, so all three write "1/2".
        for threshold in (Fraction(1, 2), 0.5, Fraction(1, 2)):
            state.epoch_config = EpochConfig(liveliness_threshold=threshold)
            expected = json.dumps(snapshot_doc(state), sort_keys=True, indent=2) + "\n"
            assert state.export_snapshot() == expected


class TestSnapshotImport:
    def test_bytes_pinned(self):
        text = pinned_ledger().export_snapshot()
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "979691adb57e7cbdb5cbb45f063b343879e27019c0c7220f063a6f455b37ad3a"
        assert LedgerState.import_snapshot(text).export_snapshot() == text

    def test_float_threshold_round_trips(self, state):
        state.epoch_config = EpochConfig(liveliness_threshold=0.9)
        text = state.export_snapshot()
        assert LedgerState.import_snapshot(text).export_snapshot() == text

    @pytest.mark.parametrize("case", sorted(BAD_SNAPSHOTS))
    def test_malformed_snapshot_raises_invalid_snapshot(self, case):
        text = BAD_SNAPSHOTS[case](json.loads(pinned_ledger().export_snapshot()))
        with pytest.raises(ledger.InvalidSnapshot):
            LedgerState.import_snapshot(text)


POOL = [f"m-{i:02d}".encode() for i in range(9)]
SHAPES = {"list": list, "tuple": tuple, "set": set, "frozenset": frozenset,
          "generator": lambda signers: (a for a in signers)}
# Built once: strategies made inside the loop cost more than the ledger calls.
INDICES = st.lists(st.integers(0, len(POOL) - 1), max_size=4)
FOREIGN = st.lists(st.sampled_from(POOL + [b"ghost"]), max_size=2)
SHAPE = st.sampled_from(sorted(SHAPES))
SHUFFLE = st.randoms(use_true_random=False)
STEP_CHANGES = st.sampled_from(["none", "seat", "install", "assign", "snapshot"])
SEATS = st.lists(st.sampled_from(POOL), min_size=4, unique=True)


class TestTallyOracle:
    """``record_block`` counts committed blocks per distinct signer set and settles
    them on read; the result equals a plain count of who signed each committed block."""

    @staticmethod
    def block(data, state: LedgerState, expected: Counter) -> None:
        members = list(state.validator_set)
        missing = {members[i % len(members)] for i in data.draw(INDICES)}
        signers = [a for a in members if a not in missing] or members[:1]
        signers += [signers[i % len(signers)] for i in data.draw(INDICES)]  # duplicates
        foreign = [a for a in data.draw(FOREIGN) if a not in members]
        signers += foreign
        data.draw(SHUFFLE).shuffle(signers)
        shaped = SHAPES[data.draw(SHAPE)](signers)
        if not foreign and len(set(signers)) >= quorum(len(members)):
            blocks = state.epoch_blocks_total
            assert state.record_block(shaped)
            assert state.epoch_blocks_total == blocks + 1
            expected.update(set(signers))
            return
        before = state.export_snapshot()
        if foreign:
            with pytest.raises(ForeignSigner):
                state.record_block(shaped)
        else:
            assert not state.record_block(shaped)
        assert state.export_snapshot() == before  # no rejection changes state

    def test_repeated_set_in_every_shape_across_a_set_change(self):
        """A set counted once commits again unchecked only while the members stay."""
        state = make_ledger(miners=len(POOL), validators=6)
        expected = Counter()
        signers = POOL[:5]
        for shape in (list, set, frozenset, list, set, frozenset):
            assert state.record_block(shape(signers))
            expected.update(signers)
            if shape is set:
                assert dict(state.epoch_signatures) == dict(expected)  # settled mid-run
        state.validator_set = POOL[2:8]  # mid-epoch: m-00 and m-01 leave
        before = state.export_snapshot()
        for shape in (list, set, frozenset):
            with pytest.raises(ForeignSigner):
                state.record_block(shape(signers))
            assert not state.record_block(shape(POOL[2:5]))  # 3 of 6, below quorum 4
            assert state.export_snapshot() == before  # no rejection changes state
        for shape in (frozenset, list, set, frozenset):
            assert state.record_block(shape(POOL[3:7]))
            expected.update(POOL[3:7])
        assert state.epoch_blocks_total == 10
        assert dict(state.epoch_signatures) == dict(expected)

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_equals_counter_of_committed_signers(self, data):
        state = make_ledger(miners=len(POOL), validators=data.draw(st.integers(4, len(POOL))))
        expected = Counter()
        for _ in range(data.draw(st.integers(1, 8))):
            # A step is a few blocks, then one change, so unsettled blocks meet it.
            for _ in range(data.draw(st.integers(0, 4))):
                self.block(data, state, expected)
            change = data.draw(STEP_CHANGES)
            if change in ("seat", "install"):
                seated = data.draw(SEATS)
                if change == "seat":
                    state.validator_set = seated
                else:
                    state.install_validators(seated)
            elif change == "assign":
                counts = data.draw(st.dictionaries(
                    st.sampled_from(POOL), st.integers(0, state.epoch_blocks_total)))
                state.epoch_signatures = counts
                expected = Counter(counts)
            elif change == "snapshot":
                state = LedgerState.import_snapshot(state.export_snapshot())
            text = state.export_snapshot()
            assert dict(state.epoch_signatures) == dict(expected)  # zero counts included
            doc = {**snapshot_doc(state),
                   "epoch_signatures": {a.hex(): n for a, n in expected.items()}}
            assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
