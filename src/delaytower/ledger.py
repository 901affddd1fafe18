"""Validator-side chain state: miner records, proof acceptance, block tallies.

Proof submissions go through a fixed gauntlet: signature, height progression, then
the chain rule towers obey, ``tower.check_link`` (index, chained input, structural
screen, transcript of ``security.iterations`` squarings). A failed step leaves the
state untouched. Block production is abstracted to signature events; a block commits
when a two-thirds quorum of the current validator set endorses it. ``validator_set``
is a read-only tuple; a new set replaces it by assignment.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Container, Iterable, Optional

from . import tower, vdf
from .serialization import (as_written, encode_bigint, encode_bytes, encode_uint,
                            fields_from_doc, known_keys, load_json, nested_block, parse_rational)
from .signing import SignatureScheme, scheme_by_name

SNAPSHOT_VERSION = 1

_DOMAIN_REGISTER = b"delay-tower/register/v2"
_DOMAIN_SUBMIT = b"delay-tower/submit/v2"

MIN_VALIDATORS = 4


class AlreadyRegistered(Exception):
    """Address already has a miner state."""


class InvalidSignature(Exception):
    """Submission signature does not verify against the sender address."""


class InvalidProof(Exception):
    """Registration proof fails structural or transcript checks."""


class UnknownMiner(Exception):
    """Submission from an address with no miner state."""


class ForeignSigner(Exception):
    """Block endorsement from outside the current validator set."""


class InvalidSnapshot(ValueError):
    """Snapshot text is not a well-formed ledger snapshot."""


class Ranking(Enum):
    BY_TOWER_HEIGHT = "by-tower-height"
    BY_COMPLIANT_EPOCHS = "by-compliant-epochs"


@dataclass(frozen=True)
class EpochConfig:
    """Protocol knobs fixed per network; see README for the default rationale."""

    rounds_per_epoch: int = 100
    max_validators: int = 100
    liveliness_threshold: Fraction = Fraction(9, 10)
    mining_threshold: int = 24
    jail_sentence_epochs: int = 1
    growth_cap: int = 48
    ranking: Ranking = Ranking.BY_TOWER_HEIGHT

    def __post_init__(self):
        if self.rounds_per_epoch < 1:
            raise ValueError("rounds_per_epoch must be positive")
        if self.max_validators < MIN_VALIDATORS:
            raise ValueError(f"max_validators must be >= {MIN_VALIDATORS}")
        if not 0 <= self.liveliness_threshold <= 1:
            raise ValueError("liveliness_threshold must lie in [0, 1]")
        # Held exact, so a float threshold writes the one spelling that reads back to it.
        object.__setattr__(self, "liveliness_threshold", Fraction(self.liveliness_threshold))
        if self.mining_threshold < 1:
            raise ValueError("mining_threshold must be positive")
        if self.jail_sentence_epochs < 1:
            raise ValueError("jail_sentence_epochs must be positive")
        if self.growth_cap < self.mining_threshold:
            raise ValueError("growth_cap must be >= mining_threshold")

    def to_doc(self) -> dict:
        """JSON object of every field; ``from_doc`` reads it back."""
        doc = asdict(self)
        doc.update(liveliness_threshold=str(self.liveliness_threshold),
                   ranking=self.ranking.value)
        return doc

    @classmethod
    def from_doc(cls, doc) -> "EpochConfig":
        """Parse ``to_doc``'s form; missing keys take the field defaults."""
        return cls(**fields_from_doc(cls, doc, liveliness_threshold=parse_rational,
                                     ranking=Ranking))


@dataclass
class MinerState:
    """On-chain record for one miner address."""

    address: bytes
    height: int
    hash: bytes
    num: int = 0
    jailed: bool = False
    jail_sentence: int = 0
    compliant_epochs: int = 0


def quorum(n: int) -> int:
    """Endorsements needed to commit a block: ceil(2n/3)."""
    return (2 * n + 2) // 3


def check_validator_set(addresses: Iterable[bytes], miners: Container[bytes]) -> list[bytes]:
    """``addresses`` as a list if they can be a validator set over ``miners``: at least
    ``MIN_VALIDATORS`` members, none repeated, each one of ``miners``; else ValueError."""
    addresses = list(addresses)
    if len(addresses) < MIN_VALIDATORS:
        raise ValueError(f"validator set needs >= {MIN_VALIDATORS} members")
    if len(set(addresses)) != len(addresses):
        raise ValueError("validator set contains duplicates")
    if missing := [a for a in addresses if a not in miners]:
        raise ValueError(f"validators not in miner pool: {[m.hex() for m in missing]}")
    return addresses


def registration_message(address: bytes, params: vdf.PublicParams,
                         record: tower.ProofRecord) -> bytes:
    return (
        _DOMAIN_REGISTER
        + encode_bytes(address)
        + encode_bigint(params.modulus)
        + encode_bytes(params.input_digest)
        + encode_uint(params.iterations, 8)
        + encode_uint(vdf.PRIME_LENGTH_BITS, 4)
        + tower.record_bytes(record)
    )


def submission_message(address: bytes, claimed_height: int,
                       record: tower.ProofRecord) -> bytes:
    return (
        _DOMAIN_SUBMIT
        + encode_bytes(address)
        + encode_uint(claimed_height, 8)
        + tower.record_bytes(record)
    )


class LedgerState:
    """Single-writer chain state; mutating calls either fully apply or not at all."""

    def __init__(
        self,
        security: vdf.SecurityParams,
        epoch_config: EpochConfig,
        scheme: SignatureScheme,
        *,
        modulus: Optional[int] = None,
    ):
        self.security = security
        self.epoch_config = epoch_config
        self.scheme = scheme
        if modulus is None:
            modulus = vdf.generate_modulus(security.modulus_bits)
        else:  # a derived modulus is composite and of its stated size by construction
            vdf.check_modulus(modulus)
            if modulus.bit_length() != security.modulus_bits:
                raise ValueError(f"modulus has {modulus.bit_length()} bits, "
                                 f"not {security.modulus_bits}")
        self.modulus = modulus
        self.epoch: int = 0
        self.epoch_signatures = {}
        self.validator_set = ()
        self.miner_pool: dict[bytes, MinerState] = {}
        self.epoch_blocks_total: int = 0

    # -- invariant helpers -------------------------------------------------

    @property
    def validator_set(self) -> tuple[bytes, ...]:
        return self._validator_set

    @validator_set.setter
    def validator_set(self, addresses: Iterable[bytes]) -> None:
        # The frozenset serves membership tests. The tally settles before either changes.
        self._settle()
        self._validator_set = tuple(addresses)
        self._validator_members = frozenset(self._validator_set)

    @property
    def epoch_signatures(self) -> Counter[bytes]:
        """Blocks each validator signed this epoch; an assigned mapping is copied.
        ``record_block`` keeps one count per distinct signer set until the counts
        are read, and reading settles them."""
        self._settle()
        return self._epoch_signatures

    @epoch_signatures.setter
    def epoch_signatures(self, counts: dict[bytes, int]) -> None:
        self._tally: dict[frozenset[bytes], int] = {}  # committed blocks per signer set
        self._epoch_signatures = Counter(counts)

    def _settle(self) -> None:
        """Credit the blocks recorded since the last settlement to their signers, once
        per distinct signer set: every member signed them all but the sets it missed."""
        if self._tally:
            members = self._validator_members
            signed = dict.fromkeys(self._validator_set, sum(self._tally.values()))
            for signers, blocks in self._tally.items():
                for address in members - signers:
                    signed[address] -= blocks
            self._tally = {}
            # no entry for a validator that signed none
            self._epoch_signatures.update({a: n for a, n in signed.items() if n})

    def bootstrap_miner(self, address: bytes) -> MinerState:
        """Genesis-only shortcut that skips the proof-submission path."""
        if address in self.miner_pool:
            raise AlreadyRegistered(f"{address.hex()} already in miner pool")
        placeholder = hashlib.sha256(b"genesis-tip" + address).digest()
        ms = MinerState(address=address, height=1, hash=placeholder)
        self.miner_pool[address] = ms
        return ms

    def install_validators(self, addresses: Iterable[bytes]) -> None:
        self.validator_set = check_validator_set(addresses, self.miner_pool)

    # -- proof intake ------------------------------------------------------

    def credit(self, ms: MinerState, links: int,
               record: Optional[tower.ProofRecord] = None) -> None:
        """Credit ``links`` accepted links to ``ms``: ``height`` counts each, ``num`` stops
        at ``growth_cap``, and a real ``record`` becomes the tip the next link chains from."""
        ms.height += links
        ms.num = min(ms.num + links, self.epoch_config.growth_cap)
        if record is not None:
            ms.hash = tower.link_digest(record.index, record.input, record.output)

    def register_miner(
        self,
        address: bytes,
        params: vdf.PublicParams,
        first_record: tower.ProofRecord,
        signature: bytes,
    ) -> MinerState:
        """Admit a full node on a valid first proof of a tower that ``address`` owns."""
        if address in self.miner_pool:
            raise AlreadyRegistered(f"{address.hex()} already registered")
        try:
            message = registration_message(address, params, first_record)
        except (OverflowError, ValueError) as exc:  # no signature covers bytes never written
            raise InvalidSignature(f"registration cannot be encoded: {exc}") from exc
        if not self.scheme.verify(address, message, signature):
            raise InvalidSignature("registration signature does not verify")
        try:
            expected = vdf.setup(self.security, address, params.endpoint, modulus=self.modulus)
        except ValueError as exc:
            raise InvalidProof(f"no public parameters for this address: {exc}") from exc
        if params != expected:  # the genesis profile, and record 0's input bound to this address
            raise InvalidProof("public parameters are not this address's on this network")
        ms = MinerState(address=address, height=0, hash=params.input_digest)  # before record 0
        failed = tower.check_link(self.modulus, self.security.iterations, ms.hash, ms.height,
                                  first_record)
        if failed is not None:
            raise InvalidProof(f"first proof fails the {failed} check")
        self.credit(ms, 1, first_record)
        self.miner_pool[address] = ms
        return ms

    def submit_proof(
        self,
        address: bytes,
        claimed_height: int,
        record: tower.ProofRecord,
        signature: bytes,
    ) -> bool:
        """Validate one tower extension; True and a state update only when every
        gate passes, False and an untouched state otherwise.

        Gates, in order: signature, which a field its message cannot encode
        fails; the claimed height exceeds the stored height; ``tower.check_link``
        from the stored tip (the index is the next one, the input is derived
        from the stored digest, then the structural screen and the full
        transcript check). Runs in O(1) state reads plus one transcript
        verification, independent of tower height.
        """
        if address not in self.miner_pool:
            raise UnknownMiner(f"{address.hex()} has no miner state")
        ms = self.miner_pool[address]
        try:
            message = submission_message(address, claimed_height, record)
        except (OverflowError, ValueError):  # a field the message cannot encode
            return False
        if not self.scheme.verify(address, message, signature):
            return False
        if not ms.height < claimed_height:
            return False
        if tower.check_link(self.modulus, self.security.iterations, ms.hash, ms.height,
                            record) is not None:
            return False
        self.credit(ms, 1, record)
        return True

    # -- block accounting ----------------------------------------------------

    def record_block(self, signers: Iterable[bytes]) -> bool:
        """Tally one proposed block; True iff the signer set reaches quorum.

        Committed blocks are counted per distinct signer set until
        ``epoch_signatures`` is read; a set already counted since then was checked
        against the same members and commits again unchecked. With no validator
        set seated nothing commits, not even an empty block.
        """
        signers = signers if isinstance(signers, frozenset) else frozenset(signers)
        tally = self._tally
        if signers in tally:
            tally[signers] += 1
            self.epoch_blocks_total += 1
            return True
        members = self._validator_members
        if not signers <= members:
            foreign = sorted(a.hex() for a in signers - members)
            raise ForeignSigner(f"signers outside validator set: {foreign}")
        if not members or len(signers) < quorum(len(members)):
            return False
        self.epoch_blocks_total += 1
        tally[signers] = 1
        return True

    # -- snapshots -------------------------------------------------------------

    def export_snapshot(self) -> str:
        """Canonical snapshot: ``json.dumps(doc, sort_keys=True, indent=2)`` plus a
        newline, where ``doc`` holds the fields below with addresses and hashes
        in hex and the modulus as a decimal string.

        The fixed layout is written by hand because an indented ``json.dumps``
        runs the pure-Python encoder. Hex and decimal text needs no escaping.
        A 40 kB snapshot of 160 miners takes 0.22-0.32 ms; a generic writer with
        C-encoded leaves took 1.3-1.4 ms, and ``json.dumps(indent=2)`` 2.2 ms.
        """
        signatures = [f'    "{a}": {n}' for a, n in
                      sorted((a.hex(), n) for a, n in self.epoch_signatures.items())]
        miners = [
            f'    "{a}": {{\n'
            f'      "compliant_epochs": {ms.compliant_epochs},\n'
            f'      "hash": "{ms.hash.hex()}",\n'
            f'      "height": {ms.height},\n'
            f'      "jail_sentence": {ms.jail_sentence},\n'
            f'      "jailed": {"true" if ms.jailed else "false"},\n'
            f'      "num": {ms.num}\n'
            '    }'
            for a, ms in sorted((a.hex(), ms) for a, ms in self.miner_pool.items())
        ]
        validators = [f'    "{a.hex()}"' for a in self._validator_set]
        return (
            "{\n"
            f'  "epoch": {self.epoch},\n'
            f'  "epoch_blocks_total": {self.epoch_blocks_total},\n'
            f'  "epoch_config": {_config_doc(self.epoch_config)},\n'
            f'  "epoch_signatures": {nested_block("{}", signatures)},\n'
            f'  "miner_pool": {nested_block("{}", miners)},\n'
            f'  "modulus": "{self.modulus}",\n'
            f'  "scheme": {json.dumps(self.scheme.name)},\n'
            f'  "security": {_config_doc(self.security)},\n'
            f'  "validator_set": {nested_block("[]", validators)},\n'
            f'  "version": {SNAPSHOT_VERSION}\n'
            "}\n"
        )

    @classmethod
    def import_snapshot(cls, text: str) -> "LedgerState":
        """Rebuild the state ``export_snapshot`` wrote; raises InvalidSnapshot on malformed
        JSON, a missing key or one export does not write, a wrong type, hex, a decimal or
        a config that export would spell otherwise, a negative count, a non-bool ``jailed``,
        a miner hash not 32 bytes long, a modulus that ``vdf.check_modulus`` refuses or whose
        size is not ``security.modulus_bits``, an invalid config, another version, a signer
        outside the miner pool or a signature count above ``epoch_blocks_total``."""
        try:
            doc = load_json(text)
            if doc.get("version") != SNAPSHOT_VERSION:
                raise ValueError(f"unsupported snapshot version {doc.get('version')}")
            known_keys(doc, "epoch", "epoch_blocks_total", "epoch_config", "epoch_signatures",
                       "miner_pool", "modulus", "scheme", "security", "validator_set", "version")
            security = vdf.SecurityParams.from_doc(doc["security"])
            config = EpochConfig.from_doc(doc["epoch_config"])
            if (security.to_doc(), config.to_doc()) != (doc["security"], doc["epoch_config"]):
                raise ValueError("a config is not written as export writes it")
            state = cls(security, config, scheme_by_name(doc["scheme"]),
                        modulus=as_written(doc["modulus"], int, str))
            state.epoch = _count(doc["epoch"])
            for addr_hex, fields in doc["miner_pool"].items():
                known_keys(fields, "compliant_epochs", "hash", "height", "jail_sentence",
                           "jailed", "num")
                if not isinstance(fields["jailed"], bool):
                    raise TypeError(f"jailed must be a bool, got {fields['jailed']!r}")
                if len(digest := as_written(fields["hash"])) != 32:
                    raise ValueError(f"miner hash has {len(digest)} bytes, not 32")
                address = as_written(addr_hex)
                state.miner_pool[address] = MinerState(
                    address=address,
                    height=_count(fields["height"]),
                    hash=digest,
                    num=_count(fields["num"]),
                    jailed=fields["jailed"],
                    jail_sentence=_count(fields["jail_sentence"]),
                    compliant_epochs=_count(fields["compliant_epochs"]),
                )
            validators = [as_written(a) for a in doc["validator_set"]]
            if validators:
                state.install_validators(validators)
            state.epoch_blocks_total = _count(doc["epoch_blocks_total"])
            state.epoch_signatures = {
                as_written(a): _count(n) for a, n in doc["epoch_signatures"].items()
            }
            for address, n in state.epoch_signatures.items():
                if address not in state.miner_pool:
                    raise ValueError(f"signer {address.hex()} is not in the miner pool")
                if n > state.epoch_blocks_total:
                    raise ValueError(f"signer {address.hex()} signed {n} of "
                                     f"{state.epoch_blocks_total} blocks")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidSnapshot(f"bad snapshot: {exc}") from exc
        return state


@lru_cache(maxsize=8)
def _config_doc(config: EpochConfig | vdf.SecurityParams) -> str:
    """A frozen config's ``to_doc`` as a second-level object through ``json.dumps``,
    re-indented one level; rendered once per config."""
    return json.dumps(config.to_doc(), sort_keys=True, indent=2).replace("\n", "\n  ")


def _count(value) -> int:
    """A snapshot counter: a non-negative JSON integer."""
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value
