"""Miner-side chain of delay proofs with durable file persistence.

A tower starts from an input bound to the owner's key and endpoint; every
later proof evaluates on a group element derived from the digest of the
previous record. Re-validating the file under a different key fails at
record 0, which is what makes a tower non-transferable.

A tower is validated once, at its boundary, not before every link: each
``Tower`` privately counts the records known to chain and verify. Only
``init_tower``, ``extend`` and ``load_tower(validate=True)`` set that count.
Any other tower, including one built by the constructor or by
``dataclasses.replace`` (a tampered, re-keyed or reordered copy), starts at 0
and is validated in full before ``extend`` appends to it.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace

from . import vdf
from .serialization import DecodeError, Reader, encode_bigint, encode_bytes, encode_uint, \
    write_atomic

TOWER_FILE_VERSION = 1

_DOMAIN_RECORD = b"delay-tower/record/v1"


class CorruptTower(Exception):
    """Tower state or file fails chain validation or cannot be parsed."""


@dataclass(frozen=True)
class ProofRecord:
    """One verified link: position, group input, output, and its transcript."""

    index: int
    input: int
    output: int
    proof: vdf.VdfProof
    created_epoch: int = 0


@dataclass(frozen=True)
class Tower:
    owner_public_key: bytes
    endpoint: bytes
    security: vdf.SecurityParams
    params: vdf.PublicParams
    records: tuple[ProofRecord, ...]
    # Records known to chain and verify; not part of equality or the file.
    _validated_height: int = field(default=0, init=False, compare=False, repr=False)

    @property
    def height(self) -> int:
        return len(self.records)


def _validated(tower: Tower) -> Tower:
    """Record that every record of ``tower`` chains and verifies."""
    object.__setattr__(tower, "_validated_height", tower.height)
    return tower


def record_digest_bytes(record: ProofRecord) -> bytes:
    """Canonical bytes hashed into the chain link (created_epoch excluded)."""
    return (
        _DOMAIN_RECORD
        + encode_uint(record.index, 8)
        + encode_bigint(record.input)
        + encode_bigint(record.output)
        + encode_bytes(vdf.serialize_proof(record.proof))
    )


def record_digest(record: ProofRecord) -> bytes:
    """Digest of a record; the next record's input is derived from this."""
    return hashlib.sha256(record_digest_bytes(record)).digest()


def init_tower(
    security: vdf.SecurityParams,
    public_key: bytes,
    endpoint: bytes,
    *,
    created_epoch: int = 0,
) -> Tower:
    """Run setup and evaluate the first proof on the setup-derived input."""
    params = vdf.setup(security, public_key, endpoint)
    x0 = vdf.hash_to_group(params.input_digest, params.modulus)
    output, proof = vdf.eval(params, x0)
    record = ProofRecord(index=0, input=x0, output=output, proof=proof,
                         created_epoch=created_epoch)
    return _validated(Tower(
        owner_public_key=bytes(public_key),
        endpoint=bytes(endpoint),
        security=security,
        params=params,
        records=(record,),
    ))


def next_input(tower: Tower) -> int:
    """Group element the next record must evaluate on."""
    return vdf.hash_to_group(record_digest(tower.records[-1]), tower.params.modulus)


def extend(tower: Tower, *, created_epoch: int = 0) -> Tower:
    """Append one proof chained from the digest of the current tip.

    A tower that fails validation cannot be extended. The whole chain is
    validated first unless every record is already known to be valid, that
    is, the tower came from ``init_tower``, ``extend`` or a validating
    ``load_tower``; so a miner verifies its chain once per session, not once
    per link.
    """
    if not 0 < tower._validated_height == tower.height and not validate_chain(tower):
        raise CorruptTower("refusing to extend a tower that fails chain validation")
    x = next_input(tower)
    output, proof = vdf.eval(tower.params, x)
    record = ProofRecord(index=len(tower.records), input=x, output=output,
                         proof=proof, created_epoch=created_epoch)
    return _validated(replace(tower, records=tower.records + (record,)))


def record_valid(tower: Tower, index: int) -> bool:
    """Check one record: correct position, correct chained input, valid proof."""
    if index < 0 or index >= len(tower.records):
        return False
    record = tower.records[index]
    if record.index != index:
        return False
    if index == 0:
        digest = vdf.derive_input_digest(tower.owner_public_key, tower.endpoint)
        if tower.params.input_digest != digest:
            return False
    else:
        digest = record_digest(tower.records[index - 1])
    if record.input != vdf.hash_to_group(digest, tower.params.modulus):
        return False
    return vdf.check_proof(tower.security, tower.params.modulus, record.input,
                           record.output, record.proof) is None


def validate_chain(tower: Tower) -> bool:
    """True iff every record chains correctly and verifies."""
    return bool(tower.records) and all(record_valid(tower, i) for i in range(tower.height))


def _serialize(tower: Tower) -> bytes:
    body = bytearray()
    body += encode_uint(TOWER_FILE_VERSION, 1)
    body += encode_uint(tower.security.modulus_bits, 4)
    body += encode_uint(tower.security.prime_length_bits, 4)
    body += encode_uint(tower.security.iterations, 8)
    body += encode_bytes(tower.owner_public_key)
    body += encode_bytes(tower.endpoint)
    body += encode_bigint(tower.params.modulus)
    body += encode_uint(len(tower.records), 4)
    for record in tower.records:
        body += encode_uint(record.index, 8)
        body += encode_uint(record.created_epoch, 8)
        body += encode_bigint(record.input)
        body += encode_bigint(record.output)
        body += encode_bytes(vdf.serialize_proof(record.proof))
    body += hashlib.sha256(bytes(body)).digest()
    return bytes(body)


def _deserialize(data: bytes) -> Tower:
    if len(data) < 32:
        raise CorruptTower("truncated tower file")
    body, checksum = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != checksum:
        raise CorruptTower("tower file checksum mismatch")
    try:
        reader = Reader(body)
        version = reader.uint(1)
        if version != TOWER_FILE_VERSION:
            raise CorruptTower(f"unsupported tower file version {version}")
        security = vdf.SecurityParams(
            modulus_bits=reader.uint(4),
            prime_length_bits=reader.uint(4),
            iterations=reader.uint(8),
        )
        owner = reader.bytes_()
        endpoint = reader.bytes_()
        modulus = reader.bigint()
        count = reader.uint(4)
        records = []
        for _ in range(count):
            index = reader.uint(8)
            created_epoch = reader.uint(8)
            input_ = reader.bigint()
            output = reader.bigint()
            proof = vdf.deserialize_proof(reader.bytes_())
            records.append(ProofRecord(index=index, input=input_, output=output,
                                       proof=proof, created_epoch=created_epoch))
        reader.expect_end()
        params = vdf.setup(security, owner, endpoint, modulus=modulus)
    except (DecodeError, vdf.InvalidSecurityParams, ValueError) as exc:
        raise CorruptTower(f"cannot parse tower file: {exc}") from exc
    return Tower(owner_public_key=owner, endpoint=endpoint, security=security,
                 params=params, records=tuple(records))


def save_tower(tower: Tower, path: str | os.PathLike) -> None:
    """Write the tower atomically (temp file plus rename)."""
    write_atomic(path, _serialize(tower))


def load_tower(path: str | os.PathLike, *, validate: bool = True) -> Tower:
    """Read a tower file; with validate (the default) refuse corrupt chains.

    A validated tower is marked as such, so ``extend`` does not check it again.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    tower = _deserialize(data)
    if not validate:
        return tower
    if not validate_chain(tower):
        raise CorruptTower("tower file parses but fails chain validation")
    return _validated(tower)
