"""Miner-side chain of delay proofs with durable file persistence.

A tower starts from an input bound to the owner's key and endpoint, which its
``params`` hold; every later proof evaluates on a group element hashed from the
previous record's ``link_digest``. ``check_link`` is that rule, for the ledger
too. Checked under another key, a tower fails at record 0: it cannot be moved.

A tower is validated once, at its boundary, not before every link: each
``Tower`` privately counts the records known to chain and verify. Only ``grow``
and ``load_tower(validate=True)`` set that count. Any other tower, a tampered,
re-keyed or reordered copy too, starts at 0: ``grow`` checks it in full on the
calling thread and the package's one worker, squaring and proving its first link
inside the check; later links square here while that worker proves the last.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import wait
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from . import vdf
from .serialization import DecodeError, Reader, encode_bigint, encode_bytes, encode_uint, \
    write_atomic

TOWER_FILE_VERSION = 4

_DOMAIN_RECORD = b"delay-tower/record/v1"
_DOMAIN_LINK = b"delay-tower/link/v1"


class CorruptTower(Exception):
    """Tower state or file fails chain validation or cannot be parsed."""


@dataclass(frozen=True)
class ProofRecord:
    """One verified link: position, group input, output, and the proof of that output."""

    index: int
    input: int
    output: int
    proof: vdf.VdfProof


@dataclass(frozen=True)
class Tower:
    """A miner's chain: the owner's ``params`` and the ``records``, nothing else."""

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


def _record_body(record: ProofRecord) -> bytes:
    """A record as the tower file writes it: index, input, output, then its proof's bytes."""
    return (encode_uint(record.index, 8) + encode_bigint(record.input)
            + encode_bigint(record.output) + encode_bytes(vdf.serialize_proof(record.proof)))


def record_bytes(record: ProofRecord) -> bytes:
    """Canonical bytes of a whole record, proof included; the ledger's messages sign them."""
    return _DOMAIN_RECORD + _record_body(record)


def link_digest(index: int, input: int, output: int) -> bytes:
    """Digest of a link's index, input and output; the next input is hashed from it.

    It leaves the proof out, so the next link can square while the proof is
    built. Every gate still checks the proof, and the ledger's signatures cover it."""
    return hashlib.sha256(_DOMAIN_LINK + encode_uint(index, 8) + encode_bigint(input)
                          + encode_bigint(output)).digest()


def _previous_digest(tower: Tower, index: int) -> bytes:
    """What record ``index``'s input is hashed from."""
    if index == 0:
        return tower.params.input_digest
    previous = tower.records[index - 1]
    return link_digest(previous.index, previous.input, previous.output)


def init_tower(security: vdf.SecurityParams, public_key: bytes, endpoint: bytes) -> Tower:
    """Run setup and evaluate the first proof on the setup-derived input."""
    return extend(Tower(params=vdf.setup(security, public_key, endpoint), records=()))


def next_input(tower: Tower) -> int:
    """Group element the next record must evaluate on."""
    return vdf.hash_to_group(_previous_digest(tower, tower.height), tower.params.modulus)


def _append(tower: Tower, x: int, y: int, powers: tuple[int, ...],
            proof: vdf.VdfProof | None, on_link: Callable[[Tower], object]) -> Tower:
    record = ProofRecord(tower.height, x, y, proof or vdf.prove(tower.params, x, y, powers))
    tower = _validated(replace(tower, records=tower.records + (record,)))
    on_link(tower)
    return tower


def _checked(tower: Tower, work: Callable[[], object] = lambda: None) -> Tower:
    """``tower`` marked valid if ``check_chain`` passes it; else CorruptTower naming where."""
    if (failed := check_chain(tower, work=work)) is not None:
        raise CorruptTower(f"tower fails validation at record {failed[0]} ({failed[1]})")
    return _validated(tower)


def grow(tower: Tower, links: int, on_link: Callable[[Tower], object] = lambda _: None) -> Tower:
    """Append ``links`` chained records, from record 0 for an empty tower.

    This thread squares link k while the package's worker, on every engine, proves link
    k-1 and passes the tower ending in it to ``on_link`` (a miner saves it there): Ctrl-C
    lands here, never in them. Link k-1 is joined before link k+1 starts: an exception from
    ``on_link`` stops growth within one link, and one raised here, such as Ctrl-C in the
    squarings or while this thread waits, waits for the link in flight. A tower not known
    to be valid (from ``grow`` or a validating ``load_tower``) is ``_checked`` by this thread
    and the worker; its first new link is squared and proved here inside the check.
    """
    digest, params = _previous_digest(tower, tower.height), tower.params
    unchecked, link, in_flight = tower._validated_height != tower.height, [], None
    if links <= 0:
        return _checked(tower) if unchecked else tower

    def square(x: int, prove: bool = False) -> None:
        """Link ``x``'s squarings into ``link``, and its proof if ``prove``."""
        y, powers = vdf.squarings(params, x)
        link[:] = y, powers, vdf.prove(params, x, y, powers) if prove else None

    try:
        for index in range(tower.height, tower.height + links):
            x = vdf.hash_to_group(digest, params.modulus)
            if unchecked:  # nothing is passed on before the check passes
                _checked(tower, partial(square, x, True))
                unchecked = False
            else:
                square(x)
            if in_flight is not None:
                tower = in_flight.result()
            in_flight = vdf._queued(_append, tower, x, *link, on_link)
            digest = link_digest(index, x, link[0])
        return in_flight.result()
    finally:
        if in_flight is not None:
            wait([in_flight])


def extend(tower: Tower) -> Tower:
    """``grow`` by one link."""
    return grow(tower, 1)


def check_link(modulus: int, iterations: int, previous_digest: bytes,
               index: int, record: ProofRecord) -> str | None:
    """The chain rule for one link, shared by towers and the ledger.

    ``record`` must sit at ``index`` and prove ``iterations`` squarings mod
    ``modulus`` of the element hashed from ``previous_digest``: the owner's
    ``PublicParams.input_digest`` for record 0, the previous record's
    ``link_digest`` after it. Returns None for a good link, otherwise the first
    gate it fails: "index", "input", or ``check_proof``'s "screen" or "transcript".
    """
    return _chain_gate(modulus, previous_digest, index, record) or \
        vdf.check_proof(modulus, iterations, record.input, record.output, record.proof)


def _chain_gate(modulus: int, previous_digest: bytes, index: int,
                record: ProofRecord) -> str | None:
    """The gates ``check_link`` runs before the proof's: "index", "input", or None."""
    if record.index != index:
        return "index"
    if record.input != vdf.hash_to_group(previous_digest, modulus):
        return "input"
    return None


def check_chain(tower: Tower, spent: list[float] | None = None,
                work: Callable[[], object] = lambda: None) -> tuple[int, str] | None:
    """``check_link`` on each record in turn: the first that fails and its gate, or None.
    The index and input gates run first, then ``vdf.check_proofs(..., spent, work)``
    on the records before the first that fails them: the caller's ``work`` runs there."""
    modulus, claims, failed = tower.params.modulus, [], None
    for index, record in enumerate(tower.records):
        gate = _chain_gate(modulus, _previous_digest(tower, index), index, record)
        if gate is not None:
            failed = (index, gate)
            break
        claims.append((record.input, record.output, record.proof))
    return vdf.check_proofs(modulus, tower.params.iterations, claims, spent, work) or failed


def record_valid(tower: Tower, index: int) -> bool:
    """True iff record ``index`` exists and passes ``check_link`` in its place."""
    if not 0 <= index < tower.height:
        return False
    return check_link(tower.params.modulus, tower.params.iterations,
                      _previous_digest(tower, index), index, tower.records[index]) is None


def validate_chain(tower: Tower) -> bool:
    """True iff the tower has records and every one chains correctly and verifies."""
    return bool(tower.records) and check_chain(tower) is None


def _serialize(tower: Tower) -> bytes:
    params = tower.params
    body = b"".join([encode_uint(TOWER_FILE_VERSION, 1), encode_uint(params.iterations, 8),
                     encode_bytes(params.public_key), encode_bytes(params.endpoint),
                     encode_bigint(params.modulus), encode_uint(len(tower.records), 4),
                     *map(_record_body, tower.records)])
    return body + hashlib.sha256(body).digest()


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
        iterations = reader.uint(8)
        owner = reader.bytes_()
        endpoint = reader.bytes_()
        modulus = reader.bigint()
        records = tuple(ProofRecord(index=reader.uint(8), input=reader.bigint(),
                                    output=reader.bigint(),
                                    proof=vdf.deserialize_proof(reader.bytes_()))
                        for _ in range(reader.uint(4)))
        reader.expect_end()
        if not records:  # mine never saves one, and no record can be checked
            raise CorruptTower("tower file holds no records")
        # The modulus states its own size: the file carries no separate claim of it.
        # SecurityParams refuses a header t that is not a power of two.
        params = vdf.setup(vdf.SecurityParams(modulus.bit_length(), iterations), owner, endpoint,
                           modulus=modulus)
    except (DecodeError, vdf.InvalidSecurityParams, ValueError) as exc:
        raise CorruptTower(f"cannot parse tower file: {exc}") from exc
    return Tower(params=params, records=records)


def save_tower(tower: Tower, path: str | os.PathLike) -> None:
    """Write the tower atomically (temp file plus rename)."""
    write_atomic(path, _serialize(tower))


def load_tower(path: str | os.PathLike, *, validate: bool = True) -> Tower:
    """Read a tower file; with validate (the default) refuse corrupt chains.

    A validated tower is marked as such, so ``extend`` does not check it again.
    """
    with open(path, "rb") as fh:
        tower = _deserialize(fh.read())
    return _checked(tower) if validate else tower
