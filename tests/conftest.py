"""Shared fixtures: small parameter profiles that keep the suite fast."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from delaytower import tower, vdf
from delaytower.ledger import EpochConfig, LedgerState
from delaytower.serialization import encode_bigint
from delaytower.signing import KeyedHashScheme

SMALL_SECURITY = vdf.SecurityParams(modulus_bits=512, iterations=16)
TINY_SECURITY = vdf.SecurityParams(modulus_bits=256, iterations=16)
# Smallest power-of-two profile whose proofs carry 3 midpoints to tamper with.
FOLD_SECURITY = vdf.SecurityParams(modulus_bits=512, iterations=1 << 10)


def link_of(record: tower.ProofRecord) -> bytes:
    """The digest the record after ``record`` hashes its input from."""
    return tower.link_digest(record.index, record.input, record.output)


def format_3_proof(output: int, proof: vdf.VdfProof) -> bytes:
    """The proof's bytes as format 3 wrote them: version, prime-length label,
    a copy of the output, midpoint count, midpoints."""
    midpoints = proof.checkpoints
    return (b"\x03" + vdf.PRIME_LENGTH_BITS.to_bytes(4, "big") + encode_bigint(output)
            + len(midpoints).to_bytes(4, "big") + b"".join(map(encode_bigint, midpoints)))


def _replace_proof(record: tower.ProofRecord, **fields) -> tower.ProofRecord:
    return dataclasses.replace(record, proof=dataclasses.replace(record.proof, **fields))


# Gate -> a tampering of one of ``twr``'s records that check_link must reject at
# that gate; None leaves the honest record, which every check accepts. The
# input fault takes the input of the record before (of the last, for record 0).
# The transcript fault needs a proof with midpoints; its doubled midpoint is
# canonical, so the fold itself, not verify's prelude, must refuse it.
LINK_FAULTS = {
    None: lambda twr, record: record,
    "index": lambda twr, record: dataclasses.replace(record, index=record.index + 1),
    "input": lambda twr, record: dataclasses.replace(
        record, input=twr.records[record.index - 1].input),
    "screen": lambda twr, record: _replace_proof(
        record, embedded_prime_length_bits=record.proof.embedded_prime_length_bits - 1),
    "transcript": lambda twr, record: _replace_proof(
        record, checkpoints=(_canonical_double(record.proof.checkpoints[0], twr.params.modulus),)
        + record.proof.checkpoints[1:]),
}


def _canonical_double(value: int, modulus: int) -> int:
    doubled = value * 2 % modulus
    return min(doubled, modulus - doubled)


def serial_chain(security: vdf.SecurityParams, key: bytes, endpoint: bytes,
                 height: int) -> tower.Tower:
    """The tower built one whole ``vdf.eval`` at a time, without ``tower.grow``."""
    twr = tower.Tower(params=vdf.setup(security, key, endpoint), records=())
    for index in range(height):
        x = tower.next_input(twr)
        output, proof = vdf.eval(twr.params, x)
        record = tower.ProofRecord(index=index, input=x, output=output, proof=proof)
        twr = dataclasses.replace(twr, records=twr.records + (record,))
    return twr


@pytest.fixture(scope="session")
def small_security() -> vdf.SecurityParams:
    return SMALL_SECURITY


@pytest.fixture(scope="session")
def small_params() -> vdf.PublicParams:
    return vdf.setup(SMALL_SECURITY, b"fixture-key", b"fixture-endpoint")


@pytest.fixture(scope="session")
def scheme() -> KeyedHashScheme:
    return KeyedHashScheme()


def full_fold(modulus: int, x: int, t: int, y: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reference fold down to a single squaring, every midpoint by squaring again.

    Written from proof format 3's rule, not from ``vdf``: every midpoint is
    canonical, min(v, N - v), and level j's challenge is the first 16 bytes of
    SHA-256 over b"delay-tower/challenge/v3", then N, t, x, y and the midpoints
    of levels 1 to j, each as a 4-byte length and its minimal big-endian bytes,
    then j in 4 bytes. Returns the midpoints and, for each level, the steps left
    when it began. Proof format 1 carried all of these midpoints.
    """
    def encode(value: int) -> bytes:
        magnitude = value.to_bytes((value.bit_length() + 7) // 8, "big")
        return len(magnitude).to_bytes(4, "big") + magnitude

    published = b"delay-tower/challenge/v3" + b"".join(map(encode, (modulus, t, x, y)))
    checkpoints, entered = [], []
    xi, remaining = x, t
    while remaining > 1:
        entered.append(remaining)
        if remaining % 2 == 1:
            xi = xi * xi % modulus
            remaining -= 1
        remaining //= 2
        midpoint = pow(xi, 1 << remaining, modulus)
        midpoint = min(midpoint, modulus - midpoint)
        checkpoints.append(midpoint)
        published += encode(midpoint)
        digest = hashlib.sha256(published + len(checkpoints).to_bytes(4, "big")).digest()
        xi = pow(xi, int.from_bytes(digest[:16], "big"), modulus) * midpoint % modulus
    return tuple(checkpoints), tuple(entered)


def make_ledger(
    security: vdf.SecurityParams = TINY_SECURITY,
    config: EpochConfig | None = None,
    miners: int = 0,
    validators: int = 0,
) -> LedgerState:
    """Ledger with bootstrapped miners m-00.. and the first ``validators`` installed."""
    state = LedgerState(security, config or EpochConfig(), KeyedHashScheme())
    addresses = [f"m-{i:02d}".encode() for i in range(miners)]
    for address in addresses:
        state.bootstrap_miner(address)
    if validators:
        state.install_validators(addresses[:validators])
    return state
