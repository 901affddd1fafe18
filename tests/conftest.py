"""Shared fixtures: small parameter profiles that keep the suite fast."""

from __future__ import annotations

import hashlib

import pytest

from delaytower import vdf
from delaytower.ledger import EpochConfig, LedgerState
from delaytower.signing import KeyedHashScheme

SMALL_SECURITY = vdf.SecurityParams(modulus_bits=512, iterations=16)
TINY_SECURITY = vdf.SecurityParams(modulus_bits=256, iterations=16)
# Smallest power-of-two profile whose proofs carry 3 midpoints to tamper with.
FOLD_SECURITY = vdf.SecurityParams(modulus_bits=512, iterations=1 << 10)


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
