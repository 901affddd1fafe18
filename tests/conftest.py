"""Shared fixtures: small parameter profiles that keep the suite fast."""

from __future__ import annotations

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

    Returns the midpoints and, for each level, the steps left when it began.
    Proof format 1 carried all of these midpoints.
    """
    checkpoints, entered = [], []
    xi, yi, remaining = x, y, t
    while remaining > 1:
        entered.append(remaining)
        if remaining % 2 == 1:
            xi = xi * xi % modulus
            remaining -= 1
        remaining //= 2
        midpoint = pow(xi, 1 << remaining, modulus)
        checkpoints.append(midpoint)
        r = vdf._challenge(*map(vdf._magnitude, (modulus, xi, yi, midpoint)), len(checkpoints))
        xi = pow(xi, r, modulus) * midpoint % modulus
        yi = pow(midpoint, r, modulus) * yi % modulus
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
