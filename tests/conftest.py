"""Shared fixtures: small parameter profiles that keep the suite fast."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import string

import pytest
from hypothesis import strategies as st

from delaytower import tower, vdf
from delaytower.ledger import EpochConfig, LedgerState, Ranking
from delaytower.serialization import encode_bigint
from delaytower.signing import KeyedHashScheme
from delaytower.sim import BehaviorKind

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


ENUM_MEMBERS = [*Ranking, *BehaviorKind]


def field_values(ints=st.integers()) -> st.SearchStrategy:
    """Any value a caller may hand a config field: an int from ``ints``, a bool, a
    float, a fraction, a string, or an enum member or its value."""
    return st.one_of(ints, st.booleans(), st.floats(), st.fractions(), st.text(max_size=3),
                     st.sampled_from(ENUM_MEMBERS),
                     st.sampled_from([member.value for member in ENUM_MEMBERS]))


def _nodes(node, path=()):
    """Every (path, value) in a JSON tree, the root first."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _nodes(child, path + (key,))


def _dumps(node, twice=None) -> str:
    """JSON text of ``node``, writing the key ``twice`` = (object, key) a second time."""
    if isinstance(node, dict):
        items = [f"{json.dumps(k)}: {_dumps(v, twice)}" for k, v in node.items()]
        if twice is not None and twice[0] is node:
            items.append(f"{json.dumps(twice[1])}: {_dumps(node[twice[1]], twice)}")
        return "{" + ", ".join(items) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_dumps(v, twice) for v in node) + "]"
    return json.dumps(node)


def _respelled(value, rng: random.Random):
    """``value`` in a spelling no writer uses: a string padded or upper-cased, an
    integer as a float, a bool or a string, a bool as an integer."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return rng.choice([float(value), bool(value), str(value)])
    if value.upper() != value and rng.random() < 0.5:
        return value.upper()
    return rng.choice([" " + value, value + " "])


def mutated_document(text: str, seed: int) -> tuple[str, str]:
    """One seeded mutation of the written JSON document ``text``, and its name: a leaf
    re-spelled, a key written twice, an unknown key, or a key misspelled by a character
    dropped, doubled or replaced with "_" or "-", none of which leaves a hex address."""
    rng = random.Random(seed)
    doc = json.loads(text)
    nodes = list(_nodes(doc))
    objects = [node for _, node in nodes if isinstance(node, dict) and node]
    kind = rng.choice(["respelled", "twice", "unknown", "misspelled"])
    if kind == "respelled":
        path, value = rng.choice([(p, v) for p, v in nodes
                                  if p and not isinstance(v, (dict, list))])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = _respelled(value, rng)
        return json.dumps(doc), f"{kind} {'/'.join(map(str, path))}: {parent[path[-1]]!r}"
    target = rng.choice(objects)
    key = rng.choice(sorted(target))
    if kind == "twice":
        return _dumps(doc, (target, key)), f"{kind} {key}"
    if kind == "unknown":
        target["".join(rng.choices(string.ascii_lowercase, k=6)) + "_"] = target[key]
        return json.dumps(doc), kind
    i = rng.randrange(len(key))
    other = "-" if key[i] == "_" else "_"
    wrong = rng.choice([key[:i] + key[i + 1:], key[:i] + key[i] + key[i:],
                        key[:i] + other + key[i + 1:]])
    target[wrong] = target.pop(key)
    return json.dumps(doc), f"{kind} {key} as {wrong}"
