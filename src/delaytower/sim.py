"""Deterministic round-based network harness over the ledger.

Each round one validator proposes: a dead or silent leader costs the round
(timeout), otherwise the round commits iff the signatures collected from the
validator set reach quorum. Epoch boundaries apply mining results and run the
reconfiguration pipeline. All randomness comes from a counter-style generator
keyed by (seed, epoch, round, address), so two runs of one scenario produce
byte-identical metrics regardless of scheduling.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

from . import tower, vdf
from .ledger import (MIN_VALIDATORS, EpochConfig, LedgerState, check_validator_set,
                     registration_message, submission_message)
from .reconfig import advance_epoch
from .signing import KeyedHashScheme
from .serialization import (LEGACY_KEYS, as_written, encode_bytes, encode_uint, json_int,
                            known_keys, load_json, nested_block, parse_rational)

_DOMAIN_DRAW = b"delay-tower/sim-draw/v1"

_U64 = 1 << 64


class InvalidScenario(ValueError):
    """Scenario fails validation before the run starts."""


class _NeverRecovered:
    def __repr__(self) -> str:
        return "NEVER_RECOVERED"


NEVER_RECOVERED = _NeverRecovered()


class BehaviorKind(Enum):
    HONEST = "honest"
    CRASHED = "crashed"
    SILENT = "silent"


# The conduct keys besides "kind" that each kind reads: scenario_to_json writes
# them, and _parse_behavior refuses any other.
CONDUCT_KEYS = {BehaviorKind.HONEST: (), BehaviorKind.CRASHED: ("from_round",),
                BehaviorKind.SILENT: ("sign_probability",)}


@dataclass(frozen=True)
class RealVdf:
    """Mining marker: actually build a tower at desk scale instead of simulating."""

    proofs_per_epoch: int = 1

    def __post_init__(self):
        if self.proofs_per_epoch < 1:
            raise ValueError("proofs_per_epoch must be positive")


@dataclass(frozen=True)
class Behavior:
    """Consensus conduct plus mining output for one node."""

    kind: BehaviorKind = BehaviorKind.HONEST
    from_round: int = 0
    sign_probability: Fraction = Fraction(1)
    mining: Union[int, RealVdf] = 0

    def __post_init__(self):
        if not 0 <= self.sign_probability <= 1:
            raise ValueError("sign_probability must lie in [0, 1]")
        # Held exact, as EpochConfig holds its threshold: a float's text reads back to it.
        object.__setattr__(self, "sign_probability", Fraction(self.sign_probability))
        if self.from_round < 0:
            raise ValueError("from_round must be non-negative")
        if isinstance(self.mining, int) and self.mining < 0:
            raise ValueError("mining rate must be non-negative")
        for name in ("from_round", "sign_probability"):  # scenario_to_json drops the rest
            if getattr(self, name) != getattr(Behavior, name) and \
                    name not in CONDUCT_KEYS[self.kind]:
                raise ValueError(f"{self.kind.value} behavior ignores {name}")

    @classmethod
    def honest(cls, mining: Union[int, RealVdf] = 0) -> "Behavior":
        return cls(kind=BehaviorKind.HONEST, mining=mining)

    @classmethod
    def crashed(cls, from_round: int = 0, mining: Union[int, RealVdf] = 0) -> "Behavior":
        return cls(kind=BehaviorKind.CRASHED, from_round=from_round, mining=mining)

    @classmethod
    def silent(cls, sign_probability: Fraction,
               mining: Union[int, RealVdf] = 0) -> "Behavior":
        return cls(kind=BehaviorKind.SILENT, sign_probability=sign_probability, mining=mining)


@dataclass(frozen=True)
class Scenario:
    seed: int
    epochs: int
    population: tuple[tuple[bytes, Behavior], ...]
    genesis_validators: tuple[bytes, ...]
    epoch_config: EpochConfig = EpochConfig()
    security: vdf.SecurityParams = vdf.SecurityParams(modulus_bits=512, iterations=16)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    committed_blocks: int
    timeouts: int
    validator_set: tuple[bytes, ...]
    jailed: tuple[bytes, ...]
    released: tuple[bytes, ...]
    liveliness: dict[bytes, int]  # blocks each validator signed, of committed_blocks
    nakamoto_liveness: int
    reconfiguration_skipped: bool


@dataclass(frozen=True)
class SimMetrics:
    epochs: tuple[EpochRecord, ...]
    total_commits: int
    total_timeouts: int

    def to_csv(self) -> str:
        """One row per epoch; full address sets live in the summary document."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([
            "epoch", "committed_blocks", "timeouts", "validators", "jailed",
            "released", "reconfiguration_skipped", "nakamoto_liveness",
            "mean_liveliness",
        ])
        for rec in self.epochs:
            counts = rec.liveliness.values()
            # int / int rounds exactly as float(Fraction) does.
            mean_text = (f"{sum(counts) / (rec.committed_blocks * len(counts)):.6f}"
                         if counts else "")
            writer.writerow([
                rec.epoch, rec.committed_blocks, rec.timeouts,
                len(rec.validator_set), len(rec.jailed), len(rec.released),
                int(rec.reconfiguration_skipped), rec.nakamoto_liveness, mean_text,
            ])
        return buf.getvalue()

    def to_summary_json(self) -> str:
        """``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline, where
        ``doc`` holds every epoch record with addresses in hex and liveliness as
        fraction strings, the two totals and ``recovery_epochs`` (a count or
        "never").

        The fixed layout is written by hand because an indented ``json.dumps``
        runs the pure-Python encoder. Hex, fraction and number text needs no
        escaping. The 1.3 MB summary of a 200-epoch rotation takes 26-35 ms; a
        generic writer with C-encoded leaves took 89-95 ms.
        """
        recovery = recovery_time(self)
        epochs = [
            "    {\n"
            f'      "committed_blocks": {rec.committed_blocks},\n'
            f'      "epoch": {rec.epoch},\n'
            f'      "jailed": {_hex_list(rec.jailed)},\n'
            f'      "liveliness": {_liveliness_object(rec.liveliness, rec.committed_blocks)},\n'
            f'      "nakamoto_liveness": {rec.nakamoto_liveness},\n'
            f'      "reconfiguration_skipped": {str(rec.reconfiguration_skipped).lower()},\n'
            f'      "released": {_hex_list(rec.released)},\n'
            f'      "timeouts": {rec.timeouts},\n'
            f'      "validator_set": {_hex_list(rec.validator_set)}\n'
            "    }"
            for rec in self.epochs
        ]
        recovery_text = '"never"' if recovery is NEVER_RECOVERED else recovery
        return (
            "{\n"
            f'  "epochs": {nested_block("[]", epochs)},\n'
            f'  "recovery_epochs": {recovery_text},\n'
            f'  "total_commits": {self.total_commits},\n'
            f'  "total_timeouts": {self.total_timeouts}\n'
            "}\n"
        )


def _hex_list(addresses: tuple[bytes, ...]) -> str:
    """A third-level JSON list of hex addresses as indent-2 ``json.dumps`` lays it out."""
    return nested_block("[]", [f'        "{a.hex()}"' for a in addresses], 6)


def _liveliness_object(counts: dict[bytes, int], blocks: int) -> str:
    """A third-level JSON object of hex address -> "count/blocks" in lowest
    terms, keys sorted; one fraction string per distinct count."""
    shares = {n: str(Fraction(n, blocks)) for n in set(counts.values())}
    entries = sorted((a.hex(), shares[n]) for a, n in counts.items())
    return nested_block("{}", [f'        "{a}": "{share}"' for a, share in entries], 6)


def nakamoto_liveness(n: int) -> int:
    """Validators that must fail before liveness is at risk: floor((n-1)/3)."""
    if n < MIN_VALIDATORS:
        raise ValueError(f"validator sets smaller than {MIN_VALIDATORS} are unsupported, got {n}")
    return (n - 1) // 3


def recovery_time(metrics: SimMetrics) -> Union[int, _NeverRecovered]:
    """Epochs from the first timeout until the first clean epoch afterwards.

    A run with no timeouts anywhere recovers in zero epochs by definition.
    """
    onset = next((rec.epoch for rec in metrics.epochs if rec.timeouts > 0), None)
    if onset is None:
        return 0
    for rec in metrics.epochs:
        if rec.epoch >= onset and rec.timeouts == 0:
            return rec.epoch - onset
    return NEVER_RECOVERED


def _draw_prefix(seed: int, epoch: int) -> hashlib._Hash:
    """SHA-256 state over the part of the draw input shared by a whole epoch."""
    return hashlib.sha256(_DOMAIN_DRAW + encode_uint(seed, 8) + encode_uint(epoch, 8))


def _sign_bound(probability: Fraction) -> float:
    """Smallest float not below ``probability``: a float is below both or neither."""
    bound = float(probability)
    return math.nextafter(bound, math.inf) if bound < probability else bound


def _sign_cut(bound: float) -> bytes:
    """8-byte threshold on a draw's digest prefix: ``digest[:8] < cut`` exactly when
    ``int.from_bytes(digest[:8], "big") / 2**64 < bound``. The division rounds to the
    nearest float, so the smallest such integer is found by bisection; 2^64 - 1 reads
    as 1.0, below no bound."""
    low, high = 0, _U64 - 1
    while low < high:
        mid = (low + high) // 2
        if mid / _U64 < bound:
            low = mid + 1
        else:
            high = mid
    return low.to_bytes(8, "big")


def _epoch_signers(seed: int, epoch: int, rounds: int, always: frozenset[bytes],
                   until: list[tuple[bytes, int]],
                   silent: list[tuple[bytes, bytes]]) -> Iterator[frozenset[bytes]]:
    """Each round's signers, in round order: ``always``, each ``(address, stop)`` of
    ``until`` before round ``stop``, and each ``(address, cut)`` of ``silent`` whose
    draw falls below its ``_sign_cut``. A draw is the first 8 bytes of SHA-256 over the
    domain, seed, epoch, round and ``encode_bytes(address)``, independent of evaluation
    order. Equal sets within the epoch are one frozenset, so the ledger counts it once."""
    prefix = _draw_prefix(seed, epoch)
    silent = [(address, encode_bytes(address), cut) for address, cut in silent]
    sets: dict[tuple[bytes, ...], frozenset[bytes]] = {}
    for round_index in range(rounds):
        round_prefix = prefix.copy()
        round_prefix.update(encode_uint(round_index, 8))
        drawn = [address for address, stop in until if round_index < stop]
        for address, encoded, cut in silent:
            digest = round_prefix.copy()
            digest.update(encoded)
            if digest.digest()[:8] < cut:
                drawn.append(address)
        key = tuple(drawn)
        signers = sets.get(key)
        if signers is None:
            signers = sets[key] = always.union(drawn)
        yield signers


def _validate(scenario: Scenario) -> None:
    if not 0 <= scenario.seed < _U64:
        raise InvalidScenario("seed must fit in 64 bits")
    if scenario.epochs < 1:
        raise InvalidScenario("epochs must be positive")
    addresses = [address for address, _ in scenario.population]
    if b"" in addresses:
        raise InvalidScenario("population contains an empty address")
    if len(set(addresses)) != len(addresses):
        raise InvalidScenario("population contains duplicate addresses")
    try:
        check_validator_set(scenario.genesis_validators, set(addresses))
    except ValueError as exc:
        raise InvalidScenario(f"genesis {exc}") from exc


class _Node:
    def __init__(self, behavior: Behavior):
        self.behavior = behavior
        self.sign_cut = _sign_cut(_sign_bound(behavior.sign_probability))
        self.tower: Optional[tower.Tower] = None


def run(
    scenario: Scenario,
    *,
    observer: Optional[Callable[[str, int, LedgerState], None]] = None,
) -> SimMetrics:
    """Execute a scenario and collect per-epoch metrics.

    ``observer``, when given, is called with ("genesis", -1, state) once, then
    with ("pre-boundary", epoch, state) after mining lands and
    ("post-boundary", epoch, state) after reconfiguration, for test
    instrumentation. Observers must not mutate the state.
    """
    _validate(scenario)
    scheme = KeyedHashScheme()
    nodes = {address: _Node(behavior) for address, behavior in scenario.population}

    state = LedgerState(scenario.security, scenario.epoch_config, scheme)
    for address, node in nodes.items():
        if isinstance(node.behavior.mining, RealVdf):
            node.tower = tower.init_tower(scenario.security, address, b"sim")
            record = node.tower.records[0]
            signature = scheme.sign(
                address, registration_message(address, node.tower.params, record))
            state.register_miner(address, node.tower.params, record, signature)
        else:
            state.bootstrap_miner(address)
    state.install_validators(scenario.genesis_validators)

    rounds = scenario.epoch_config.rounds_per_epoch
    records: list[EpochRecord] = []
    total_commits = 0
    total_timeouts = 0

    if observer is not None:
        observer("genesis", -1, state)

    for epoch_index in range(scenario.epochs):
        committed = 0
        timeouts = 0
        validator_set = state.validator_set
        # The set is frozen for the epoch, so class its members once: they sign
        # every round, until their crash round, by draw, or (crashed) never.
        first = epoch_index * rounds
        always, until, silent = [], [], []
        for address in validator_set:
            node = nodes[address]
            if node.behavior.kind is BehaviorKind.SILENT:
                silent.append((address, node.sign_cut))
            elif (node.behavior.kind is BehaviorKind.HONEST
                  or node.behavior.from_round >= first + rounds):
                always.append(address)
            elif node.behavior.from_round > first:
                until.append((address, node.behavior.from_round - first))
        signer_sets = _epoch_signers(scenario.seed, epoch_index, rounds, frozenset(always),
                                     until, silent)
        for round_index, signers in enumerate(signer_sets):
            leader = validator_set[round_index % len(validator_set)]
            if leader in signers and state.record_block(signers):
                committed += 1
            else:
                timeouts += 1

        if committed:
            signed = state.epoch_signatures  # settled once per boundary
            liveliness = {a: signed[a] for a in validator_set}
        else:
            liveliness = {}
        _apply_mining(state, nodes, scheme, epoch_index, rounds)
        if observer is not None:
            observer("pre-boundary", epoch_index, state)
        summary = advance_epoch(state)
        if observer is not None:
            observer("post-boundary", epoch_index, state)
        records.append(EpochRecord(
            epoch=epoch_index,
            committed_blocks=committed,
            timeouts=timeouts,
            validator_set=validator_set,
            jailed=summary.jailed,
            released=summary.released,
            liveliness=liveliness,
            nakamoto_liveness=nakamoto_liveness(len(validator_set)),
            reconfiguration_skipped=summary.reconfiguration_skipped,
        ))
        total_commits += committed
        total_timeouts += timeouts

    return SimMetrics(epochs=tuple(records), total_commits=total_commits,
                      total_timeouts=total_timeouts)


def _parse_behavior(doc: dict) -> Behavior:
    known_keys(doc, "address", "behavior", "mining_rate")
    conduct = known_keys(doc.get("behavior", {}), "kind", *sum(CONDUCT_KEYS.values(), ()))
    kind = BehaviorKind(conduct.get("kind", "honest"))
    known_keys(conduct, "kind", *CONDUCT_KEYS[kind])  # a key this kind ignores is refused
    mining_doc = doc.get("mining_rate", 0)
    if isinstance(mining_doc, dict):
        if known_keys(mining_doc, "real_vdf", "proofs_per_epoch").get("real_vdf") is not True:
            raise InvalidScenario(f"unrecognised mining rate {mining_doc!r}")
        mining: Union[int, RealVdf] = RealVdf(proofs_per_epoch=json_int(
            "proofs_per_epoch", mining_doc.get("proofs_per_epoch", 1)))
    else:
        mining = json_int("mining_rate", mining_doc)
    return Behavior(
        kind=kind,
        from_round=json_int("from_round", conduct.get("from_round", 0)),
        sign_probability=parse_rational(conduct.get("sign_probability", 1)),
        mining=mining,
    )


def scenario_from_json(text: str) -> Scenario:
    """Parse the documented scenario schema; raises InvalidScenario on bad fields or
    malformed JSON, chained to the parser's error.

    A top-level ``rounds_per_epoch`` must equal the ``epoch_config`` value after
    defaults. Missing security keys take the values of ``Scenario.security``.
    A key the schema does not name is refused, in every object."""
    try:
        doc = known_keys(load_json(text), *Scenario.__dataclass_fields__, *LEGACY_KEYS["scenario"])
        epoch_config = EpochConfig.from_doc(doc.get("epoch_config", {}))
        rounds = epoch_config.rounds_per_epoch
        if json_int("rounds_per_epoch", doc.get("rounds_per_epoch", rounds)) != rounds:
            raise InvalidScenario(f"rounds_per_epoch {doc['rounds_per_epoch']!r} disagrees "
                                  f"with epoch_config.rounds_per_epoch {rounds}")
        security = vdf.SecurityParams.from_doc(
            {**Scenario.security.to_doc(), **doc.get("security", {})})
        population = tuple(
            (as_written(entry["address"]), _parse_behavior(entry))
            for entry in doc["population"]
        )
        scenario = Scenario(
            seed=json_int("seed", doc["seed"]),
            epochs=json_int("epochs", doc["epochs"]),
            population=population,
            genesis_validators=tuple(as_written(a) for a in doc["genesis_validators"]),
            epoch_config=epoch_config,
            security=security,
        )
        _validate(scenario)
    except InvalidScenario:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidScenario(f"bad scenario document: {exc}") from exc
    return scenario


def scenario_to_json(scenario: Scenario) -> str:
    """Serialize a scenario into the documented schema."""
    def entry_doc(address: bytes, behavior: Behavior) -> dict:
        conduct = {"from_round": behavior.from_round,
                   "sign_probability": str(behavior.sign_probability)}
        mining = behavior.mining
        if isinstance(mining, RealVdf):
            mining = {"real_vdf": True, "proofs_per_epoch": mining.proofs_per_epoch}
        return {"address": address.hex(),
                "behavior": {"kind": behavior.kind.value,
                             **{k: conduct[k] for k in CONDUCT_KEYS[behavior.kind]}},
                "mining_rate": mining}

    doc = {
        "seed": scenario.seed,
        "epochs": scenario.epochs,
        "epoch_config": scenario.epoch_config.to_doc(),
        "security": scenario.security.to_doc(),
        "population": [entry_doc(address, behavior) for address, behavior in scenario.population],
        "genesis_validators": [a.hex() for a in scenario.genesis_validators],
    }
    return json.dumps(doc, indent=2) + "\n"


def _apply_mining(state: LedgerState, nodes: dict[bytes, _Node],
                  scheme: KeyedHashScheme, epoch_index: int, rounds: int) -> None:
    """Credit each miner's links for the epoch at the boundary.

    A simulated miner is credited its rate capped at ``growth_cap``, so its height
    stops at the cap too, where the ledger raises height by every accepted link
    (ROADMAP item 2). Real miners ``tower.grow`` the epoch's proofs in one call and
    push each through the genuine submission path. Nodes crashed before the
    boundary mine nothing.
    """
    boundary_round = (epoch_index + 1) * rounds
    cap = state.epoch_config.growth_cap
    for address, node in nodes.items():
        crashed = (node.behavior.kind is BehaviorKind.CRASHED
                   and node.behavior.from_round < boundary_round)
        if isinstance(node.behavior.mining, RealVdf):
            if crashed:
                continue
            grown = tower.grow(node.tower, node.behavior.mining.proofs_per_epoch)
            for record in grown.records[node.tower.height:]:
                claimed = record.index + 1
                signature = scheme.sign(address, submission_message(address, claimed, record))
                if not state.submit_proof(address, claimed, record, signature):
                    raise RuntimeError("simulated real miner produced a rejected proof")
            node.tower = grown
        elif not crashed:
            state.credit(state.miner_pool[address], min(node.behavior.mining, cap))
