"""Simulator determinism, fault handling, and metrics accounting."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytower import sim, vdf
from delaytower.ledger import EpochConfig, LedgerState
from delaytower.serialization import encode_bytes, encode_uint
from delaytower.signing import KeyedHashScheme
from delaytower.sim import (
    NEVER_RECOVERED,
    Behavior,
    BehaviorKind,
    InvalidScenario,
    RealVdf,
    Scenario,
    nakamoto_liveness,
    recovery_time,
)

from test_acceptance import random_scenario


def addr(name: str) -> bytes:
    return name.encode()


def build_scenario(
    *,
    seed: int = 1,
    epochs: int = 3,
    rounds: int = 12,
    validators: int = 6,
    crashed: int = 0,
    silent: int = 0,
    sign_probability: Fraction = Fraction(1, 2),
    spares: int = 0,
    mining: int = 30,
    spare_mining: int = 30,
    max_validators: int = 10,
) -> Scenario:
    population = []
    for i in range(validators):
        if i < crashed:
            behavior = Behavior.crashed(0, mining=mining)
        elif i < crashed + silent:
            behavior = Behavior.silent(sign_probability, mining=mining)
        else:
            behavior = Behavior.honest(mining=mining)
        population.append((addr(f"val-{i:02d}"), behavior))
    for i in range(spares):
        population.append((addr(f"spare-{i:02d}"), Behavior.honest(mining=spare_mining)))
    return Scenario(
        seed=seed,
        epochs=epochs,
        population=tuple(population),
        genesis_validators=tuple(addr(f"val-{i:02d}") for i in range(validators)),
        epoch_config=EpochConfig(rounds_per_epoch=rounds, max_validators=max_validators),
    )


class TestValidation:
    def test_too_few_genesis_validators(self):
        scenario = build_scenario(validators=6)
        bad = Scenario(
            seed=1, epochs=1, population=scenario.population,
            genesis_validators=scenario.genesis_validators[:3],
            epoch_config=scenario.epoch_config)
        with pytest.raises(InvalidScenario):
            sim.run(bad)

    def test_unknown_genesis_validator(self):
        scenario = build_scenario()
        bad = Scenario(
            seed=1, epochs=1, population=scenario.population,
            genesis_validators=scenario.genesis_validators[:3] + (addr("ghost"),),
            epoch_config=scenario.epoch_config)
        with pytest.raises(InvalidScenario):
            sim.run(bad)

    def test_duplicate_addresses(self):
        scenario = build_scenario()
        bad = Scenario(
            seed=1, epochs=1,
            population=scenario.population + (scenario.population[0],),
            genesis_validators=scenario.genesis_validators,
            epoch_config=scenario.epoch_config)
        with pytest.raises(InvalidScenario):
            sim.run(bad)

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            Behavior.silent(Fraction(3, 2))

    @pytest.mark.parametrize("make, message", [
        (lambda: RealVdf(0), "proofs_per_epoch must be positive"),
        (lambda: Behavior(from_round=-1), "from_round must be non-negative"),
        (lambda: Behavior(mining=-1), "mining rate must be non-negative"),
    ], ids=["real-vdf-no-proofs", "negative-from-round", "negative-mining"])
    def test_bad_behavior_rejected(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("kind, name, value", [
        (BehaviorKind.HONEST, "from_round", 5),
        (BehaviorKind.CRASHED, "sign_probability", Fraction(1, 2)),
        (BehaviorKind.SILENT, "from_round", 4),
    ], ids=["honest-from-round", "crashed-sign-probability", "silent-from-round"])
    def test_field_the_kind_ignores_rejected(self, kind, name, value):
        # scenario_to_json writes only the kind's CONDUCT_KEYS, so such a field
        # would not read back.
        with pytest.raises(ValueError, match=f"^{kind.value} behavior ignores {name}$"):
            Behavior(kind=kind, **{name: value})

    def test_seed_out_of_range(self):
        scenario = build_scenario()
        bad = Scenario(
            seed=1 << 64, epochs=1, population=scenario.population,
            genesis_validators=scenario.genesis_validators,
            epoch_config=scenario.epoch_config)
        with pytest.raises(InvalidScenario):
            sim.run(bad)


class TestHealthyRuns:
    def test_all_honest_commits_every_round(self):
        metrics = sim.run(build_scenario(validators=4, epochs=3, rounds=10))
        assert metrics.total_commits == 30
        assert metrics.total_timeouts == 0
        assert recovery_time(metrics) == 0

    def test_accounting_identity(self):
        for seed in range(5):
            scenario = build_scenario(seed=seed, crashed=1, silent=2, validators=8)
            metrics = sim.run(scenario)
            for record in metrics.epochs:
                assert record.committed_blocks + record.timeouts == \
                    scenario.epoch_config.rounds_per_epoch

    def test_validator_history_recorded(self):
        metrics = sim.run(build_scenario(validators=6, spares=4, epochs=3))
        assert all(len(r.validator_set) >= 4 for r in metrics.epochs)
        assert all(r.nakamoto_liveness == (len(r.validator_set) - 1) // 3
                   for r in metrics.epochs)


class TestDeterminism:
    def test_identical_scenarios_identical_bytes(self):
        scenario = build_scenario(crashed=1, silent=2, validators=9, spares=3,
                                  epochs=4)
        a = sim.run(scenario)
        b = sim.run(scenario)
        assert a.to_csv() == b.to_csv()
        assert a.to_summary_json() == b.to_summary_json()

    def test_different_seed_changes_silent_draws(self):
        base = build_scenario(silent=4, validators=8, epochs=2, seed=10)
        other = build_scenario(silent=4, validators=8, epochs=2, seed=11)
        assert sim.run(base).to_csv() != sim.run(other).to_csv()


class TestFaults:
    def test_crash_minority_recovers_in_one_epoch(self):
        scenario = build_scenario(validators=10, crashed=3, spares=20,
                                  epochs=4, rounds=20, max_validators=10)
        metrics = sim.run(scenario)
        first = metrics.epochs[0]
        assert first.timeouts > 0
        assert sorted(first.jailed) == [addr(f"val-{i:02d}") for i in range(3)]
        for record in metrics.epochs[1:]:
            assert record.timeouts == 0
            assert len(record.validator_set) == 10
        assert recovery_time(metrics) == 1

    def test_crashed_minority_keeps_quorum(self):
        # 3 of 10 crashed: live leaders still reach the 7-signature quorum.
        scenario = build_scenario(validators=10, crashed=3, epochs=1, rounds=20)
        metrics = sim.run(scenario)
        record = metrics.epochs[0]
        assert record.committed_blocks == 14  # 20 rounds minus 6 crashed-leader slots
        assert record.timeouts == 6

    def test_crash_majority_never_commits(self):
        scenario = build_scenario(validators=10, crashed=4, mining=30,
                                  spare_mining=0, epochs=3, rounds=15)
        scenario = Scenario(
            seed=scenario.seed, epochs=scenario.epochs,
            population=tuple(
                (a, Behavior.honest(mining=0) if b.kind is sim.BehaviorKind.HONEST else b)
                for a, b in scenario.population),
            genesis_validators=scenario.genesis_validators,
            epoch_config=scenario.epoch_config)
        metrics = sim.run(scenario)
        assert metrics.total_commits == 0
        assert recovery_time(metrics) is NEVER_RECOVERED

    def test_liveness_preserved_under_fault_bound(self):
        # any crash count within floor((n-1)/3) leaves every epoch productive
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randrange(4, 13)
            crashed = rng.randrange(0, nakamoto_liveness(n) + 1)
            scenario = build_scenario(seed=rng.randrange(1 << 32), validators=n,
                                      crashed=crashed, epochs=3, rounds=2 * n)
            metrics = sim.run(scenario)
            for record in metrics.epochs:
                assert record.committed_blocks >= 1, \
                    f"n={n} crashed={crashed} epoch {record.epoch} stalled"

    def test_crashed_jailed_validators_stay_out(self):
        scenario = build_scenario(validators=10, crashed=3, spares=20,
                                  epochs=5, rounds=20)
        metrics = sim.run(scenario)
        crashed = {addr(f"val-{i:02d}") for i in range(3)}
        for record in metrics.epochs[1:]:
            assert not crashed & set(record.validator_set)

    def test_fully_silent_validators_jailed_then_clean(self):
        scenario = build_scenario(validators=8, silent=2,
                                  sign_probability=Fraction(0), epochs=2, rounds=16)
        metrics = sim.run(scenario)
        first, second = metrics.epochs
        assert first.timeouts >= 1  # silent leaders cost their slots
        assert first.committed_blocks >= 1  # 6 of 8 still reaches quorum
        assert set(first.jailed) == {addr("val-00"), addr("val-01")}
        assert second.timeouts == 0
        assert not {addr("val-00"), addr("val-01")} & set(second.validator_set)


class TestRealVdf:
    def test_real_miner_grows_on_chain(self):
        population = tuple(
            [(addr(f"val-{i}"), Behavior.honest(mining=30)) for i in range(4)]
            + [(addr("real"), Behavior(mining=RealVdf(proofs_per_epoch=2)))]
        )
        scenario = Scenario(
            seed=3, epochs=2,
            population=population,
            genesis_validators=tuple(addr(f"val-{i}") for i in range(4)),
            epoch_config=EpochConfig(rounds_per_epoch=4, max_validators=6),
            security=vdf.SecurityParams(modulus_bits=256, iterations=16),
        )

        heights = []
        def observe(phase, epoch, state):
            if phase == "pre-boundary":
                heights.append(state.miner_pool[addr("real")].height)

        metrics = sim.run(scenario, observer=observe)
        assert heights == [3, 5]  # registration proof plus two per epoch
        assert metrics.total_commits == 8

    def test_crashed_real_miner_mines_nothing(self):
        # Crashed from round 4: it still mines at the first boundary, round 4, not after.
        population = tuple(
            [(addr(f"val-{i}"), Behavior.honest(mining=30)) for i in range(4)]
            + [(addr("real"), Behavior.crashed(4, mining=RealVdf(proofs_per_epoch=2)))]
        )
        scenario = Scenario(
            seed=3, epochs=3,
            population=population,
            genesis_validators=tuple(addr(f"val-{i}") for i in range(4)),
            epoch_config=EpochConfig(rounds_per_epoch=4, max_validators=6),
            security=vdf.SecurityParams(modulus_bits=256, iterations=16),
        )

        heights = []
        def observe(phase, epoch, state):
            if phase == "pre-boundary":
                heights.append(state.miner_pool[addr("real")].height)

        sim.run(scenario, observer=observe)
        assert heights == [3, 3, 3]


PROBABILITIES = [Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2),
                 Fraction(57, 100), Fraction(2, 3), Fraction(1)]


class TestSignBound:
    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_float_comparison_matches_fraction(self, p):
        bound = sim._sign_bound(p)
        nearest = float(p)
        draws = [v for v in (math.nextafter(nearest, -math.inf), nearest,
                             math.nextafter(nearest, math.inf)) if 0 <= v < 1]
        assert draws
        for v in draws:
            assert (v < bound) == (v < p), (p, v)

    @pytest.mark.parametrize("p", PROBABILITIES + [Fraction(1, 2**70), 1 - Fraction(1, 2**53)])
    def test_byte_cut_matches_float_comparison(self, p):
        bound = sim._sign_bound(p)
        cut = sim._sign_cut(bound)
        n0 = int.from_bytes(cut, "big")
        assert len(cut) == 8
        for n in (0, n0 - 1, n0, n0 + 1, 2**64 - 1):  # the edge, and both ends of the range
            if 0 <= n < 2**64:
                assert (n.to_bytes(8, "big") < cut) == (n / 2**64 < bound), (p, n)

    @settings(deadline=None, max_examples=200)
    @given(p=st.fractions(0, 1), n=st.integers(0, 2**64 - 1))
    def test_byte_cut_matches_anywhere(self, p, n):
        bound = sim._sign_bound(p)
        assert (n.to_bytes(8, "big") < sim._sign_cut(bound)) == (n / 2**64 < bound)


def reference_draw(seed: int, epoch: int, round_index: int, address: bytes) -> float:
    """One silent-signer draw, hashed from scratch."""
    material = (b"delay-tower/sim-draw/v1" + encode_uint(seed, 8) + encode_uint(epoch, 8)
                + encode_uint(round_index, 8) + encode_bytes(address))
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big") / 2**64


U64 = st.integers(0, 2**64 - 1)
MEMBERS = st.lists(st.binary(max_size=40), max_size=9, unique=True)


class TestDraws:
    @settings(deadline=None, max_examples=100)
    @given(seed=U64, epoch=U64, rounds=st.integers(1, 6), members=MEMBERS, data=st.data())
    def test_hoisted_prefix_matches_reference(self, seed, epoch, rounds, members, data):
        """Each round's set equals one built from draws hashed from scratch."""
        always, until, silent = members[:3], members[3:5], members[5:]
        stops = [data.draw(st.integers(0, rounds + 1)) for _ in until]
        probabilities = [data.draw(st.sampled_from(PROBABILITIES) | st.fractions(0, 1))
                         for _ in silent]
        bounds = [sim._sign_bound(p) for p in probabilities]
        produced = list(sim._epoch_signers(
            seed, epoch, rounds, frozenset(always), list(zip(until, stops)),
            [(a, sim._sign_cut(bound)) for a, bound in zip(silent, bounds)]))
        assert produced == [
            set(always) | {a for a, stop in zip(until, stops) if round_index < stop}
            | {a for a, bound in zip(silent, bounds)
               if reference_draw(seed, epoch, round_index, a) < bound}
            for round_index in range(rounds)]
        assert all(type(signers) is frozenset for signers in produced)
        # Equal sets within an epoch are one object.
        assert len({id(signers) for signers in produced}) == len(set(produced))


ADDRESSES = st.lists(st.binary(min_size=1, max_size=4), max_size=5, unique=True).map(tuple)
# Signature counts never exceed the committed blocks, and an epoch with no
# committed blocks carries none.
RECORDS = st.integers(0, 10 ** 6).flatmap(lambda blocks: st.builds(
    sim.EpochRecord,
    epoch=st.integers(0, 10 ** 6),
    committed_blocks=st.just(blocks),
    timeouts=st.integers(0, 2),
    validator_set=ADDRESSES,
    jailed=ADDRESSES,
    released=ADDRESSES,
    liveliness=st.dictionaries(st.binary(min_size=1, max_size=4), st.integers(0, blocks),
                               max_size=6 if blocks else 0),
    nakamoto_liveness=st.integers(0, 10 ** 6),
    reconfiguration_skipped=st.booleans(),
))


class TestMetricsApi:
    def test_nakamoto_values(self):
        assert nakamoto_liveness(100) == 33
        assert nakamoto_liveness(4) == 1
        assert nakamoto_liveness(7) == 2
        with pytest.raises(ValueError):
            nakamoto_liveness(3)

    def test_recovery_never_sentinel_repr(self):
        assert repr(NEVER_RECOVERED) == "NEVER_RECOVERED"

    def test_csv_shape(self):
        scenario = build_scenario(epochs=3)
        text = sim.run(scenario).to_csv()
        lines = text.strip().split("\n")
        assert lines[0].startswith("epoch,committed_blocks,timeouts,")
        assert len(lines) == 4

    @settings(max_examples=200, deadline=None)
    @given(metrics=st.builds(sim.SimMetrics, epochs=st.lists(RECORDS, max_size=4).map(tuple),
                             total_commits=st.integers(0, 10 ** 6),
                             total_timeouts=st.integers(0, 10 ** 6)))
    def test_summary_json_is_indented_json_dumps(self, metrics):
        assert metrics.to_summary_json() == json.dumps(
            summary_doc(metrics), sort_keys=True, indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(record=RECORDS)
    def test_csv_mean_is_the_fraction_mean(self, record):
        metrics = sim.SimMetrics(epochs=(record,), total_commits=0, total_timeouts=0)
        mean_text = metrics.to_csv().split("\n")[1].rsplit(",", 1)[1]
        shares = [Fraction(n, record.committed_blocks) for n in record.liveliness.values()]
        assert mean_text == (f"{float(sum(shares, Fraction(0)) / len(shares)):.6f}"
                             if shares else "")


def summary_doc(metrics: sim.SimMetrics) -> dict:
    """The document ``to_summary_json`` lays out."""
    recovery = recovery_time(metrics)
    return {
        "epochs": [
            {
                "epoch": rec.epoch,
                "committed_blocks": rec.committed_blocks,
                "timeouts": rec.timeouts,
                "validator_set": [a.hex() for a in rec.validator_set],
                "jailed": [a.hex() for a in rec.jailed],
                "released": [a.hex() for a in rec.released],
                "liveliness": {a.hex(): str(Fraction(n, rec.committed_blocks))
                               for a, n in rec.liveliness.items()},
                "nakamoto_liveness": rec.nakamoto_liveness,
                "reconfiguration_skipped": rec.reconfiguration_skipped,
            }
            for rec in metrics.epochs
        ],
        "total_commits": metrics.total_commits,
        "total_timeouts": metrics.total_timeouts,
        "recovery_epochs": "never" if recovery is NEVER_RECOVERED else recovery,
    }


def scenario_doc() -> dict:
    return json.loads(sim.scenario_to_json(build_scenario()))


def _with_first(doc: dict, **fields) -> dict:
    first = {**doc["population"][0], **fields}
    return {**doc, "population": [first] + doc["population"][1:]}


def _spaced(address: str) -> str:
    return address[:2] + " " + address[2:]


def _respelled_first(doc: dict, respell) -> dict:
    return _with_first(doc, address=respell(doc["population"][0]["address"]))


def _respelled_genesis(doc: dict, respell) -> dict:
    return {**doc, "genesis_validators": [respell(a) for a in doc["genesis_validators"]]}


HALF_RESPELLED = {"unreduced": "2/4", "padded": " 1/2 ", "plus-sign": "+1/2",
                  "underscore": "1_0/20", "arabic-indic-digit": "\u0661/2", "decimal": "0.5"}

MALFORMED_SCENARIOS = {
    "top-level-list": lambda doc: [doc],
    "epoch-config-list": lambda doc: {**doc, "epoch_config": [1]},
    "behavior-string": lambda doc: _with_first(doc, behavior="honest"),
    "security-string": lambda doc: {**doc, "security": "x"},
    "seed-string": lambda doc: {**doc, "seed": "1"},
    "config-float": lambda doc: {**doc, "epoch_config": {"max_validators": 10.5}},
    "seed-float": lambda doc: {**doc, "seed": 1.5},
    "epochs-float": lambda doc: {**doc, "epochs": 2.5},
    "epochs-zero": lambda doc: {**doc, "epochs": 0},
    # A top-level rounds_per_epoch equal to epoch_config's in value, but no JSON integer.
    "rounds-per-epoch-float": lambda doc: {
        **doc, "rounds_per_epoch": float(doc["epoch_config"]["rounds_per_epoch"])},
    "rounds-per-epoch-boolean": lambda doc: {
        **doc, "epoch_config": {**doc["epoch_config"], "rounds_per_epoch": 1},
        "rounds_per_epoch": True},
    "from-round-float": lambda doc: _with_first(
        doc, behavior={"kind": "crashed", "from_round": 2.5}),
    "mining-rate-string": lambda doc: _with_first(doc, mining_rate="48"),
    "mining-rate-float": lambda doc: _with_first(doc, mining_rate=48.9),
    "mining-rate-not-real-vdf": lambda doc: _with_first(doc, mining_rate={"real_vdf": False}),
    # real_vdf is JSON true: another truthy value is no spelling the writer uses.
    "real-vdf-one": lambda doc: _with_first(doc, mining_rate={"real_vdf": 1}),
    "real-vdf-string": lambda doc: _with_first(doc, mining_rate={"real_vdf": "yes"}),
    "proofs-per-epoch-float": lambda doc: _with_first(
        doc, mining_rate={"real_vdf": True, "proofs_per_epoch": 1.5}),
    # 1e400 overflows to inf; json.loads reads the text 1e400 as inf too.
    "sign-probability-infinite": lambda doc: _with_first(
        doc, behavior={"kind": "silent", "sign_probability": 1e400}),
    "sign-probability-boolean": lambda doc: _with_first(
        doc, behavior={"kind": "silent", "sign_probability": True}),
    "genesis-validator-twice": lambda doc: {
        **doc, "genesis_validators": doc["genesis_validators"][:1] + doc["genesis_validators"]},
    # Renamed in the genesis list too, so only the empty address is wrong.
    "empty-address": lambda doc: {
        **_with_first(doc, address=""), "genesis_validators": [""] + doc["genesis_validators"][1:]},
    "prime-length": lambda doc: {
        **doc, "security": {**doc.get("security", {}), "prime_length_bits": 1024}},
    "iterations-not-power-of-two": lambda doc: {
        **doc, "security": {**doc.get("security", {}), "iterations": 1000}},
    "liveliness-threshold-boolean": lambda doc: {
        **doc, "epoch_config": {**doc["epoch_config"], "liveliness_threshold": False}},
    "liveliness-threshold-zero-denominator": lambda doc: {
        **doc, "epoch_config": {**doc["epoch_config"], "liveliness_threshold": "1/0"}},
    "sign-probability-zero-denominator": lambda doc: _with_first(
        doc, behavior={"kind": "silent", "sign_probability": "1/0"}),
    # Spellings of an address that scenario_to_json never writes.
    "address-uppercase": lambda doc: _respelled_first(doc, str.upper),
    "genesis-validator-uppercase": lambda doc: _respelled_genesis(doc, str.upper),
    "address-inner-space": lambda doc: _respelled_first(doc, _spaced),
    "genesis-validator-inner-space": lambda doc: _respelled_genesis(doc, _spaced),
    # A repeated key, given as text: json.loads would keep the last one silently.
    "seed-twice": lambda doc: '{"seed": 1, ' + json.dumps(doc)[1:],
    "mining-rate-twice": lambda doc: json.dumps(doc).replace(
        '"mining_rate": ', '"mining_rate": 1, "mining_rate": ', 1),
    # Keys no reader knows: a misspelled one would silently take its default.
    "population-misspelled-key": lambda doc: _with_first(
        doc, mining_rte=doc["population"][0].pop("mining_rate")),
    "epoch-config-misspelled-key": lambda doc: {
        **doc, "epoch_config": {**doc["epoch_config"], "max_validatorz": 10}},
    "top-level-misspelled-key": lambda doc: {**doc, "sede": 1},
    "security-unknown-key": lambda doc: {
        **doc, "security": {**doc.get("security", {}), "modulus_bitz": 256}},
    "behavior-unknown-key": lambda doc: _with_first(
        doc, behavior={"kind": "crashed", "from_rund": 2}),
    # A conduct key the kind ignores would be read and then silently dropped.
    "honest-from-round": lambda doc: _with_first(
        doc, behavior={"kind": "honest", "from_round": 7}),
    "honest-sign-probability": lambda doc: _with_first(
        doc, behavior={"kind": "honest", "sign_probability": "1/3"}),
    "crashed-sign-probability": lambda doc: _with_first(
        doc, behavior={"kind": "crashed", "from_round": 7, "sign_probability": "1/3"}),
    "silent-from-round": lambda doc: _with_first(
        doc, behavior={"kind": "silent", "sign_probability": "1/3", "from_round": 7}),
    "mining-rate-unknown-key": lambda doc: _with_first(
        doc, mining_rate={"real_vdf": True, "proofs_per_epoc": 2}),
    # Spellings of 1/2 that scenario_to_json never writes, though Fraction reads each.
    **{f"sign-probability-{name}": lambda doc, half=half: _with_first(
        doc, behavior={"kind": "silent", "sign_probability": half})
       for name, half in HALF_RESPELLED.items()},
    **{f"liveliness-threshold-{name}": lambda doc, half=half: {
        **doc, "epoch_config": {**doc["epoch_config"], "liveliness_threshold": half}}
       for name, half in HALF_RESPELLED.items()},
}


class TestScenarioJson:
    def test_roundtrip(self):
        scenario = build_scenario(crashed=1, silent=1, spares=2)
        text = sim.scenario_to_json(scenario)
        back = sim.scenario_from_json(text)
        assert sim.run(back).to_summary_json() == sim.run(scenario).to_summary_json()

    def test_float_sign_probability_roundtrip(self):
        # Behavior holds a float probability as its exact Fraction, as EpochConfig
        # holds its threshold, so the scenario writes the one spelling that reads back.
        scenario = build_scenario(silent=1)
        silent = Behavior(kind=BehaviorKind.SILENT, sign_probability=0.9, mining=30)
        scenario = dataclasses.replace(scenario, population=(
            (scenario.population[0][0], silent),) + scenario.population[1:])
        text = sim.scenario_to_json(scenario)
        assert sim.scenario_from_json(text) == scenario
        assert sim.scenario_to_json(sim.scenario_from_json(text)) == text

    def test_float_is_its_exact_value_on_every_path(self):
        # 0.9 given to a config or behavior, and 0.9 in a document, are both
        # 8106479329266893/2^53, not 9/10.
        doc = _with_first(scenario_doc(), behavior={"kind": "silent", "sign_probability": 0.9})
        doc["epoch_config"]["liveliness_threshold"] = 0.9
        parsed = sim.scenario_from_json(json.dumps(doc))
        assert parsed.epoch_config.liveliness_threshold == Fraction(0.9) != Fraction(9, 10)
        assert parsed.epoch_config == EpochConfig(rounds_per_epoch=12, max_validators=10,
                                                  liveliness_threshold=0.9)
        assert parsed.population[0][1].sign_probability == Fraction(0.9)
        assert parsed.population[0][1] == Behavior.silent(0.9, mining=30) == Behavior(
            kind=BehaviorKind.SILENT, sign_probability=0.9, mining=30)

    def test_real_vdf_roundtrip(self):
        population = tuple(
            [(addr(f"v{i}"), Behavior.honest(mining=30)) for i in range(4)]
            + [(addr("real"), Behavior(mining=RealVdf(proofs_per_epoch=1)))]
        )
        scenario = Scenario(
            seed=3, epochs=1, population=population,
            genesis_validators=tuple(addr(f"v{i}") for i in range(4)),
            epoch_config=EpochConfig(rounds_per_epoch=4, max_validators=6),
            security=vdf.SecurityParams(modulus_bits=256, iterations=16),
        )
        back = sim.scenario_from_json(sim.scenario_to_json(scenario))
        assert back == scenario

    def test_bad_document_raises_invalid_scenario(self):
        with pytest.raises(InvalidScenario):
            sim.scenario_from_json('{"seed": 1, "epochs": 2}')

    @pytest.mark.parametrize("text", ["{", '{"seed": 1,}', "[" * 100000],
                             ids=["unclosed", "trailing-comma", "nested-too-deep"])
    def test_malformed_json_raises_invalid_scenario(self, text):
        with pytest.raises(InvalidScenario) as caught:
            sim.scenario_from_json(text)
        assert isinstance(caught.value.__cause__, ValueError)  # json.JSONDecodeError is one

    @pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
    def test_malformed_shapes_raise_invalid_scenario(self, case):
        made = MALFORMED_SCENARIOS[case](scenario_doc())
        text = made if isinstance(made, str) else json.dumps(made)
        with pytest.raises(InvalidScenario):
            sim.scenario_from_json(text)

    @pytest.mark.parametrize("members", [
        [b"val-00", b"val-01", b"val-02"],
        [b"val-00", b"val-01", b"val-02", b"val-00"],
        [b"val-00", b"val-01", b"val-02", b"ghost"],
    ], ids=["three-members", "repeated-member", "unknown-member"])
    def test_ledger_and_scenario_refuse_the_same_validator_sets(self, members):
        scenario = build_scenario()
        state = LedgerState(scenario.security, scenario.epoch_config, KeyedHashScheme())
        for address, _ in scenario.population:
            state.bootstrap_miner(address)
        with pytest.raises(ValueError) as installed:
            state.install_validators(members)
        doc = {**scenario_doc(), "genesis_validators": [a.hex() for a in members]}
        with pytest.raises(InvalidScenario) as parsed:
            sim.scenario_from_json(json.dumps(doc))
        assert str(installed.value) in str(parsed.value)

    def test_top_level_rounds_must_match_epoch_config(self):
        doc = scenario_doc()
        doc["rounds_per_epoch"] = doc["epoch_config"]["rounds_per_epoch"] + 1
        with pytest.raises(InvalidScenario):
            sim.scenario_from_json(json.dumps(doc))
        del doc["epoch_config"]["rounds_per_epoch"]
        with pytest.raises(InvalidScenario):  # the default, 100, applies first
            sim.scenario_from_json(json.dumps(doc))
        doc["rounds_per_epoch"] = 100
        assert sim.scenario_from_json(json.dumps(doc)).epoch_config.rounds_per_epoch == 100
        assert "rounds_per_epoch" not in json.loads(sim.scenario_to_json(build_scenario()))

    def test_bundled_scenarios_parse_and_run(self):
        from importlib import resources
        for name in ("healthy-100", "crash-minority", "crash-majority"):
            text = resources.files("delaytower").joinpath(
                "scenarios").joinpath(f"{name}.json").read_text()
            scenario = sim.scenario_from_json(text)
            metrics = sim.run(scenario)
            assert len(metrics.epochs) == scenario.epochs


def _edge_scenarios() -> list[Scenario]:
    """Crashes on and around epoch edges, a silent leader, and boundary probabilities."""
    rounds = 10
    crashes = [Behavior.crashed(r, mining=30) for r in (0, 10, 19, 29, 40, 45, 60)]
    scenarios = []
    for seed, faults in enumerate(
            [crashes[:3], crashes[3:]]
            + [[Behavior.silent(p, mining=30)] * 2
               for p in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3),
                         Fraction(57, 100))]
            + [[Behavior.silent(Fraction(1, 3), mining=30),
                Behavior.crashed(2 * rounds - 1, mining=30)]]):
        # faulty nodes open the genesis set, so in epoch 0 they lead rounds 0, 1, ...
        behaviors = faults + [Behavior.honest(mining=30)] * (7 - len(faults))
        population = tuple((addr(f"val-{i:02d}"), b) for i, b in enumerate(behaviors)) \
            + tuple((addr(f"spare-{i:02d}"), Behavior.honest(mining=40)) for i in range(3))
        scenarios.append(Scenario(
            seed=1000 + seed, epochs=5, population=population,
            genesis_validators=tuple(a for a, _ in population[:7]),
            epoch_config=EpochConfig(rounds_per_epoch=rounds, max_validators=8)))
    return scenarios


def outputs_digest(scenarios) -> str:
    """SHA-256 over each run's CSV, summary and every post-boundary snapshot."""
    digest = hashlib.sha256()

    def observe(phase, epoch, state):
        if phase == "post-boundary":
            digest.update(state.export_snapshot().encode())

    for scenario in scenarios:
        metrics = sim.run(scenario, observer=observe)
        digest.update(metrics.to_csv().encode())
        digest.update(metrics.to_summary_json().encode())
    return digest.hexdigest()


def no_repeat_scenario() -> Scenario:
    """130 validators, 60 of them silent at 1/2, liveliness threshold 0: each round
    draws one of 2^60 equally likely signer sets, so no two of its 2 000 rounds share
    one and every committed block is a new entry in the ledger's tally."""
    population = tuple(
        (addr(f"n-{i:03d}"), Behavior.silent(Fraction(1, 2), mining=30) if i < 60
         else Behavior.honest(mining=30))
        for i in range(130))
    return Scenario(seed=27, epochs=20, population=population,
                    genesis_validators=tuple(a for a, _ in population),
                    epoch_config=EpochConfig(rounds_per_epoch=100, max_validators=130,
                                             liveliness_threshold=Fraction(0)))


class TestOutputsPinned:
    """Who signs each round follows from the draws alone, so these bytes must not move."""

    def test_no_repeat_scenario_pinned(self):
        metrics = sim.run(no_repeat_scenario())
        assert (metrics.total_commits, metrics.total_timeouts) == (1383, 617)
        assert hashlib.sha256(metrics.to_summary_json().encode()).hexdigest() == \
            "ca7aa5e079d20378537d918fa51fab51b7e5d4e6a4313a6b6074c2f9a2a43c63"
        assert hashlib.sha256(metrics.to_csv().encode()).hexdigest() == \
            "a56ac3724428b02573c587b6600c67ba6e550ed03ea46c335c0e762e5cca3517"

    def test_random_scenarios_pinned(self):
        assert outputs_digest(random_scenario(seed) for seed in range(100)) == \
            "9c115df204d791ea5f9b9698bc6f0c8158bae182d6eab2faf2ab036d29c19d43"

    def test_edge_scenarios_pinned(self):
        assert outputs_digest(_edge_scenarios()) == \
            "cdc09c12eeca69c0186687c0694b0d8979eabd93749d72e498cecedbdf287cb2"
