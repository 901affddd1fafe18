"""Simulator determinism, fault handling, and metrics accounting."""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytower import sim, vdf
from delaytower.ledger import EpochConfig
from delaytower.serialization import encode_bytes, encode_uint
from delaytower.sim import (
    NEVER_RECOVERED,
    Behavior,
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


class TestSignBound:
    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2),
                                   Fraction(57, 100), Fraction(2, 3), Fraction(1)])
    def test_float_comparison_matches_fraction(self, p):
        bound = sim._sign_bound(p)
        nearest = float(p)
        draws = [v for v in (math.nextafter(nearest, -math.inf), nearest,
                             math.nextafter(nearest, math.inf)) if 0 <= v < 1]
        assert draws
        for v in draws:
            assert (v < bound) == (v < p), (p, v)


def reference_draw(seed: int, epoch: int, round_index: int, address: bytes) -> float:
    """One silent-signer draw, hashed from scratch."""
    material = (b"delay-tower/sim-draw/v1" + encode_uint(seed, 8) + encode_uint(epoch, 8)
                + encode_uint(round_index, 8) + encode_bytes(address))
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big") / 2**64


U64 = st.integers(0, 2**64 - 1)


class TestDraws:
    @settings(deadline=None, max_examples=100)
    @given(seed=U64, epoch=U64, rounds=st.lists(U64, min_size=1, max_size=4),
           addresses=st.lists(st.binary(max_size=40), max_size=6))
    def test_hoisted_prefix_matches_reference(self, seed, epoch, rounds, addresses):
        prefix = sim._draw_prefix(seed, epoch)
        encoded = [encode_bytes(a) for a in addresses]
        for round_index in rounds:  # one prefix serves every round of its epoch
            assert sim._round_draws(prefix, round_index, encoded) == [
                reference_draw(seed, epoch, round_index, a) for a in addresses]


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


MALFORMED_SCENARIOS = {
    "top-level-list": lambda doc: [doc],
    "epoch-config-list": lambda doc: {**doc, "epoch_config": [1]},
    "behavior-string": lambda doc: _with_first(doc, behavior="honest"),
    "security-string": lambda doc: {**doc, "security": "x"},
    "seed-string": lambda doc: {**doc, "seed": "1"},
    "config-float": lambda doc: {**doc, "epoch_config": {"max_validators": 10.5}},
    "seed-float": lambda doc: {**doc, "seed": 1.5},
    "epochs-float": lambda doc: {**doc, "epochs": 2.5},
    "from-round-float": lambda doc: _with_first(
        doc, behavior={"kind": "crashed", "from_round": 2.5}),
    "mining-rate-string": lambda doc: _with_first(doc, mining_rate="48"),
    "mining-rate-float": lambda doc: _with_first(doc, mining_rate=48.9),
    "proofs-per-epoch-float": lambda doc: _with_first(
        doc, mining_rate={"real_vdf": True, "proofs_per_epoch": 1.5}),
    # 1e400 overflows to inf; json.loads reads the text 1e400 as inf too.
    "sign-probability-infinite": lambda doc: _with_first(
        doc, behavior={"kind": "silent", "sign_probability": 1e400}),
    "sign-probability-boolean": lambda doc: _with_first(
        doc, behavior={"kind": "silent", "sign_probability": True}),
    "genesis-validator-twice": lambda doc: {
        **doc, "genesis_validators": doc["genesis_validators"][:1] + doc["genesis_validators"]},
    "liveliness-threshold-boolean": lambda doc: {
        **doc, "epoch_config": {**doc["epoch_config"], "liveliness_threshold": False}},
}


class TestScenarioJson:
    def test_roundtrip(self):
        scenario = build_scenario(crashed=1, silent=1, spares=2)
        text = sim.scenario_to_json(scenario)
        back = sim.scenario_from_json(text)
        assert sim.run(back).to_summary_json() == sim.run(scenario).to_summary_json()

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

    @pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
    def test_malformed_shapes_raise_invalid_scenario(self, case):
        text = json.dumps(MALFORMED_SCENARIOS[case](scenario_doc()))
        with pytest.raises(InvalidScenario):
            sim.scenario_from_json(text)

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


class TestOutputsPinned:
    """Who signs each round follows from the draws alone, so these bytes must not move."""

    def test_random_scenarios_pinned(self):
        assert outputs_digest(random_scenario(seed) for seed in range(100)) == \
            "9c115df204d791ea5f9b9698bc6f0c8158bae182d6eab2faf2ab036d29c19d43"

    def test_edge_scenarios_pinned(self):
        assert outputs_digest(_edge_scenarios()) == \
            "cdc09c12eeca69c0186687c0694b0d8979eabd93749d72e498cecedbdf287cb2"
