"""Acceptance gate: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Timing-based criteria check ratios only, never absolute durations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from delaytower import sim, tower, vdf
from delaytower.cli import main
from delaytower.ledger import (
    EpochConfig,
    LedgerState,
    UnknownMiner,
    registration_message,
    submission_message,
)
from delaytower.reconfig import LifecycleState, advance_epoch, lifecycle_of
from delaytower.signing import KeyedHashScheme

from conftest import link_of
from test_reconfig import oracle_advance, random_ledger

SCHEME = KeyedHashScheme()


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}", flush=True)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        report(number, name, False)
        raise
    report(number, name, True)


@pytest.fixture(scope="module")
def acceptance_modulus() -> int:
    return vdf.generate_modulus(512, b"acceptance-modulus")


def params_at(modulus: int, iterations: int) -> vdf.PublicParams:
    return vdf.PublicParams(modulus=modulus, public_key=b"test-key", endpoint=b"",
                            iterations=iterations)


def test_criterion_01_vdf_correctness(acceptance_modulus):
    with criterion(1, "VDF correctness"):
        started = time.perf_counter()
        rng = random.Random(101)
        for t in (1 << 8, 1 << 10, 1 << 12):
            pp = params_at(acceptance_modulus, t)
            for _ in range(200):
                x = rng.randrange(1, pp.modulus // 2 + 1)  # inputs are canonical
                output, proof = vdf.eval(pp, x)
                assert vdf.verify(pp.modulus, pp.iterations, x, output, proof)
        elapsed = time.perf_counter() - started
        assert elapsed < 120, f"took {elapsed:.1f}s, budget is 120s"


def test_criterion_02_vdf_soundness(acceptance_modulus):
    with criterion(2, "VDF soundness under tampering"):
        rng = random.Random(202)
        pp = params_at(acceptance_modulus, 1 << 10)
        transcripts = []
        for _ in range(25):
            x = rng.randrange(1, pp.modulus // 2 + 1)
            output, proof = vdf.eval(pp, x)
            assert len(proof.checkpoints) >= 2
            transcripts.append((x, output, proof))
        accepted = 0
        trials = 0
        while trials < 1000:
            x, output, proof = transcripts[trials % len(transcripts)]
            field = rng.randrange(len(proof.checkpoints) + 2)
            # Canonical, so that the fold, not the canonical check, must reject it.
            fresh = rng.randrange(1, pp.modulus // 2 + 1)
            if field == 0:
                if fresh == x:
                    continue
                candidate = (fresh, output, proof)
            elif field == 1:
                if fresh == output:
                    continue
                candidate = (x, fresh, proof)
            else:
                idx = field - 2
                if fresh == proof.checkpoints[idx]:
                    continue
                checkpoints = list(proof.checkpoints)
                checkpoints[idx] = fresh
                candidate = (x, output, vdf.VdfProof(tuple(checkpoints)))
            trials += 1
            if vdf.verify(pp.modulus, pp.iterations, *candidate):
                accepted += 1
        assert accepted == 0, f"{accepted} tampered transcripts accepted"


def test_criterion_03_oracle_equivalence():
    with criterion(3, "eval equals brute-force oracle"):
        rng = random.Random(303)
        for _ in range(5000):
            n = rng.randrange(9, 1 << 16) | 1
            while vdf.is_probable_prime(n):
                n = rng.randrange(9, 1 << 16) | 1
            x = rng.randrange(1, n // 2 + 1)
            t = rng.randrange(1, 257)
            pp = params_at(n, t)
            if math.gcd(x, n) != 1:
                with pytest.raises(vdf.InputOutOfRange):
                    vdf.eval(pp, x)
                continue
            output, _ = vdf.eval(pp, x)
            y = pow(x, 1 << t, n)
            assert output == min(y, n - y), (n, x, t)


@pytest.fixture(scope="module")
def timings(acceptance_modulus):
    """Shared wall-clock measurements for the two timing criteria."""
    samples = 20
    data = {}

    def measure(*fns, n=samples):
        """Time each fn n times, taking turns, so host drift hits every fn alike."""
        for fn in fns:
            fn()  # warm up
        out = [[] for _ in fns]
        for _ in range(n):
            for fn, times in zip(fns, out):
                start = time.perf_counter()
                fn()
                times.append((time.perf_counter() - start) * 1000.0)
        return out

    evals = []
    for label, t in (("15", 1 << 15), ("16", 1 << 16)):
        pp = params_at(acceptance_modulus, t)
        x = vdf.hash_to_group(b"timing" + label.encode(), pp.modulus)
        evals.append(lambda pp=pp, x=x: vdf.eval(pp, x))
    data["eval15"], data["eval16"] = measure(*evals)

    verifies = []
    for label, t in (("10", 1 << 10), ("16", 1 << 16)):
        pp = params_at(acceptance_modulus, t)
        x = vdf.hash_to_group(b"timing" + label.encode(), pp.modulus)
        output, proof = vdf.eval(pp, x)
        verifies.append(lambda pp=pp, x=x, output=output, proof=proof:
                        vdf.verify(pp.modulus, pp.iterations, x, output, proof))
    data["verify10"], data["verify16"] = measure(*verifies)

    pp16 = params_at(acceptance_modulus, 1 << 16)
    x16 = vdf.hash_to_group(b"timing16", pp16.modulus)
    output, proof = vdf.eval(pp16, x16)
    invalid = vdf.VdfProof(proof.checkpoints, 511)

    def screened_submission():
        if not vdf.fast_reject(pp16.modulus, pp16.iterations, invalid):
            vdf.verify(pp16.modulus, pp16.iterations, x16, output, invalid)

    data["fastreject16"], = measure(screened_submission, n=200)
    return data


def test_criterion_04_asymmetry(timings):
    with criterion(4, "verify and fast rejection are cheap next to eval"):
        eval_mean = statistics.fmean(timings["eval16"])
        verify_mean = statistics.fmean(timings["verify16"])
        reject_mean = statistics.fmean(timings["fastreject16"])
        assert verify_mean < 0.10 * eval_mean, \
            f"verify {verify_mean:.2f}ms vs eval {eval_mean:.2f}ms"
        assert reject_mean < 0.50 * verify_mean, \
            f"fast reject {reject_mean:.4f}ms vs verify {verify_mean:.2f}ms"


def test_criterion_05_eval_linear_verify_sublinear(timings):
    with criterion(5, "eval scales linearly, verify sublinearly"):
        eval_ratio = statistics.fmean(timings["eval16"]) / statistics.fmean(timings["eval15"])
        verify_ratio = statistics.fmean(timings["verify16"]) / statistics.fmean(timings["verify10"])
        assert 1.4 <= eval_ratio <= 2.6, f"eval doubling ratio {eval_ratio:.2f}"
        assert verify_ratio < 4, f"verify 2^16 / 2^10 ratio {verify_ratio:.2f}"


class FuzzMiner:
    def __init__(self, state: LedgerState, name: bytes):
        self.state = state
        self.address = name
        self.tower = tower.init_tower(state.security, name, b"fuzz-endpoint")
        record = self.tower.records[0]
        message = registration_message(name, self.tower.params, record)
        state.register_miner(name, self.tower.params, record, SCHEME.sign(name, message))

    def honest_next(self) -> tower.ProofRecord:
        x = tower.next_input(self.tower)
        output, proof = vdf.eval(self.tower.params, x)
        return tower.ProofRecord(index=self.tower.height, input=x,
                                 output=output, proof=proof)

    def accept_locally(self, record: tower.ProofRecord) -> None:
        self.tower = dataclasses.replace(
            self.tower, records=self.tower.records + (record,))


def test_criterion_06_algorithm_one_conformance():
    with criterion(6, "submission gauntlet conformance over 10,000 fuzzed ops"):
        rng = random.Random(606)
        security = vdf.SecurityParams(modulus_bits=256, iterations=16)
        state = LedgerState(security, EpochConfig(growth_cap=10**9), SCHEME)
        miners = [FuzzMiner(state, f"fuzz-{i}".encode()) for i in range(6)]

        def fingerprint() -> bytes:
            return hashlib.sha256(state.export_snapshot().encode()).digest()

        ops = ["valid", "valid", "valid", "replay", "stale", "bad-sig",
               "tamper-output", "bad-prime-len", "high-claim", "low-claim",
               "bad-index", "unknown"]
        accepted_count = 0
        for _ in range(10_000):
            miner = rng.choice(miners)
            op = rng.choice(ops)
            pre = state.miner_pool[miner.address]
            pre_height, pre_hash = pre.height, pre.hash
            claimed = None
            signature = None

            if op == "valid":
                record = miner.honest_next()
            elif op == "replay":
                record = miner.tower.records[-1]
            elif op == "stale":
                if miner.tower.height < 2:
                    record = miner.honest_next()
                    op = "valid"
                else:
                    parent = miner.tower.records[-2]
                    x = vdf.hash_to_group(link_of(parent), state.modulus)
                    output, proof = vdf.eval(miner.tower.params, x)
                    record = tower.ProofRecord(index=miner.tower.height, input=x,
                                               output=output, proof=proof)
            elif op == "bad-sig":
                record = miner.honest_next()
                signature = b"not-a-signature"
            elif op == "tamper-output":
                record = miner.honest_next()
                bad_output = record.output % state.modulus + 1
                record = dataclasses.replace(record, output=bad_output)
            elif op == "bad-prime-len":
                record = miner.honest_next()
                record = dataclasses.replace(
                    record,
                    proof=dataclasses.replace(record.proof,
                                              embedded_prime_length_bits=511))
            elif op == "high-claim":
                record = miner.honest_next()
                claimed = record.index + 1 + rng.randrange(1, 5)
            elif op == "low-claim":
                record = miner.honest_next()
                claimed = rng.randrange(0, record.index + 1)
            elif op == "bad-index":
                record = miner.honest_next()
                record = dataclasses.replace(record, index=record.index + 1)
            else:  # unknown miner
                record = miner.honest_next()

            claimed = record.index + 1 if claimed is None else claimed
            message = submission_message(
                b"ghost" if op == "unknown" else miner.address, claimed, record)
            if signature is None:
                signer = b"ghost" if op == "unknown" else miner.address
                signature = SCHEME.sign(signer, message)

            if op == "unknown":
                before = fingerprint()
                with pytest.raises(UnknownMiner):
                    state.submit_proof(b"ghost", claimed, record, signature)
                assert fingerprint() == before
                continue

            before = fingerprint()
            accepted = state.submit_proof(miner.address, claimed, record, signature)

            if accepted:
                accepted_count += 1
                # the accepting gauntlet implies every published gate held
                assert SCHEME.verify(miner.address, message, signature)
                assert record.input == vdf.hash_to_group(pre_hash, state.modulus)
                assert pre_height < claimed
                post = state.miner_pool[miner.address]
                assert post.height == pre_height + 1
                assert post.hash == link_of(record)
                miner.accept_locally(record)
            else:
                assert fingerprint() == before, f"rejected {op} mutated state"
                assert op != "valid", "honest submission was rejected"

        assert accepted_count > 3000
        for miner in miners:
            assert tower.validate_chain(miner.tower), \
                "accepted history does not replay"


def test_criterion_07_reconfiguration_oracle():
    with criterion(7, "advance_epoch equals brute-force pipeline on 1,000 ledgers"):
        started = time.perf_counter()
        rng = random.Random(707)
        for _ in range(1000):
            state = random_ledger(rng)
            expected = oracle_advance(state)
            summary = advance_epoch(state)
            assert list(summary.proposed) == expected["proposed"]
            assert state.validator_set == tuple(expected["validator_set"])
            assert list(summary.jailed) == expected["newly_jailed"]
            assert list(summary.released) == expected["released"]
            assert summary.reconfiguration_skipped == expected["skipped"]
            assert state.epoch == expected["epoch"]
            for address, fields in expected["pool"].items():
                ms = state.miner_pool[address]
                assert (ms.height, ms.num, ms.jailed, ms.jail_sentence,
                        ms.compliant_epochs) == (
                    fields["height"], fields["num"], fields["jailed"],
                    fields["sentence"], fields["compliant"])
        elapsed = time.perf_counter() - started
        assert elapsed < 30, f"took {elapsed:.1f}s, budget is 30s"


LEGAL_TRANSITIONS = {
    (LifecycleState.MINER, LifecycleState.MINER),
    (LifecycleState.MINER, LifecycleState.VALIDATOR_CANDIDATE),
    (LifecycleState.VALIDATOR_CANDIDATE, LifecycleState.VALIDATOR),
    (LifecycleState.VALIDATOR_CANDIDATE, LifecycleState.MINER),
    (LifecycleState.VALIDATOR, LifecycleState.VALIDATOR),
    (LifecycleState.VALIDATOR, LifecycleState.JAILED),
    (LifecycleState.VALIDATOR, LifecycleState.MINER),
    (LifecycleState.JAILED, LifecycleState.JAILED),
    (LifecycleState.JAILED, LifecycleState.MINER),
}


def random_scenario(seed: int) -> sim.Scenario:
    rng = random.Random(seed)
    mu = rng.randrange(2, 6)
    cfg = EpochConfig(
        max_validators=rng.randrange(4, 13),
        liveliness_threshold=Fraction(rng.randrange(5, 11), 10),
        mining_threshold=mu,
        jail_sentence_epochs=rng.randrange(1, 3),
        growth_cap=max(mu + 2, 10),
    )
    rounds = rng.randrange(8, 17)
    cfg = dataclasses.replace(cfg, rounds_per_epoch=rounds)
    population = []
    n_validators = rng.randrange(4, 11)
    for i in range(n_validators):
        roll = rng.random()
        mining = rng.choice([0, mu, mu + 1, 10])
        if roll < 0.6:
            behavior = sim.Behavior.honest(mining=mining)
        elif roll < 0.8:
            behavior = sim.Behavior.crashed(rng.randrange(0, rounds * 2),
                                            mining=mining)
        else:
            behavior = sim.Behavior.silent(Fraction(rng.randrange(0, 11), 10),
                                           mining=mining)
        population.append((f"val-{seed}-{i:02d}".encode(), behavior))
    for i in range(rng.randrange(0, 9)):
        population.append((f"spare-{seed}-{i:02d}".encode(),
                           sim.Behavior.honest(mining=rng.choice([0, mu + 1, 10]))))
    return sim.Scenario(
        seed=seed,
        epochs=rng.randrange(3, 6),
        population=tuple(population),
        genesis_validators=tuple(a for a, _ in population[:n_validators]),
        epoch_config=cfg,
    )


def test_criterion_08_lifecycle_soundness():
    with criterion(8, "only chartered lifecycle transitions across 100 simulations"):
        observed: set[tuple[LifecycleState, LifecycleState]] = set()
        for seed in range(100):
            scenario = random_scenario(seed)
            last: dict[bytes, LifecycleState] = {}

            def observe(phase, epoch, state, last=last, scenario=scenario):
                for address, _ in scenario.population:
                    current = lifecycle_of(state, address)
                    if address in last:
                        observed.add((last[address], current))
                    last[address] = current

            sim.run(scenario, observer=observe)
        illegal = observed - LEGAL_TRANSITIONS
        assert not illegal, f"illegal transitions observed: {illegal}"
        # sanity: the interesting transitions actually happened
        assert (LifecycleState.VALIDATOR, LifecycleState.JAILED) in observed
        assert (LifecycleState.JAILED, LifecycleState.MINER) in observed
        assert (LifecycleState.MINER, LifecycleState.VALIDATOR_CANDIDATE) in observed
        assert (LifecycleState.VALIDATOR_CANDIDATE, LifecycleState.VALIDATOR) in observed


def test_criterion_09_nakamoto_figure():
    with criterion(9, "Nakamoto liveness figure at one hundred validators"):
        assert sim.nakamoto_liveness(100) == 33


def _load_bundled(name: str) -> sim.Scenario:
    from importlib import resources
    text = resources.files("delaytower").joinpath(
        "scenarios").joinpath(f"{name}.json").read_text()
    return sim.scenario_from_json(text)


def test_criterion_10_self_healing():
    with criterion(10, "crashed minority jailed and replaced within one epoch"):
        base = _load_bundled("crash-minority")
        outcomes = []
        for seed in (base.seed, 1, 99, 2**32):
            scenario = dataclasses.replace(base, seed=seed)
            metrics = sim.run(scenario)
            first = metrics.epochs[0]
            assert first.timeouts > 0
            assert sorted(first.jailed) == [b"val-00", b"val-01", b"val-02"]
            for record in metrics.epochs[1:]:
                assert record.timeouts == 0
                assert len(record.validator_set) == 10
            outcomes.append([
                (r.committed_blocks, r.timeouts, r.validator_set, r.jailed)
                for r in metrics.epochs
            ])
        assert all(outcome == outcomes[0] for outcome in outcomes), \
            "outcome depends on the seed"


def test_criterion_11_liveness_bound():
    with criterion(11, "crashed majority stalls every epoch at the quorum bound"):
        metrics = sim.run(_load_bundled("crash-majority"))
        for record in metrics.epochs:
            assert record.committed_blocks == 0
        assert metrics.total_commits == 0
        assert sim.recovery_time(metrics) is sim.NEVER_RECOVERED


def test_criterion_12_overhead_arithmetic(capsys):
    with criterion(12, "verification overhead arithmetic"):
        rc = main(["overhead", "--verify-ms", "115", "--proofs-per-epoch", "48",
                   "--validators", "100", "--epoch-seconds", "86400"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "5.52 s per epoch" in out
        assert "552.00 s per epoch" in out
        fraction_line = next(line for line in out.splitlines()
                             if line.startswith("fraction"))
        fraction = float(fraction_line.split()[-1].rstrip("%"))
        assert abs(fraction - 0.0064) <= 0.0002
