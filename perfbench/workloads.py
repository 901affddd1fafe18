"""The seeded workloads: set-up, one timed iteration, and output checks.

Every input is derived from the seed here; delaytower only receives the
generated keys, towers, submissions and scenario, through its public API.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from delaytower import cli, ledger, reconfig, sim, tower, vdf
from delaytower.signing import Ed25519Scheme

from spans import ROOT

# The CLI's network profile, used by `mine` and `validate`.
MODULUS_BITS = 2048
ITERATIONS = 4096

SETUP_REPEATS = 3


class Checker:
    """Expected outcomes; each one is an attempted operation for the result line."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclasses.dataclass
class Iteration:
    """One timed pass over a workload's fixture."""

    wall_s: float
    op_ms: list[float]          # latency of the workload's unit of work
    ops: int                    # units completed
    ops_s: float                # time the units took, for ops_per_s
    named: dict[str, float]     # workload-specific end-to-end figures
    digests: dict[str, str]     # output digests; equal on every iteration of one seed


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _derive(seed: int, *labels) -> bytes:
    return hashlib.sha256("/".join(["perfbench", str(seed), *map(str, labels)]).encode()).digest()


def _cold_modulus(bits: int) -> None:
    """Derive the genesis modulus with its process cache emptied first."""
    clear = getattr(vdf.generate_modulus, "cache_clear", None)
    if clear is not None:
        clear()
    vdf.generate_modulus(bits)


def _traced(tracer):
    """Install the tracer and open the iteration's root span (no-op untraced)."""
    if tracer is None:
        return contextlib.nullcontext()
    stack = contextlib.ExitStack()
    stack.enter_context(tracer)
    stack.enter_context(tracer.span(ROOT))
    return stack


def _set_op(tracer, op) -> None:
    if tracer is not None:
        tracer.op = op


def _cli(argv: list[str], stream=None) -> tuple[int, str]:
    """Run the CLI in-process with its output captured."""
    out = stream if stream is not None else io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# -- mine -------------------------------------------------------------------

class _LinkClock(io.StringIO):
    """Captures CLI output and stamps each line the CLI prints after saving a link.

    `cmd_mine` prints "initialized tower ..." or "height a -> b ..." right after
    each `save_tower`, so the stamps time the links without patching anything.
    """

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        if text.startswith(("height ", "initialized tower")):
            self.stamps.append(time.perf_counter())
        return super().write(text)


class Mine:
    """The miner's write path: `delaytower mine` from nothing to height 16 in four sessions."""

    name = "mine"
    sessions = (3, 4, 4, 4)
    height = 1 + sum(sessions)
    min_iterations = 2

    def sizes(self) -> dict:
        return {"sessions": list(self.sessions), "final_height": self.height}

    def setup(self, seed: int, work: Path):
        key_file = work / "miner.key"
        times = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            _cold_modulus(MODULUS_BITS)
            key_file.write_text(_derive(seed, "mine", "key").hex() + "\n", encoding="ascii")
            times.append(time.perf_counter() - started)
        fixture = {"seed": seed, "work": work, "key_file": key_file,
                   "tower_file": work / "miner.tower"}
        return fixture, statistics.median(times)

    def iteration(self, fx, tracer, check: Checker) -> Iteration:
        tower_file = fx["tower_file"]
        tower_file.unlink(missing_ok=True)
        argv = ["mine", "--tower-file", str(tower_file), "--key-file", str(fx["key_file"]),
                "--modulus-bits", str(MODULUS_BITS), "--iterations", str(ITERATIONS)]
        link_s = []
        started = time.perf_counter()
        with _traced(tracer):
            for session, proofs in enumerate(self.sessions):
                _set_op(tracer, session)
                clock = _LinkClock()
                opened = time.perf_counter()
                code, _ = _cli(argv + ["--proofs", str(proofs)], clock)
                check.expect(code == cli.EXIT_OK, f"mine session {session} exited {code}")
                stamps = [opened] + clock.stamps
                link_s += [b - a for a, b in zip(stamps, stamps[1:])]
        wall = time.perf_counter() - started
        check.expect(len(link_s) == self.height, f"mine saved {len(link_s)} links")
        return Iteration(
            wall_s=wall, op_ms=[s * 1000 for s in link_s], ops=len(link_s), ops_s=wall,
            named={"mine.links_per_s": len(link_s) / wall,
                   "mine.link_s.p50": statistics.median(link_s)},
            digests={"tower_file": _sha256(tower_file.read_bytes())})

    def check_output(self, fx, check: Checker) -> None:
        """The final file validates at height 16; one tampered midpoint is found exactly."""
        try:
            twr = tower.load_tower(fx["tower_file"])
        except tower.CorruptTower as exc:
            check.expect(False, f"final tower does not load: {exc}")
            return
        check.expect(twr.height == self.height, f"final height {twr.height}")
        rng = random.Random(_derive(fx["seed"], "mine", "tamper"))
        index = rng.randrange(1, twr.height)
        record = twr.records[index]
        midpoints = list(record.proof.checkpoints)
        which = rng.randrange(len(midpoints))
        midpoints[which] = midpoints[which] * 2 % twr.params.modulus
        bad = dataclasses.replace(
            record, proof=dataclasses.replace(record.proof, checkpoints=tuple(midpoints)))
        records = twr.records[:index] + (bad,) + twr.records[index + 1:]
        tampered = fx["work"] / "tampered.tower"
        tower.save_tower(dataclasses.replace(twr, records=records), tampered)
        code, out = _cli(["verify-tower", "--tower-file", str(tampered)])
        lines = out.splitlines()
        check.expect(code == cli.EXIT_DOMAIN, f"tampered tower: verify-tower exited {code}")
        check.expect(lines[-1:] == [f"record {index}: INVALID"],
                     f"tampered record {index} not named: {lines[-1:]}")
        check.expect(all(line.startswith(f"record {i}: ok") for i, line in enumerate(lines[:-1]))
                     and len(lines) == index + 1, "records before the tampered one not all ok")


# -- rotation ---------------------------------------------------------------

class Rotation:
    """Consensus and rotation through `sim.run`, with a snapshot after every boundary.

    No delay-function work: it drives `ledger.record_block`, `advance_epoch`
    with jail/release churn, and snapshot writes.
    """

    nodes = 160
    validators = 100
    silent = 15
    crashed = 7
    rounds_per_epoch = 100
    epochs = 200

    def sizes(self) -> dict:
        return {"nodes": self.nodes, "genesis_validators": self.validators,
                "silent": self.silent, "crashed": self.crashed,
                "spare_miners": self.nodes - self.validators,
                "rounds_per_epoch": self.rounds_per_epoch, "epochs": self.epochs}

    def scenario(self, seed: int) -> sim.Scenario:
        """Every seed gets the same mix of rates, sign probabilities and crash times.

        The seed picks the addresses, which validators misbehave, which rate and
        probability each node gets, and where inside its epoch each crash lands,
        so the amount of work hardly depends on the seed.
        """
        rng = random.Random(_derive(seed, "rotate", "scenario"))
        config = ledger.EpochConfig(rounds_per_epoch=self.rounds_per_epoch,
                                    max_validators=self.validators)
        threshold, cap = config.mining_threshold, config.growth_cap
        addresses = [_derive(seed, "rotate", "node", i)[:8] for i in range(self.nodes)]
        faulty = rng.sample(range(self.validators), self.silent + self.crashed)
        silent = dict(zip(faulty[:self.silent],
                          rng.sample([Fraction(50 + 35 * k // (self.silent - 1), 100)
                                      for k in range(self.silent)], self.silent)))
        crash_epochs = [(k + 1) * self.epochs // (self.crashed + 1) for k in range(self.crashed)]
        crashed = {i: e * self.rounds_per_epoch + rng.randrange(self.rounds_per_epoch)
                   for i, e in zip(faulty[self.silent:], crash_epochs)}

        def spread(low, high, count):   # ``count`` rates spread evenly over [low, high]
            return rng.sample([low + (high - low) * k // (count - 1) for k in range(count)],
                              count)

        spares = self.nodes - self.validators
        rates = (spread(threshold + 1, cap, self.validators)
                 + spread(threshold + 1, cap, spares // 2)          # spares above the threshold
                 + spread(1, threshold, spares - spares // 2))      # and below it
        population = []
        for i, (address, mining) in enumerate(zip(addresses, rates)):
            if i in silent:
                behavior = sim.Behavior.silent(silent[i], mining)
            elif i in crashed:
                behavior = sim.Behavior.crashed(crashed[i], mining)
            else:
                behavior = sim.Behavior.honest(mining)
            population.append((address, behavior))
        return sim.Scenario(seed=seed, epochs=self.epochs, population=tuple(population),
                            genesis_validators=tuple(addresses[:self.validators]),
                            epoch_config=config)

    def run(self, scenario: sim.Scenario, work: Path, tracer) -> dict:
        """Run the scenario and write its outputs as `simulate` does."""
        stamps: list[float] = []
        last = {}

        def observer(phase: str, epoch: int, state) -> None:
            if phase == "pre-boundary":
                return
            if phase == "post-boundary":
                last["snapshot"] = state.export_snapshot()
                _set_op(tracer, f"epoch-{epoch + 1}")
            stamps.append(time.perf_counter())

        started = time.perf_counter()
        _set_op(tracer, "epoch-0")
        metrics = sim.run(scenario, observer=observer)
        summary = metrics.to_summary_json()
        (work / "rotation.csv").write_text(metrics.to_csv(), encoding="ascii")
        (work / "rotation-summary.json").write_text(summary, encoding="ascii")
        seconds = time.perf_counter() - started
        epoch_ms = [(b - a) * 1000 for a, b in zip(stamps, stamps[1:])]
        return {"metrics": metrics, "snapshot": last.get("snapshot", ""),
                "named": {"rotate.rounds_per_s": self.epochs * self.rounds_per_epoch / seconds,
                          "rotate.epoch_ms.p50": statistics.median(epoch_ms),
                          "rotate.epoch_ms.p95": statistics.quantiles(epoch_ms, n=20)[18]},
                "digests": {"rotation_summary": _sha256(summary.encode()),
                            "rotation_snapshot": _sha256(last.get("snapshot", "").encode())},
                "epochs_observed": len(epoch_ms)}

    def check(self, outcome: dict, check: Checker) -> None:
        """Every round commits or times out, and the last snapshot round-trips."""
        metrics = outcome["metrics"]
        for record in metrics.epochs:
            check.expect(record.committed_blocks + record.timeouts == self.rounds_per_epoch,
                         f"epoch {record.epoch}: commits plus timeouts differ from rounds")
        check.expect(metrics.total_commits + metrics.total_timeouts
                     == self.epochs * self.rounds_per_epoch,
                     "commits plus timeouts differ from epochs x rounds")
        check.expect(outcome["epochs_observed"] == self.epochs,
                     f"observer saw {outcome['epochs_observed']} epochs")
        snapshot = outcome["snapshot"]
        check.expect(ledger.LedgerState.import_snapshot(snapshot).export_snapshot() == snapshot,
                     "last snapshot does not round-trip")


# -- validate ---------------------------------------------------------------

FAULTS = ("bad_signature", "unchained_input", "stale_index", "height_not_above",
          "screen", "tampered_midpoint")


@dataclasses.dataclass
class Submission:
    miner: int
    claimed: int
    record: tower.ProofRecord
    signature: bytes
    fault: str | None


class Validate:
    """The validator's path: verify-tower over every file, one epoch of intake, then rotation."""

    name = "validate"
    miners = 8
    height = 14
    valid_per_fault = 4
    min_iterations = 2          # the second iteration checks that outputs repeat
    rotation = Rotation()

    def sizes(self) -> dict:
        valid = self.miners * (self.height - 1)
        return {"miners": self.miners, "tower_height": self.height,
                "records_verified": self.miners * self.height,
                "valid_submissions": valid, "faulted_submissions": valid // self.valid_per_fault,
                "rotation": self.rotation.sizes()}

    def _mine_miner(self, seed: int, work: Path, index: int, security, scheme) -> dict:
        secret = _derive(seed, "validate", "miner", index)[:32]
        address = Ed25519PrivateKey.from_private_bytes(secret).public_key().public_bytes(
            Encoding.Raw, PublicFormat.Raw)
        twr = tower.init_tower(security, address, f"miner-{index}".encode())
        for h in range(1, self.height):
            x = tower.next_input(twr)
            output, proof = vdf.eval(twr.params, x)
            record = tower.ProofRecord(index=h, input=x, output=output, proof=proof)
            twr = dataclasses.replace(twr, records=twr.records + (record,))
        path = work / f"miner-{index}.tower"
        tower.save_tower(twr, path)
        registration = scheme.sign(
            secret, ledger.registration_message(address, twr.params, twr.records[0]))
        valid = [Submission(index, h + 1, twr.records[h],
                            scheme.sign(secret, ledger.submission_message(
                                address, h + 1, twr.records[h])), None)
                 for h in range(1, self.height)]
        return {"secret": secret, "address": address, "tower": twr, "path": path,
                "registration": registration, "valid": valid}

    def _fault(self, kind: str, occurrence: int, miners: list[dict], index: int, height: int,
               scheme, rng: random.Random) -> Submission:
        """A submission for miner ``index`` at ``height`` that one gate must reject."""
        miner = miners[index]
        record = miner["tower"].records[height]
        claimed = height + 1
        if kind == "unchained_input":
            record = miner["tower"].records[height - 1]
        elif kind == "stale_index":
            record = dataclasses.replace(record, index=height - 1)
        elif kind == "height_not_above":
            claimed = height
        elif kind == "screen":
            proof = record.proof
            if occurrence % 2:
                proof = dataclasses.replace(proof, checkpoints=proof.checkpoints[:-1])
            else:
                proof = dataclasses.replace(
                    proof, embedded_prime_length_bits=proof.embedded_prime_length_bits - 1)
            record = dataclasses.replace(record, proof=proof)
        elif kind == "tampered_midpoint":
            midpoints = list(record.proof.checkpoints)
            which = rng.randrange(len(midpoints))
            midpoints[which] = midpoints[which] * 2 % miner["tower"].params.modulus
            record = dataclasses.replace(
                record, proof=dataclasses.replace(record.proof, checkpoints=tuple(midpoints)))
        signature = scheme.sign(miner["secret"], ledger.submission_message(
            miner["address"], claimed, record))
        if kind == "bad_signature":
            signature = signature[:-1] + bytes([signature[-1] ^ 1])
        return Submission(index, claimed, record, signature, kind)

    def setup(self, seed: int, work: Path):
        """Mine every miner's tower and sign its submissions, place the faults, and
        generate the rotation scenario.

        Each miner's set-up is one repetition; set-up time is the shared part plus
        the miner count times the median miner set-up.
        """
        scheme = Ed25519Scheme()
        security = vdf.SecurityParams(modulus_bits=MODULUS_BITS, iterations=ITERATIONS)
        started = time.perf_counter()
        _cold_modulus(MODULUS_BITS)
        shared = time.perf_counter() - started
        miners, per_miner = [], []
        for index in range(self.miners):
            started = time.perf_counter()
            miners.append(self._mine_miner(seed, work, index, security, scheme))
            per_miner.append(time.perf_counter() - started)

        started = time.perf_counter()
        stream = [miners[i]["valid"][h] for h in range(self.height - 1)
                  for i in range(self.miners)]
        rng = random.Random(_derive(seed, "validate", "faults"))
        count = len(stream) // self.valid_per_fault
        kinds = [FAULTS[k % len(FAULTS)] for k in range(count)]
        rng.shuffle(kinds)
        positions = sorted(rng.randrange(len(stream)) for _ in range(count))
        submissions, seen = [], {k: 0 for k in FAULTS}
        cursor = 0
        for position, kind in zip(positions, kinds):
            submissions += stream[cursor:position]
            cursor = position
            target = stream[position]   # the fault hits the miner whose record is next
            submissions.append(self._fault(kind, seen[kind], miners, target.miner,
                                           target.claimed - 1, scheme, rng))
            seen[kind] += 1
        submissions += stream[cursor:]
        digest = _sha256(b"".join(m["path"].read_bytes() for m in miners))
        scenario = self.rotation.scenario(seed)
        _cold_modulus(scenario.security.modulus_bits)
        shared += time.perf_counter() - started

        fixture = {"seed": seed, "work": work, "scheme": scheme, "security": security,
                   "miners": miners, "submissions": submissions, "tower_digest": digest,
                   "scenario": scenario}
        return fixture, shared + self.miners * statistics.median(per_miner)

    def iteration(self, fx, tracer, check: Checker) -> Iteration:
        miners = fx["miners"]
        submit_ms = []
        started = time.perf_counter()
        with _traced(tracer):
            for index, miner in enumerate(miners):
                _set_op(tracer, f"file-{index}")
                code, out = _cli(["verify-tower", "--tower-file", str(miner["path"])])
                check.expect(code == cli.EXIT_OK
                             and out.endswith(f"tower valid, height {self.height}\n"),
                             f"verify-tower on miner {index} exited {code}")
            verified = time.perf_counter()

            state = ledger.LedgerState(
                fx["security"], ledger.EpochConfig(mining_threshold=self.height - 2),
                fx["scheme"])
            for index, miner in enumerate(miners):
                _set_op(tracer, f"register-{index}")
                twr = miner["tower"]
                state.register_miner(miner["address"], twr.params, twr.records[0],
                                     miner["registration"])
            for number, sub in enumerate(fx["submissions"]):
                _set_op(tracer, f"submit-{number}")
                address = miners[sub.miner]["address"]
                before = dataclasses.astuple(state.miner_pool[address])
                opened = time.perf_counter()
                accepted = state.submit_proof(address, sub.claimed, sub.record, sub.signature)
                submit_ms.append((time.perf_counter() - opened) * 1000)
                check.expect(accepted == (sub.fault is None),
                             f"submission {number} ({sub.fault or 'valid'}) accepted={accepted}")
                if sub.fault is not None:
                    check.expect(dataclasses.astuple(state.miner_pool[address]) == before,
                                 f"rejected submission {number} changed its miner's state")
            _set_op(tracer, "advance-epoch")
            summary = reconfig.advance_epoch(state)
            finished = time.perf_counter()
            rotation = self.rotation.run(fx["scenario"], fx["work"], tracer)
        wall = time.perf_counter() - started
        self.rotation.check(rotation, check)

        addresses = sorted(m["address"] for m in miners)
        check.expect(all(state.miner_pool[a].height == self.height for a in addresses),
                     "final heights are not all 14")
        check.expect(list(summary.proposed) == addresses and not summary.reconfiguration_skipped,
                     "advance_epoch did not seat every miner")
        records = self.miners * self.height
        submissions = len(fx["submissions"])
        intake_s = finished - verified
        return Iteration(
            wall_s=wall, op_ms=submit_ms, ops=submissions, ops_s=intake_s,
            named={"verify_tower.records_per_s": records / (verified - started),
                   "intake.submissions_per_s": submissions / intake_s,
                   "intake.submit_ms.p50": statistics.median(submit_ms),
                   "intake.submit_ms.p90": statistics.quantiles(submit_ms, n=10)[8],
                   **rotation["named"]},
            digests={"tower_files": fx["tower_digest"],
                     "ledger_snapshot": _sha256(state.export_snapshot().encode()),
                     **rotation["digests"]})

    def check_output(self, fx, check: Checker) -> None:
        """The submission stream holds the planned number of faults, covering every gate."""
        faults = [s.fault for s in fx["submissions"] if s.fault is not None]
        check.expect(len(faults) == self.sizes()["faulted_submissions"]
                     and set(faults) == set(FAULTS), "fault mix does not cover every gate")


WORKLOADS = {w.name: w for w in (Mine(), Validate())}
