"""Tower chaining, tamper detection, and file persistence."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from delaytower import tower, vdf
from delaytower.serialization import encode_bigint, encode_bytes

from conftest import (FOLD_SECURITY, LINK_FAULTS, SMALL_SECURITY, format_3_proof, full_fold,
                      link_of, serial_chain)


@pytest.fixture(scope="module")
def height3() -> tower.Tower:
    twr = tower.init_tower(SMALL_SECURITY, b"owner-a", b"ep-a")
    return tower.extend(tower.extend(twr))


@pytest.fixture(scope="module")
def height8() -> tower.Tower:
    twr = tower.init_tower(SMALL_SECURITY, b"owner-b", b"ep-b")
    for _ in range(7):
        twr = tower.extend(twr)
    return twr


# Digests of the tower below as saved in tower file version 4 with proof
# format 4, and with proof format 1's layout (its transcripts folded down to a
# single squaring): the proof and file formats and the chain rule must not drift.
PINNED_TOWER_SHA256 = "984b4336bb1e60f138ee4e5f6bbc31b62345f40e7082aa8f88496af011fa9ad3"
FORMAT_1_TOWER_SHA256 = "d31e49790abf040b5582fadd4e30906cbfa8f76da9e90e93ab4c947fb7e04a03"


def pinned_tower() -> tower.Tower:
    security = vdf.SecurityParams(modulus_bits=512, iterations=1024)
    twr = tower.init_tower(security, b"pinned-owner", b"pinned-endpoint")
    return tower.extend(tower.extend(twr))


def pinned_tower_sha256(tmp_path) -> str:
    tower.save_tower(pinned_tower(), tmp_path / "t.bin")
    return hashlib.sha256((tmp_path / "t.bin").read_bytes()).hexdigest()


def tamper_record(twr: tower.Tower, index: int) -> tower.Tower:
    record = twr.records[index]
    bad_output = record.output + 1 if record.output + 1 < twr.params.modulus else 1
    bad = dataclasses.replace(record, output=bad_output)
    records = list(twr.records)
    records[index] = bad
    return dataclasses.replace(twr, records=tuple(records))


def rekeyed(twr: tower.Tower, public_key: bytes) -> tower.Tower:
    """The same records claimed by another key."""
    return dataclasses.replace(twr, params=dataclasses.replace(twr.params,
                                                               public_key=public_key))


class TestInit:
    def test_height_one_with_index_zero(self):
        twr = tower.init_tower(SMALL_SECURITY, b"k", b"e")
        assert twr.height == 1
        assert twr.records[0].index == 0
        assert tower.validate_chain(twr)

    def test_same_inputs_same_first_record(self):
        a = tower.init_tower(SMALL_SECURITY, b"k", b"e")
        b = tower.init_tower(SMALL_SECURITY, b"k", b"e")
        assert link_of(a.records[0]) == link_of(b.records[0])

    def test_different_keys_different_inputs(self):
        a = tower.init_tower(SMALL_SECURITY, b"k1", b"e")
        b = tower.init_tower(SMALL_SECURITY, b"k2", b"e")
        assert a.records[0].input != b.records[0].input


class TestExtend:
    def test_chains_from_parent_digest(self, height3):
        parent_digest = link_of(height3.records[1])
        expected = vdf.hash_to_group(parent_digest, height3.params.modulus)
        assert height3.records[2].input == expected

    def test_indices_contiguous(self, height8):
        assert [r.index for r in height8.records] == list(range(8))

    def test_height_grows_by_one(self, height3):
        extended = tower.extend(height3)
        assert extended.height == height3.height + 1
        assert extended.records[:3] == height3.records

    def test_tampered_tower_refuses_extension(self, height8):
        for index in range(height8.height):
            with pytest.raises(tower.CorruptTower):
                tower.extend(tamper_record(height8, index))
        with pytest.raises(tower.CorruptTower):
            tower.extend(rekeyed(height8, b"other-owner"))
        records = list(height8.records)
        records[2], records[3] = records[3], records[2]
        with pytest.raises(tower.CorruptTower):
            tower.extend(dataclasses.replace(height8, records=tuple(records)))


class TestPipeline:
    """``grow`` squares each link while the package's worker proves the one before."""

    def test_same_records_as_extend_and_serial_eval(self):
        start = tower.init_tower(FOLD_SECURITY, b"owner-p", b"ep-p")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            grown = tower.grow(start, 5)
        finally:
            sys.setswitchinterval(interval)
        one_by_one = start
        for _ in range(5):
            one_by_one = tower.extend(one_by_one)
        serial = serial_chain(FOLD_SECURITY, b"owner-p", b"ep-p", 6)
        assert grown.height == one_by_one.height == serial.height == 6
        for index, record in enumerate(grown.records):
            assert record == one_by_one.records[index] == serial.records[index], index
        assert grown == serial and tower.validate_chain(grown)

    def test_kept_powers_across_a_resume(self, monkeypatch, tmp_path):
        # At t = 2^14 each proof folds 7 kept powers (s = 3). The resumed tower's
        # first link is proved on this thread inside its check, the next on the worker.
        security = vdf.SecurityParams(modulus_bits=512, iterations=1 << 14)
        empty = tower.Tower(params=vdf.setup(security, b"owner-s", b"ep-s"), records=())
        resumed = dataclasses.replace(tower.grow(empty, 1))  # not known valid: checked
        provers = first_link_provers(monkeypatch, resumed)
        tower.save_tower(tower.grow(resumed, 2), tmp_path / "grown.bin")
        assert provers == [threading.current_thread().name]
        tower.save_tower(serial_chain(security, b"owner-s", b"ep-s", 3), tmp_path / "serial.bin")
        assert (tmp_path / "grown.bin").read_bytes() == (tmp_path / "serial.bin").read_bytes()

    def test_each_link_handed_on_in_order(self):
        empty = tower.Tower(params=vdf.setup(SMALL_SECURITY, b"owner-q", b"ep-q"), records=())
        seen = []
        grown = tower.grow(empty, 4, seen.append)
        assert [twr.height for twr in seen] == [1, 2, 3, 4]
        assert seen[-1] == grown and all(tower.validate_chain(twr) for twr in seen)
        assert tower.grow(grown, 0, seen.append) is grown and len(seen) == 4

    def test_on_verify_worker_thread(self, height6):
        # Each link it hands on queues behind itself, so the worker runs it too.
        expected = tower.grow(height6, 3)
        for twr in (height6, dataclasses.replace(height6)):
            assert vdf._RIGHT_SIDES.submit(tower.grow, twr, 3).result(timeout=60) == expected

    def test_grow_after_main_thread_returns(self):
        # Python joins the threads still running only after it has shut down
        # every executor, so grow proves and hands on its links on this thread.
        script = textwrap.dedent("""
            import threading
            from delaytower import tower, vdf
            security = vdf.SecurityParams(modulus_bits=512, iterations=1024)
            twr = tower.init_tower(security, b"k", b"e")

            def late():
                threading.main_thread().join()  # returns once shutdown has begun
                print(tower.grow(twr, 2).height)

            threading.Thread(target=late).start()
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "3\n", "")

    def test_proof_left_out_of_chain_digest(self):
        twr = tower.grow(tower.init_tower(FOLD_SECURITY, b"owner-r", b"ep-r"), 2)
        record = twr.records[1]
        midpoints = (record.proof.checkpoints[0] * 2 % twr.params.modulus,
                     *record.proof.checkpoints[1:])
        bad = dataclasses.replace(record, proof=dataclasses.replace(
            record.proof, checkpoints=midpoints))
        tampered = dataclasses.replace(twr, records=(twr.records[0], bad, twr.records[2]))
        assert tower.next_input(dataclasses.replace(tampered, records=tampered.records[:2])) \
            == twr.records[2].input
        assert tower.check_link(twr.params.modulus, twr.params.iterations,
                                link_of(twr.records[0]), 1, bad) == "transcript"
        assert not tower.record_valid(tampered, 1)
        assert tower.record_valid(tampered, 2)
        assert not tower.validate_chain(tampered)


@pytest.fixture
def full_checks(monkeypatch) -> list:
    """Every proof checked in full, by ``vdf.verify`` or ``vdf.check_proofs``: each
    folds the left side of one claim once, on whichever thread."""
    calls = []
    original = vdf._left_side

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(vdf, "_left_side", counting)
    return calls


class TestValidatedPrefix:
    def test_extend_of_built_tower_verifies_nothing(self, full_checks):
        twr = tower.init_tower(SMALL_SECURITY, b"owner-c", b"ep-c")
        twr = tower.extend(twr)
        twr = tower.extend(twr)
        assert twr.height == 3
        assert full_checks == []

    def test_extend_after_validating_load_verifies_nothing_more(
            self, tmp_path, height3, full_checks):
        tower.save_tower(height3, tmp_path / "t.bin")
        loaded = tower.load_tower(tmp_path / "t.bin")
        assert len(full_checks) == height3.height
        extended = tower.extend(loaded)
        assert len(full_checks) == height3.height
        assert tower.validate_chain(extended)

    def test_unmarked_towers_are_validated_in_full(self, tmp_path, height3, full_checks):
        tower.save_tower(height3, tmp_path / "t.bin")
        unvalidated = tower.load_tower(tmp_path / "t.bin", validate=False)
        copied = dataclasses.replace(height3)
        for twr in (unvalidated, copied):
            full_checks.clear()
            assert tower.extend(twr).height == height3.height + 1
            assert len(full_checks) == height3.height


class TestValidateChain:
    def test_fresh_tower_valid(self, height8):
        assert tower.validate_chain(height8)

    def test_swapped_records_invalid(self, height8):
        records = list(height8.records)
        records[2], records[3] = records[3], records[2]
        swapped = dataclasses.replace(height8, records=tuple(records))
        assert not tower.validate_chain(swapped)

    def test_every_single_record_tamper_detected(self, height8):
        for index in range(height8.height):
            assert not tower.validate_chain(tamper_record(height8, index)), \
                f"tamper at record {index} not detected"

    def test_non_transferable(self, height3):
        stolen = rekeyed(height3, b"other-owner")
        assert not tower.validate_chain(stolen)
        assert not tower.record_valid(stolen, 0)

    def test_empty_tower_invalid(self, height3):
        empty = dataclasses.replace(height3, records=())
        assert not tower.validate_chain(empty)


@pytest.fixture(scope="module")
def height6() -> tower.Tower:
    """Height 6 at a profile whose proofs carry 3 midpoints, so every record has two sides."""
    return tower.grow(tower.init_tower(FOLD_SECURITY, b"owner-s", b"ep-s"), 5)


def with_records(twr: tower.Tower, changes: dict) -> tower.Tower:
    """``twr`` with the records at ``changes``' indices replaced by its faults' output."""
    return dataclasses.replace(twr, records=tuple(
        LINK_FAULTS[changes[i]](twr, record) if i in changes else record
        for i, record in enumerate(twr.records)))


def link_by_link(twr: tower.Tower):
    """``check_link`` on each record in turn: the first that fails and its gate, or None."""
    for index, record in enumerate(twr.records):
        previous = twr.params.input_digest if index == 0 else link_of(twr.records[index - 1])
        gate = tower.check_link(twr.params.modulus, twr.params.iterations, previous, index,
                                record)
        if gate is not None:
            return index, gate
    return None


class TestCheckChain:
    """``check_chain`` checks the proofs on two threads, and answers as ``check_link`` does."""

    @pytest.mark.parametrize("position", [0, 3, 5])
    @pytest.mark.parametrize("gate", list(LINK_FAULTS))
    def test_same_answer_as_check_link_in_turn(self, height6, gate, position):
        tampered = with_records(height6, {position: gate})
        expected = None if gate is None else (position, gate)
        assert link_by_link(tampered) == expected
        assert tower.check_chain(tampered) == expected
        assert tower.validate_chain(tampered) is (gate is None)
        if gate is not None:  # grow checks it too, with no link to append
            with pytest.raises(tower.CorruptTower,
                               match=rf"^tower fails validation at record {position} \({gate}\)$"):
                tower.grow(tampered, 0)

    @pytest.mark.parametrize("faults", [{1: "transcript", 4: "screen"}, {1: "screen", 4: "index"},
                                        {2: "transcript", 5: "transcript"},
                                        {0: "transcript", 5: "input"}])
    def test_lower_of_two_faults_reported(self, height6, faults):
        tampered = with_records(height6, faults)
        lowest = min(faults)
        assert tower.check_chain(tampered) == link_by_link(tampered) == (lowest, faults[lowest])

    def test_lowest_failure_though_a_later_one_fails_first(self, monkeypatch, height6):
        # Record 1's left side fails slowly on one thread while the other thread
        # runs on and fails record 2 first: record 1 is still the answer.
        real, inputs = vdf._left_side, [record.input for record in height6.records]

        def left_side(modulus, iterations, x, *rest):
            if x == inputs[1]:
                time.sleep(0.1)
            return x not in inputs[1:3] and real(modulus, iterations, x, *rest)

        monkeypatch.setattr(vdf, "_left_side", left_side)
        assert tower.check_chain(height6) == (1, "transcript")

    def test_many_callers_switching_often(self, height6):
        # Eight callers on two cores share one worker, switching threads as often
        # as the interpreter can: every answer holds, and every record checked has
        # its own time.
        cases = [(height6, None)] + [(with_records(height6, {i: "transcript"}), (i, "transcript"))
                                     for i in range(height6.height)]

        def check(case) -> bool:
            twr, expected = case
            spent = [0.0] * twr.height
            checked = twr.height if expected is None else expected[0]
            return tower.check_chain(twr, spent=spent) == expected and all(spent[:checked])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(check, cases * 3, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [True] * len(cases) * 3

    def test_on_verify_worker_thread(self, height6):
        tampered = with_records(height6, {4: "transcript"})
        for twr, expected in ((height6, None), (tampered, (4, "transcript"))):
            assert vdf._RIGHT_SIDES.submit(tower.check_chain, twr).result(timeout=60) == expected

    def test_after_worker_shut_down(self, monkeypatch, height6):
        stopped = ThreadPoolExecutor(max_workers=1)
        stopped.shutdown()
        monkeypatch.setattr(vdf, "_RIGHT_SIDES", stopped)
        assert tower.check_chain(height6) is None
        assert tower.check_chain(with_records(height6, {2: "transcript"})) == (2, "transcript")

    def test_task_exception_raised_and_stops_both_threads(self, monkeypatch, height6):
        # A task raises on one thread: the other starts at most one more task
        # (it may be past its stop check already), and the check raises that error.
        started, raised = [], threading.Event()

        def counted(real):
            def task(*args, **kwargs):
                started.append(raised.is_set())
                if len(started) == 3:
                    raised.set()
                    raise MemoryError("BN_CTX_new failed")
                time.sleep(0.01)
                return real(*args, **kwargs)
            return task

        for name in ("_left_side", "_right_side"):
            monkeypatch.setattr(vdf, name, counted(getattr(vdf, name)))
        with pytest.raises(MemoryError):
            tower.check_chain(height6)
        assert started.count(True) <= 1 and len(started) < 2 * height6.height, started
        monkeypatch.undo()
        assert tower.check_chain(height6) is None

    def test_interrupt_during_first_squarings(self, monkeypatch, tmp_path, height6):
        # Ctrl-C lands in the first link's squarings of a resumed tower while
        # its check runs: each thread finishes at most the task it has begun or
        # is about to begin, nothing is saved, and no task runs after grow returns.
        started, after_interrupt, interrupted = [], [], threading.Event()

        def counted(real):
            def task(*args, **kwargs):
                started.append(1)
                if interrupted.is_set():
                    after_interrupt.append(threading.current_thread().name)
                time.sleep(0.02)
                return real(*args, **kwargs)
            return task

        def squarings(pp, x):  # on the builtin engine no task begins before this returns
            deadline = time.monotonic() + 30
            while (vdf._LIBCRYPTO is not None and len(started) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            interrupted.set()
            raise KeyboardInterrupt

        for name in ("_left_side", "_right_side"):
            monkeypatch.setattr(vdf, name, counted(getattr(vdf, name)))
        monkeypatch.setattr(vdf, "squarings", squarings)
        path = tmp_path / "t.bin"
        with pytest.raises(KeyboardInterrupt):
            tower.grow(dataclasses.replace(height6), 2, lambda twr: tower.save_tower(twr, path))
        settled = len(started)
        time.sleep(0.1)
        assert len(started) == settled < 2 * height6.height
        assert len(after_interrupt) == len(set(after_interrupt)) <= 2, after_interrupt
        assert not path.exists()


VERIFY_WORKER = "delaytower-verify"


class Tasks(list):
    """Names of the threads that began the check's tasks, in order. On verify's
    worker each task first waits until ``go`` is set, as it is to begin with."""

    def __init__(self):
        super().__init__()
        self.go = threading.Event()
        self.go.set()


@pytest.fixture
def tasks(monkeypatch) -> Tasks:
    begun = Tasks()

    def spied(real):
        def task(*args, **kwargs):
            name = threading.current_thread().name
            begun.append(name)
            if name.startswith(VERIFY_WORKER):
                assert begun.go.wait(10), "verify's worker held for 10 s"
            return real(*args, **kwargs)
        return task

    for name in ("_left_side", "_right_side"):
        monkeypatch.setattr(vdf, name, spied(getattr(vdf, name)))
    return begun


def first_link_provers(monkeypatch, twr: tower.Tower, after=lambda: None) -> list[str]:
    """Names of the threads that prove the first link grown on ``twr``; each then runs ``after``."""
    x0, real, names = tower.next_input(twr), vdf.prove, []

    def prove(pp, x, y, powers):
        if x != x0:
            return real(pp, x, y, powers)
        names.append(threading.current_thread().name)
        proof = real(pp, x, y, powers)
        after()
        return proof

    monkeypatch.setattr(vdf, "prove", prove)
    return names


class TestFirstLinkInCheck:
    """A resumed ``grow`` checks the tower on this thread and verify's worker, and
    squares and proves link 0 on this thread inside that check."""

    def test_check_runs_on_caller_and_verify_worker(self, tasks, height6):
        grown = tower.grow(dataclasses.replace(height6), 2)
        begun, caller = list(tasks), threading.current_thread().name
        assert len(begun) == 2 * height6.height
        assert all(name == caller or name.startswith(VERIFY_WORKER) for name in begun), begun
        assert grown == tower.grow(height6, 2)

    def test_caller_proves_link_0_inside_check(self, monkeypatch, tasks, height6):
        # Verify's worker holds its first task until link 0 is proved, so the
        # proof is made while the check runs.
        expected = tower.grow(height6, 2)
        tasks.go.clear()
        provers = first_link_provers(monkeypatch, height6, tasks.go.set)
        grown = tower.grow(dataclasses.replace(height6), 2)
        assert provers == [threading.current_thread().name]
        assert grown == expected

    def test_interrupt_during_first_proof(self, monkeypatch, tmp_path, tasks, height6):
        # Ctrl-C lands in link 0's proof on this thread while verify's worker holds
        # its first task: the worker finishes at most the task it has begun and
        # one it is about to begin, nothing is saved, and no task runs after grow returns.
        provers, at_interrupt = [], []
        tasks.go.clear()

        def prove(pp, x, y, powers):
            provers.append(threading.current_thread().name)
            at_interrupt.append(len(tasks))
            tasks.go.set()
            raise KeyboardInterrupt

        monkeypatch.setattr(vdf, "prove", prove)
        path = tmp_path / "t.bin"
        with pytest.raises(KeyboardInterrupt):
            tower.grow(dataclasses.replace(height6), 2, lambda twr: tower.save_tower(twr, path))
        settled = len(tasks)
        time.sleep(0.1)
        assert len(tasks) == settled < 2 * height6.height
        assert provers == [threading.current_thread().name]
        after_interrupt = tasks[at_interrupt[0]:]
        assert len(after_interrupt) <= 1, list(tasks)
        assert all(name.startswith(VERIFY_WORKER) for name in after_interrupt), list(tasks)
        assert not path.exists()


class TestPersistence:
    def test_roundtrip_identity(self, tmp_path, height8):
        path = tmp_path / "t.bin"
        tower.save_tower(height8, path)
        loaded = tower.load_tower(path)
        assert loaded == height8
        tower.save_tower(loaded, tmp_path / "t2.bin")
        assert (tmp_path / "t.bin").read_bytes() == (tmp_path / "t2.bin").read_bytes()

    def test_truncated_file_rejected(self, tmp_path, height3):
        path = tmp_path / "t.bin"
        tower.save_tower(height3, path)
        blob = path.read_bytes()
        for cut in (0, 10, len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(tower.CorruptTower):
                tower.load_tower(path)

    def test_any_flipped_byte_rejected(self, tmp_path, height3):
        path = tmp_path / "t.bin"
        tower.save_tower(height3, path)
        blob = bytearray(path.read_bytes())
        rng = random.Random(99)
        offsets = rng.sample(range(len(blob)), 40)
        for offset in offsets:
            mutated = bytearray(blob)
            mutated[offset] ^= 0x01
            path.write_bytes(bytes(mutated))
            with pytest.raises(tower.CorruptTower):
                tower.load_tower(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            tower.load_tower(tmp_path / "absent.bin")

    def test_file_bytes_unchanged(self, tmp_path):
        assert pinned_tower_sha256(tmp_path) == PINNED_TOWER_SHA256

    def test_file_bytes_unchanged_on_builtin_pow(self, monkeypatch, tmp_path):
        monkeypatch.setattr(vdf, "_LIBCRYPTO", None)
        assert pinned_tower_sha256(tmp_path) == PINNED_TOWER_SHA256

    def test_format_1_file_refused(self, monkeypatch, tmp_path):
        real_prove = vdf.prove

        def format_1_prove(pp, x, y, powers):
            full, _ = full_fold(pp.modulus, x, pp.iterations, y)
            return dataclasses.replace(real_prove(pp, x, y, powers), checkpoints=full)

        path = tmp_path / "t.bin"
        with monkeypatch.context() as patch:
            patch.setattr(vdf, "prove", format_1_prove)
            patch.setattr(vdf, "PROOF_FORMAT_VERSION", 1)
            tower.save_tower(pinned_tower(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FORMAT_1_TOWER_SHA256
        for validate in (True, False):
            with pytest.raises(tower.CorruptTower, match="version 1"):
                tower.load_tower(path, validate=validate)

    def test_tower_file_version_1_refused(self, tmp_path, height3):
        path = tmp_path / "t.bin"
        tower.save_tower(height3, path)
        body = b"\x01" + path.read_bytes()[1:-32]
        path.write_bytes(body + hashlib.sha256(body).digest())
        for validate in (True, False):
            with pytest.raises(tower.CorruptTower, match="tower file version 1"):
                tower.load_tower(path, validate=validate)

    def test_tower_file_version_2_refused(self, tmp_path, height3):
        # Version 2 hashed each record's proof into the next input.
        path = tmp_path / "t.bin"
        tower.save_tower(height3, path)
        body = b"\x02" + path.read_bytes()[1:-32]
        path.write_bytes(body + hashlib.sha256(body).digest())
        for validate in (True, False):
            with pytest.raises(tower.CorruptTower, match="unsupported tower file version 2"):
                tower.load_tower(path, validate=validate)

    def test_tower_file_version_3_refused(self, tmp_path, height3):
        # Version 3 wrote a prime-length label in its header, and format 3 proofs.
        params = height3.params
        body = (b"\x03" + vdf.PRIME_LENGTH_BITS.to_bytes(4, "big")
                + params.iterations.to_bytes(8, "big") + encode_bytes(params.public_key)
                + encode_bytes(params.endpoint) + encode_bigint(params.modulus)
                + height3.height.to_bytes(4, "big") + b"".join(
                    r.index.to_bytes(8, "big") + encode_bigint(r.input) + encode_bigint(r.output)
                    + encode_bytes(format_3_proof(r.output, r.proof)) for r in height3.records))
        path = tmp_path / "t.bin"
        path.write_bytes(body + hashlib.sha256(body).digest())
        for validate in (True, False):
            with pytest.raises(tower.CorruptTower, match="unsupported tower file version 3"):
                tower.load_tower(path, validate=validate)

    @pytest.mark.parametrize("header", [33, 40, 63])
    def test_iteration_count_not_a_power_of_two_refused(self, tmp_path, header):
        # Setup would round the header's count up to the t = 64 the proofs hold,
        # so such a file would load, and save back, as another tower.
        twr = tower.grow(tower.init_tower(vdf.SecurityParams(256, 64), b"owner-h", b"ep-h"), 1)
        path = tmp_path / "t.bin"
        tower.save_tower(twr, path)
        body = path.read_bytes()[:-32]
        body = body[:1] + header.to_bytes(8, "big") + body[9:]
        path.write_bytes(body + hashlib.sha256(body).digest())
        for validate in (True, False):
            with pytest.raises(tower.CorruptTower, match=f"^tower file iteration count "
                               f"{header} is not a power of two$"):
                tower.load_tower(path, validate=validate)

    def test_header_holds_no_label(self, tmp_path, height3):
        path = tmp_path / "t.bin"
        tower.save_tower(height3, path)
        data = path.read_bytes()
        assert data[:9] == b"\x04" + height3.params.iterations.to_bytes(8, "big")

    def test_format_2_file_refused(self, monkeypatch, tmp_path):
        path = tmp_path / "t.bin"
        with monkeypatch.context() as patch:
            patch.setattr(vdf, "PROOF_FORMAT_VERSION", 2)
            tower.save_tower(pinned_tower(), path)
        for validate in (True, False):
            with pytest.raises(tower.CorruptTower, match="version 2"):
                tower.load_tower(path, validate=validate)

    def test_empty_owner_file_rejected(self, tmp_path):
        # The chain is sound, but setup refuses empty keys, so no file may claim one.
        params = dataclasses.replace(vdf.setup(SMALL_SECURITY, b"k", b"ep"), public_key=b"")
        x0 = vdf.hash_to_group(params.input_digest, params.modulus)
        output, proof = vdf.eval(params, x0)
        twr = tower.Tower(params=params, records=(tower.ProofRecord(0, x0, output, proof),))
        assert tower.validate_chain(twr)
        tower.save_tower(twr, tmp_path / "t.bin")
        for validate in (True, False):
            with pytest.raises(tower.CorruptTower):
                tower.load_tower(tmp_path / "t.bin", validate=validate)

    def test_load_without_validation_still_checks_format(self, tmp_path, height3):
        path = tmp_path / "t.bin"
        tower.save_tower(height3, path)
        loaded = tower.load_tower(path, validate=False)
        assert loaded == height3
