"""Tower chaining, tamper detection, and file persistence."""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from delaytower import tower, vdf

from conftest import SMALL_SECURITY, full_fold


@pytest.fixture(scope="module")
def height3() -> tower.Tower:
    twr = tower.init_tower(SMALL_SECURITY, b"owner-a", b"ep-a")
    twr = tower.extend(twr, created_epoch=1)
    return tower.extend(twr, created_epoch=2)


@pytest.fixture(scope="module")
def height8() -> tower.Tower:
    twr = tower.init_tower(SMALL_SECURITY, b"owner-b", b"ep-b")
    for _ in range(7):
        twr = tower.extend(twr)
    return twr


# Digests of the tower below as saved in proof format 3, and in format 1's
# layout (its transcripts folded down to a single squaring): the proof and
# file formats must not drift.
PINNED_TOWER_SHA256 = "a94d058a33ea727b4352a64da229fc91561e39ab0ed5cdfef095c3c69d67d6d8"
FORMAT_1_TOWER_SHA256 = "666e77ad803eb3d0f12767c74d8e94f82db2043ba394b79a5dd50b003ba69a32"


def pinned_tower() -> tower.Tower:
    security = vdf.SecurityParams(modulus_bits=512, iterations=1024)
    twr = tower.init_tower(security, b"pinned-owner", b"pinned-endpoint")
    twr = tower.extend(twr, created_epoch=1)
    return tower.extend(twr, created_epoch=2)


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
        assert tower.record_digest(a.records[0]) == tower.record_digest(b.records[0])

    def test_different_keys_different_inputs(self):
        a = tower.init_tower(SMALL_SECURITY, b"k1", b"e")
        b = tower.init_tower(SMALL_SECURITY, b"k2", b"e")
        assert a.records[0].input != b.records[0].input


class TestExtend:
    def test_chains_from_parent_digest(self, height3):
        parent_digest = tower.record_digest(height3.records[1])
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


@pytest.fixture
def verify_calls(monkeypatch) -> list:
    """Count every vdf.verify call made through the tower module."""
    calls = []
    original = vdf.verify

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(vdf, "verify", counting)
    return calls


class TestValidatedPrefix:
    def test_extend_of_built_tower_verifies_nothing(self, verify_calls):
        twr = tower.init_tower(SMALL_SECURITY, b"owner-c", b"ep-c")
        twr = tower.extend(twr)
        twr = tower.extend(twr)
        assert twr.height == 3
        assert verify_calls == []

    def test_extend_after_validating_load_verifies_nothing_more(
            self, tmp_path, height3, verify_calls):
        tower.save_tower(height3, tmp_path / "t.bin")
        loaded = tower.load_tower(tmp_path / "t.bin")
        assert len(verify_calls) == height3.height
        extended = tower.extend(loaded)
        assert len(verify_calls) == height3.height
        assert tower.validate_chain(extended)

    def test_unmarked_towers_are_validated_in_full(self, tmp_path, height3, verify_calls):
        tower.save_tower(height3, tmp_path / "t.bin")
        unvalidated = tower.load_tower(tmp_path / "t.bin", validate=False)
        copied = dataclasses.replace(height3)
        for twr in (unvalidated, copied):
            verify_calls.clear()
            assert tower.extend(twr).height == height3.height + 1
            assert len(verify_calls) == height3.height


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
        real_eval = vdf.eval

        def format_1_eval(pp, x):
            output, proof = real_eval(pp, x)
            full, _ = full_fold(pp.modulus, x, pp.iterations, output)
            return output, dataclasses.replace(proof, checkpoints=full)

        path = tmp_path / "t.bin"
        with monkeypatch.context() as patch:
            patch.setattr(vdf, "eval", format_1_eval)
            patch.setattr(vdf, "PROOF_FORMAT_VERSION", 1)
            tower.save_tower(pinned_tower(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FORMAT_1_TOWER_SHA256
        for validate in (True, False):
            with pytest.raises(tower.CorruptTower, match="version 1"):
                tower.load_tower(path, validate=validate)

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
        twr = tower.Tower(security=SMALL_SECURITY, params=params,
                          records=(tower.ProofRecord(0, x0, output, proof),))
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
