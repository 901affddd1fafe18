"""Command exercises with temp files; exit-code contract throughout."""

from __future__ import annotations

import csv
import dataclasses
import errno
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from importlib import resources

import pytest

from delaytower import sim, tower, vdf
from delaytower.cli import DEFAULT_ENDPOINT, main
from delaytower.ledger import EpochConfig, LedgerState
from delaytower.signing import KeyedHashScheme

from conftest import LINK_FAULTS, serial_chain

FAST = ["--iterations", "64", "--modulus-bits", "256"]
# Enough squarings for a proof with three midpoints, so the worker has work to do.
DEEP = ["--iterations", "1024"]
# The main thread's squaring calls per link at 1024 squarings: the loop stops three times.
LINK_CALLS = 4

# SHA-256 of simulate's CSV and summary for each bundled scenario.
SIMULATE_SHA256 = {
    "healthy-100": ("7a93045cd1710c490f7995c632bf44c88623ccb2e78ad31e6a0bac541d41a5be",
                    "3917a2890a39985b374dbf5c0f162194a78f0935d8697c77c7f5da24a2ce71ee"),
    "crash-minority": ("9bef0fe40d323f83f5ce5190892c08bed81e1199e7679915bd45ba5bb3b372f8",
                       "efdc36f58d2c0d0301628c02a7a14791576cb5af0fbaf430d8a320eb8a8cb470"),
    "crash-majority": ("53901d853a17374fbcfbd6a7391d2f7180928ba0f802ea3a99a40fd9996a305d",
                       "ace6f95a0510592a9f15b0512d5fdb39453a27b1acd48ea0ad2069508b29124b"),
}


def mine(tmp_path, *extra) -> int:
    return main([
        "mine",
        "--tower-file", str(tmp_path / "t.bin"),
        "--key-file", str(tmp_path / "k.hex"),
        *FAST,
        *extra,
    ])


class TestMine:
    def test_fresh_run_builds_requested_height(self, tmp_path, capsys):
        assert mine(tmp_path, "--proofs", "3") == 0
        out = capsys.readouterr().out
        assert "height 3 -> 4" in out
        twr = tower.load_tower(tmp_path / "t.bin")
        assert twr.height == 4

    def test_resume_appends(self, tmp_path, capsys):
        assert mine(tmp_path, "--proofs", "3") == 0
        capsys.readouterr()
        assert mine(tmp_path, "--proofs", "1") == 0
        assert tower.load_tower(tmp_path / "t.bin").height == 5
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "resuming tower at height 4 (t=64, modulus 256 bits)", first

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the default modulus is derived "
                       "from a public seed, so anyone can factor it")
    def test_fresh_modulus_not_derived_from_public_seed(self, tmp_path):
        public = vdf.generate_modulus(512, vdf.DEFAULT_MODULUS_SEED)
        security = vdf.SecurityParams(modulus_bits=512, iterations=64)
        state = LedgerState(security, EpochConfig(), KeyedHashScheme())
        assert state.modulus != public
        assert main(["mine", "--tower-file", str(tmp_path / "t.bin"),
                     "--key-file", str(tmp_path / "k.hex"), "--proofs", "0",
                     "--iterations", "64", "--modulus-bits", "512"]) == 0
        assert tower.load_tower(tmp_path / "t.bin").params.modulus != public

    @pytest.mark.parametrize("option, value", [("--proofs", "-3"), ("--modulus-bits", "32"),
                                               ("--iterations", "0"), ("--iterations", "1000")])
    def test_out_of_range_argument_is_usage_error(self, tmp_path, capsys, option, value):
        # Out-of-range security parameters are named by their field.
        name = {"--modulus-bits": "modulus_bits", "--iterations": "iterations"}.get(option, option)
        assert mine(tmp_path, option, value) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must be ")
        assert list(tmp_path.iterdir()) == []  # refused before any key or tower is written

    def test_resume_ignores_fresh_tower_parameters(self, tmp_path):
        assert mine(tmp_path, "--proofs", "0") == 0
        assert mine(tmp_path, "--proofs", "1", "--modulus-bits", "32", "--iterations", "0") == 0
        twr = tower.load_tower(tmp_path / "t.bin")
        assert (twr.height, twr.params.iterations, twr.params.modulus.bit_length()) == (2, 64, 256)

    @pytest.mark.parametrize("broken, message", [
        ("--tower-file", "error: cannot write tower file: "),
        ("--key-file", "error: cannot write key file: "),
    ])
    def test_unwritable_path_is_domain_error(self, tmp_path, broken, message):
        files = {"--tower-file": tmp_path / "t.bin", "--key-file": tmp_path / "k.hex"}
        files[broken] = tmp_path / "missing" / "file"
        argv = [arg for option, path in files.items() for arg in (option, str(path))]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.run([sys.executable, "-m", "delaytower.cli", "mine", *argv, *FAST],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith(message) and "Traceback" not in run.stderr, run.stderr
        assert not (tmp_path / "t.bin").exists()

    def test_pipelined_file_matches_serial_chain(self, tmp_path):
        # One session of 5 links, and sessions of 2 and then 3, give the same bytes.
        assert mine(tmp_path, *DEEP, "--proofs", "5") == 0
        key = bytes.fromhex((tmp_path / "k.hex").read_text())
        security = vdf.SecurityParams(modulus_bits=256, iterations=1024)
        tower.save_tower(serial_chain(security, key, DEFAULT_ENDPOINT.encode(), 6),
                         tmp_path / "serial.bin")
        expected = (tmp_path / "serial.bin").read_bytes()
        assert (tmp_path / "t.bin").read_bytes() == expected
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        (resumed / "k.hex").write_bytes((tmp_path / "k.hex").read_bytes())
        assert mine(resumed, *DEEP, "--proofs", "2") == 0
        assert mine(resumed, *DEEP, "--proofs", "3") == 0
        assert (resumed / "t.bin").read_bytes() == expected

    def test_resumes_on_two_threads_match_serial_chain(self, tmp_path):
        # Each resume checks the file on this thread and verify's worker while its
        # first link is squared and proved on this thread: the bytes do not move.
        for proofs in ("1", "2", "2"):
            assert mine(tmp_path, *DEEP, "--proofs", proofs) == 0
        key = bytes.fromhex((tmp_path / "k.hex").read_text())
        security = vdf.SecurityParams(modulus_bits=256, iterations=1024)
        tower.save_tower(serial_chain(security, key, DEFAULT_ENDPOINT.encode(), 6),
                         tmp_path / "serial.bin")
        assert (tmp_path / "t.bin").read_bytes() == (tmp_path / "serial.bin").read_bytes()

    def test_interrupt_keeps_the_link_in_flight(self, tmp_path, monkeypatch, capsys):
        # Ctrl-C lands in the main thread's squarings of link k + 1; link k,
        # then in its proof or save on the worker or queued for this thread,
        # still reaches the file.
        k, real, real_squarings = 2, vdf._powmod, vdf.squarings
        squaring_calls, squaring = 0, False

        def squarings(pp, x):
            nonlocal squaring
            squaring = True
            try:
                return real_squarings(pp, x)
            finally:
                squaring = False

        def powmod(*args, **kwargs):  # counts only the calls squarings makes
            nonlocal squaring_calls
            if squaring and threading.current_thread() is threading.main_thread():
                squaring_calls += 1
                if squaring_calls == LINK_CALLS * (k + 1) + 2:
                    raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(vdf, "squarings", squarings)
        monkeypatch.setattr(vdf, "_powmod", powmod)
        with pytest.raises(KeyboardInterrupt):
            mine(tmp_path, *DEEP, "--proofs", "5")
        monkeypatch.undo()
        assert squaring_calls == LINK_CALLS * (k + 1) + 2
        assert capsys.readouterr().out.splitlines()[-1].startswith(f"height {k} -> {k + 1} (")
        assert tower.load_tower(tmp_path / "t.bin").height == k + 1

    @pytest.mark.parametrize("engine", ["libcrypto", "builtin pow"])
    @pytest.mark.parametrize("k", [2, 5], ids=["middle link", "last link"])
    def test_interrupt_while_a_link_proves(self, tmp_path, monkeypatch, capsys, engine, k):
        # Ctrl-C reaches the main thread while link k proves, and a link's proof
        # and save run on the worker on either engine: link k still reaches the
        # file, whether the main thread is squaring link k + 1 or waiting.
        if engine == "builtin pow":
            monkeypatch.setattr(vdf, "_LIBCRYPTO", None)
        real_prove, proofs = vdf.prove, []

        def prove(*args):
            proofs.append(threading.current_thread().name)
            if len(proofs) == k + 1:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                time.sleep(0.2)  # the main thread takes the signal before this proof ends
            return real_prove(*args)

        monkeypatch.setattr(vdf, "prove", prove)
        with pytest.raises(KeyboardInterrupt):
            mine(tmp_path, *DEEP, "--proofs", "5")
        assert len(proofs) == k + 1 and proofs[k].startswith("delaytower-verify"), proofs
        assert capsys.readouterr().out.splitlines()[-1].startswith(f"height {k} -> {k + 1} (")
        assert tower.load_tower(tmp_path / "t.bin").height == k + 1

    @pytest.mark.parametrize("engine", ["libcrypto", "builtin pow"])
    def test_no_thread_but_verify_worker(self, tmp_path, monkeypatch, engine):
        # A fresh mine and a resumed one start no thread but verify's worker, and
        # save only there, on either engine; a resumed tower's first link is
        # proved on this thread inside its check. Both write a serial chain's bytes.
        if engine == "builtin pow":
            monkeypatch.setattr(vdf, "_LIBCRYPTO", None)
        (tmp_path / "k.hex").write_text("ab" * 32 + "\n")
        real_prove, real_save, real_start = vdf.prove, tower.save_tower, threading.Thread.start
        caller, proved, saved, started = threading.current_thread().name, [], [], []

        def prove(*args):
            proved.append(threading.current_thread().name)
            return real_prove(*args)

        def save(*args):
            saved.append(threading.current_thread().name)
            real_save(*args)

        def start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(vdf, "prove", prove)
        monkeypatch.setattr(tower, "save_tower", save)
        monkeypatch.setattr(threading.Thread, "start", start)
        for proofs in ("3", "2"):
            assert mine(tmp_path, *DEEP, "--proofs", proofs) == 0
        monkeypatch.undo()
        assert all(name.startswith("delaytower-verify") for name in started + saved), \
            (started, saved)
        assert len(saved) == 6 and proved[4] == caller, proved
        assert all(name.startswith("delaytower-verify") for name in proved[:4] + proved[5:])
        security = vdf.SecurityParams(modulus_bits=256, iterations=1024)
        tower.save_tower(serial_chain(security, b"\xab" * 32, DEFAULT_ENDPOINT.encode(), 6),
                         tmp_path / "serial.bin")
        assert (tmp_path / "t.bin").read_bytes() == (tmp_path / "serial.bin").read_bytes()

    def test_failed_save_stops_within_one_link(self, tmp_path, monkeypatch, capsys):
        # Saving link k fails on the worker while link k + 1 squares; link k + 2 never starts.
        k, real_save, real_squarings = 2, tower.save_tower, vdf.squarings
        squared = []

        def save(twr, path):
            if twr.height == k + 1:
                raise OSError(28, "No space left on device")
            real_save(twr, path)

        def squarings(pp, x):
            squared.append(x)
            return real_squarings(pp, x)

        monkeypatch.setattr(tower, "save_tower", save)
        monkeypatch.setattr(vdf, "squarings", squarings)
        assert mine(tmp_path, *DEEP, "--proofs", "5") == 1
        assert capsys.readouterr().err == \
            "error: cannot write tower file: [Errno 28] No space left on device\n"
        assert len(squared) == k + 2
        assert tower.load_tower(tmp_path / "t.bin").height == k

    def test_new_key_file_private(self, tmp_path):
        assert mine(tmp_path, "--proofs", "1") == 0
        assert os.stat(tmp_path / "k.hex").st_mode & 0o777 == 0o600
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.hex", "t.bin"]

    def test_corrupt_tower_fails_and_leaves_file(self, tmp_path):
        assert mine(tmp_path, "--proofs", "1") == 0
        path = tmp_path / "t.bin"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert mine(tmp_path, "--proofs", "1") == 1
        assert path.read_bytes() == bytes(blob)

    @pytest.mark.parametrize("gate", ["index", "input", "screen", "transcript"])
    def test_chain_fault_refused_and_file_left(self, tmp_path, capsys, gate):
        # The file parses; grow checks it on two threads while the first link squares.
        assert mine(tmp_path, *DEEP, "--proofs", "3") == 0
        path = tmp_path / "t.bin"
        twr = tower.load_tower(path)
        records = list(twr.records)
        if gate == "screen":  # the file holds no label to lower: drop a midpoint
            proof = dataclasses.replace(records[2].proof,
                                        checkpoints=records[2].proof.checkpoints[:-1])
            records[2] = dataclasses.replace(records[2], proof=proof)
        else:
            records[2] = LINK_FAULTS[gate](twr, records[2])
        tower.save_tower(dataclasses.replace(twr, records=tuple(records)), path)
        before = path.read_bytes()
        capsys.readouterr()
        assert mine(tmp_path, *DEEP, "--proofs", "2") == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: tower fails validation at record 2 ({gate})\n"
        assert "height 4 -> 5" not in captured.out
        assert path.read_bytes() == before

    @pytest.mark.parametrize("corrupt", [False, True], ids=["valid-tower", "corrupt-tower"])
    def test_refused_resume_writes_no_key(self, tmp_path, capsys, corrupt):
        # A resume reads the key it was mined under; a missing one is not replaced.
        assert mine(tmp_path, "--proofs", "1") == 0
        (tmp_path / "k.hex").unlink()
        if corrupt:
            (tmp_path / "t.bin").write_bytes(b"\x03")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert mine(tmp_path, "--proofs", "1") == 1
        assert capsys.readouterr().err.startswith(
            "error: truncated tower file" if corrupt else "error: cannot read key file: ")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_foreign_key_refused(self, tmp_path):
        assert mine(tmp_path, "--proofs", "1") == 0
        (tmp_path / "k.hex").write_text("ab" * 32 + "\n")
        assert mine(tmp_path, "--proofs", "1") == 1

    def test_foreign_key_one_error_line(self, tmp_path, capsys):
        assert mine(tmp_path, "--proofs", "1") == 0
        (tmp_path / "k.hex").write_text("ab" * 32 + "\n")
        before = (tmp_path / "t.bin").read_bytes()
        capsys.readouterr()
        assert mine(tmp_path, "--proofs", "1") == 1
        assert capsys.readouterr() == ("", "error: tower file belongs to a different key\n")
        assert (tmp_path / "t.bin").read_bytes() == before

    def test_endpoint_not_utf8_is_usage_error(self, tmp_path, capsys):
        # The shell's $'\xff' reaches argv as a lone surrogate, which UTF-8 cannot encode.
        assert mine(tmp_path, "--endpoint", "\udcff") == 2
        assert capsys.readouterr() == ("", "error: --endpoint is not UTF-8: '\\udcff'\n")
        assert list(tmp_path.iterdir()) == []  # refused before any key or tower is written

    @pytest.mark.parametrize("content", ["", "\n"])
    def test_empty_key_file_domain_error(self, tmp_path, capsys, content):
        (tmp_path / "k.hex").write_text(content)
        assert mine(tmp_path, "--proofs", "1") == 1
        assert capsys.readouterr().err == "error: key file holds no key\n"
        assert not (tmp_path / "t.bin").exists()


class TestVerifyTower:
    def test_valid_file_exit_zero(self, tmp_path, capsys):
        assert mine(tmp_path, "--proofs", "2") == 0
        assert main(["verify-tower", "--tower-file", str(tmp_path / "t.bin")]) == 0
        out = capsys.readouterr().out
        assert "tower valid, height 3" in out
        assert "record 2: ok" in out

    def test_tampered_record_reports_index(self, tmp_path, capsys):
        assert mine(tmp_path, "--proofs", "2") == 0
        path = tmp_path / "t.bin"
        twr = tower.load_tower(path)
        bad_record = dataclasses.replace(
            twr.records[1], output=(twr.records[1].output % twr.params.modulus) + 1)
        records = list(twr.records)
        records[1] = bad_record
        tower.save_tower(dataclasses.replace(twr, records=tuple(records)), path)
        capsys.readouterr()
        assert main(["verify-tower", "--tower-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(r"record 0: ok \(\d+\.\d\d ms\)\nrecord 1: INVALID\n", captured.out)
        assert captured.err == "error: tower fails validation at record 1 (transcript)\n"

    def test_tower_without_records_fails(self, tmp_path, capsys):
        # load_tower, validate_chain and mine refuse such a file too.
        assert mine(tmp_path, "--proofs", "0") == 0
        path = tmp_path / "t.bin"
        tower.save_tower(dataclasses.replace(tower.load_tower(path), records=()), path)
        with pytest.raises(tower.CorruptTower):
            tower.load_tower(path)
        capsys.readouterr()
        assert main(["verify-tower", "--tower-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert "tower valid" not in captured.out
        assert captured.err == "error: tower file holds no records\n"
        blob = path.read_bytes()
        assert mine(tmp_path, "--proofs", "1") == 1
        assert capsys.readouterr().err == "error: tower file holds no records\n"
        assert path.read_bytes() == blob

    def test_missing_file_distinct_message(self, tmp_path, capsys):
        assert main(["verify-tower", "--tower-file", str(tmp_path / "nope.bin")]) == 1
        assert "no such tower file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mine", "verify-tower"])
    def test_unreadable_tower_file_is_domain_error(self, tmp_path, capsys, command):
        # A directory exists, so both commands try to read it as a tower file.
        extra = ["--key-file", str(tmp_path / "k.hex")] if command == "mine" else []
        assert main([command, "--tower-file", str(tmp_path), *extra]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read tower file: ")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["mine", "verify-tower"])
    def test_directory_as_tower_file_one_error_line(self, tmp_path, capsys, command):
        extra = ["--key-file", str(tmp_path / "k.hex")] if command == "mine" else []
        assert main([command, "--tower-file", str(tmp_path), *extra]) == 1
        reason = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(tmp_path))
        assert capsys.readouterr() == ("", f"error: cannot read tower file: {reason}\n")


class TestBench:
    def test_unwritable_report_is_domain_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(vdf, "setup", lambda *args: pytest.fail("bench set up a sample"))
        assert main(["bench", "--iterations-list", "64", "--samples", "1", "--modulus-bits",
                     "256", "--out", str(tmp_path / "missing" / "bench.csv")]) == 1
        captured = capsys.readouterr()  # refused before the first sample line
        assert captured.out == "" and captured.err.startswith("error: cannot write report: ")

    def test_interrupted_run_keeps_earlier_report(self, tmp_path, monkeypatch):
        out_path = tmp_path / "bench.csv"
        out_path.write_text("earlier report\n")

        def interrupt(*args):
            raise KeyboardInterrupt
        monkeypatch.setattr(vdf, "setup", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["bench", "--iterations-list", "64", "--samples", "1", "--modulus-bits",
                  "256", "--out", str(out_path)])
        assert out_path.read_text() == "earlier report\n"

    def test_report_structure_and_direction(self, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        rc = main(["bench", "--iterations-list", "64,128", "--samples", "4",
                   "--out", str(out_path), "--modulus-bits", "256"])
        assert rc == 0
        assert capsys.readouterr().out.startswith(f"powmod: {vdf.powmod_engine()}; cpus: ")
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        operations = {(r["operation"], r["iterations"]) for r in rows}
        assert len(operations) == 10  # five labelled blocks per iteration point
        assert len(rows) == 40
        by_op = {}
        for row in rows:
            by_op.setdefault((row["operation"], row["iterations"]), []).append(
                float(row["elapsed_ms"]))
        for t in ("64", "128"):
            invalid = sum(by_op[("verify-invalid", t)]) / 4
            valid = sum(by_op[("verify-valid", t)]) / 4
            assert invalid < valid

    def test_invalid_proof_is_a_screen_reject(self, tmp_path, monkeypatch):
        # t = 16 leaves no midpoint to drop; t = 256 leaves one.
        outcomes = []

        def check_proof(*args, check=vdf.check_proof):
            outcomes.append(check(*args))
            return outcomes[-1]

        monkeypatch.setattr(vdf, "check_proof", check_proof)
        assert main(["bench", "--iterations-list", "16,256", "--samples", "1",
                     "--out", str(tmp_path / "b.csv"), "--modulus-bits", "256"]) == 0
        assert outcomes == [None, "screen"] * 2

    @pytest.mark.parametrize("samples", [1, 3])
    def test_summary_lines_pinned(self, tmp_path, capsys, samples):
        out_path = tmp_path / "b.csv"
        assert main(["bench", "--iterations-list", "16", "--samples", str(samples),
                     "--out", str(out_path), "--modulus-bits", "256"]) == 0
        lines = capsys.readouterr().out.splitlines()
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        header = re.fullmatch(rf"powmod: {re.escape(vdf.powmod_engine())}; cpus: (\d+)", lines[0])
        assert header and 1 <= int(header.group(1)) <= os.cpu_count(), lines[0]
        assert lines[-1] == f"wrote {out_path}"
        assert len(lines) == 7
        ms = r"(\d+\.\d{3}) ms"
        labels = ("eval", "eval-squarings", "eval-prove", "verify-valid", "verify-invalid")
        for label, line in zip(labels, lines[1:6]):
            match = re.fullmatch(
                rf"{label} t={rows[0]['iterations']} n={samples}: mean {ms}, median {ms}, "
                rf"p25 {ms}, p75 {ms}, min {ms}, max {ms}", line)
            assert match, line
            mean, median, p25, p75, low, high = map(float, match.groups())
            values = sorted(float(r["elapsed_ms"]) for r in rows if r["operation"] == label)
            assert len(values) == samples
            # The CSV keeps 6 decimals and the summary 3, so allow both roundings.
            expected = (sum(values) / samples, values[samples // 2],
                        (values[0] + values[samples // 2]) / 2,
                        (values[samples // 2] + values[-1]) / 2, values[0], values[-1])
            for shown, value in zip((mean, median, p25, p75, low, high), expected):
                assert shown == pytest.approx(value, abs=0.0011)
            if samples == 1:
                assert len(set(match.groups())) == 1  # every statistic is the one sample

    def test_samples_taken_in_turn(self, tmp_path, monkeypatch):
        # Sample i of all five operations runs before sample i + 1 of any.
        calls = []
        for name in ("eval", "squarings", "prove", "check_proof"):
            def spy(*args, name=name, fn=getattr(vdf, name)):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(vdf, name, spy)
        assert main(["bench", "--iterations-list", "16", "--samples", "2",
                     "--out", str(tmp_path / "b.csv"), "--modulus-bits", "256"]) == 0
        # Set-up squares and proves once, and eval runs its two halves.
        sample = ["eval", "squarings", "prove", "squarings", "prove", "check_proof", "check_proof"]
        assert calls == ["squarings", "prove"] + sample * 2

    def test_point_not_a_power_of_two_times_nothing(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(vdf, "setup", lambda *args, **kwargs: calls.append(args))
        out_path = tmp_path / "b.csv"
        assert main(["bench", "--iterations-list", "64,100", "--samples", "2",
                     "--out", str(out_path), "--modulus-bits", "256"]) == 2
        assert capsys.readouterr() == ("", "error: iterations must be a power of two, got 100\n")
        assert calls == [] and not out_path.exists()

    def test_bad_iteration_list_usage_error(self, tmp_path):
        rc = main(["bench", "--iterations-list", "ten", "--samples", "2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("points", ["ten", "64,,128"])
    def test_bad_iteration_list_one_error_line(self, tmp_path, capsys, points):
        out_path = tmp_path / "x.csv"
        assert main(["bench", "--iterations-list", points, "--samples", "2",
                     "--out", str(out_path)]) == 2
        assert capsys.readouterr() == (
            "", "error: --iterations-list must be comma-separated integers\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_nonpositive_samples_usage_error(self, tmp_path, capsys, samples):
        out_path = tmp_path / "b.csv"
        rc = main(["bench", "--iterations-list", "16", "--samples", samples,
                   "--out", str(out_path)])
        assert rc == 2
        assert "--samples" in capsys.readouterr().err
        assert not out_path.exists()


class TestSimulate:
    def test_unwritable_output_is_domain_error(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", "healthy-100",
                     "--out-csv", str(tmp_path / "missing" / "m.csv"),
                     "--out-summary", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")

    def test_unwritable_summary_leaves_no_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sim, "run", lambda scenario: pytest.fail("simulate ran the scenario"))
        assert main(["simulate", "--scenario", "healthy-100",
                     "--out-csv", str(tmp_path / "m.csv"),
                     "--out-summary", str(tmp_path / "missing" / "m.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: cannot write output: ")
        assert list(tmp_path.iterdir()) == []

    def test_existing_output_survives_failure_of_the_other(self, tmp_path, capsys):
        (tmp_path / "m.csv").write_text("earlier csv\n")
        assert main(["simulate", "--scenario", "healthy-100",
                     "--out-csv", str(tmp_path / "m.csv"),
                     "--out-summary", str(tmp_path / "missing" / "m.json")]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
        assert (tmp_path / "m.csv").read_text() == "earlier csv\n"

    @pytest.mark.parametrize("summary", ["m.json", "m.csv"])
    def test_interrupted_run_removes_only_new_outputs(self, tmp_path, monkeypatch, summary):
        # A path named twice is removed once; an earlier file is left as it was.
        (tmp_path / "old.csv").write_text("earlier csv\n")

        def interrupt(scenario):
            raise KeyboardInterrupt
        monkeypatch.setattr(sim, "run", interrupt)
        for csv_name in ("old.csv", "m.csv"):
            with pytest.raises(KeyboardInterrupt):
                main(["simulate", "--scenario", "healthy-100", "--out-csv",
                      str(tmp_path / csv_name), "--out-summary", str(tmp_path / summary)])
            assert sorted(os.listdir(tmp_path)) == ["old.csv"]
        assert (tmp_path / "old.csv").read_text() == "earlier csv\n"

    def test_bundled_healthy_scenario(self, tmp_path, capsys):
        out_csv = tmp_path / "m.csv"
        out_summary = tmp_path / "m.json"
        rc = main(["simulate", "--scenario", "healthy-100",
                   "--out-csv", str(out_csv), "--out-summary", str(out_summary)])
        assert rc == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(row["timeouts"] == "0" for row in rows)
        summary = json.loads(out_summary.read_text())
        assert summary["total_timeouts"] == 0

    def test_summary_line_reports_run_time(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", "crash-minority",
                     "--out-csv", str(tmp_path / "m.csv"),
                     "--out-summary", str(tmp_path / "m.json")]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert re.fullmatch(r"4 epochs: 74 commits, 6 timeouts, recovery 1 "
                            r"\(\d+\.\d ms, \d+ rounds/s\)", line), line

    def test_bundled_crash_minority_recovers(self, tmp_path):
        out_summary = tmp_path / "m.json"
        rc = main(["simulate", "--scenario", "crash-minority",
                   "--out-csv", str(tmp_path / "m.csv"),
                   "--out-summary", str(out_summary)])
        assert rc == 0
        summary = json.loads(out_summary.read_text())
        assert summary["recovery_epochs"] == 1

    def test_malformed_json_line_anchored_no_outputs(self, tmp_path, capsys):
        scenario = tmp_path / "bad.json"
        scenario.write_text('{"seed": 1,\n  "epochs": }\n')
        rc = main(["simulate", "--scenario", str(scenario),
                   "--out-csv", str(tmp_path / "m.csv"),
                   "--out-summary", str(tmp_path / "m.json")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {scenario}:2:13: Expecting value\n"
        assert not (tmp_path / "m.csv").exists()
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("case", ["zero-denominator", "nested-too-deep", "duplicate-key"])
    def test_unparsable_scenario_one_error_line_no_outputs(self, tmp_path, capsys, case):
        from importlib import resources
        text = resources.files("delaytower").joinpath(
            "scenarios", "crash-minority.json").read_text()
        doc = json.loads(text)
        doc["epoch_config"]["liveliness_threshold"] = "1/0"
        scenario = tmp_path / "bad.json"
        scenario.write_text({"zero-denominator": json.dumps(doc), "nested-too-deep": "[" * 100000,
                             "duplicate-key": '{"seed": 1, ' + text.lstrip()[1:]}[case])
        rc = main(["simulate", "--scenario", str(scenario),
                   "--out-csv", str(tmp_path / "m.csv"),
                   "--out-summary", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {scenario}: ") and err.count("\n") == 1, err
        assert not (tmp_path / "m.csv").exists()
        assert not (tmp_path / "m.json").exists()

    def test_invalid_scenario_no_outputs(self, tmp_path, capsys):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({
            "seed": 1, "epochs": 2,
            "population": [{"address": "aa", "behavior": {"kind": "honest"},
                            "mining_rate": 1}],
            "genesis_validators": ["aa"],
        }))
        rc = main(["simulate", "--scenario", str(scenario),
                   "--out-csv", str(tmp_path / "m.csv"),
                   "--out-summary", str(tmp_path / "m.json")])
        assert rc == 2
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("name", sorted(SIMULATE_SHA256))
    def test_bundled_outputs_pinned(self, tmp_path, name):
        paths = (tmp_path / "m.csv", tmp_path / "m.json")
        assert main(["simulate", "--scenario", name, "--out-csv", str(paths[0]),
                     "--out-summary", str(paths[1])]) == 0
        assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths) == \
            SIMULATE_SHA256[name]

    def test_malformed_scenario_shape_no_outputs(self, tmp_path, capsys):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({
            "seed": 1, "epochs": 2,
            "population": [{"address": "aa", "behavior": "honest", "mining_rate": 1}],
            "genesis_validators": ["aa"],
        }))
        rc = main(["simulate", "--scenario", str(scenario),
                   "--out-csv", str(tmp_path / "m.csv"),
                   "--out-summary", str(tmp_path / "m.json")])
        assert rc == 2
        assert "bad.json" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_non_integer_epochs_usage_error(self, tmp_path, capsys):
        doc = json.loads(resources.files("delaytower").joinpath(
            "scenarios", "crash-minority.json").read_text())
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({**doc, "epochs": 2.5}))
        rc = main(["simulate", "--scenario", str(scenario),
                   "--out-csv", str(tmp_path / "m.csv"),
                   "--out-summary", str(tmp_path / "m.json")])
        assert rc == 2
        assert "epochs must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_empty_address_usage_error(self, tmp_path, capsys):
        scenario = tmp_path / "bad.json"
        population = [{"address": a, "mining_rate": 1} for a in ("aa", "bb", "cc", "dd")]
        scenario.write_text(json.dumps({
            "seed": 1, "epochs": 1,
            "population": population + [{"address": "", "mining_rate": {"real_vdf": True}}],
            "genesis_validators": ["aa", "bb", "cc", "dd"],
        }))
        rc = main(["simulate", "--scenario", str(scenario),
                   "--out-csv", str(tmp_path / "m.csv"),
                   "--out-summary", str(tmp_path / "m.json")])
        assert rc == 2
        assert "empty address" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_repeated_genesis_validator_usage_error(self, tmp_path, capsys):
        doc = json.loads(resources.files("delaytower").joinpath(
            "scenarios", "crash-minority.json").read_text())
        scenario = tmp_path / "bad.json"
        validators = doc["genesis_validators"]
        scenario.write_text(json.dumps({**doc, "genesis_validators": validators[:1] + validators}))
        rc = main(["simulate", "--scenario", str(scenario),
                   "--out-csv", str(tmp_path / "m.csv"),
                   "--out-summary", str(tmp_path / "m.json")])
        assert rc == 2
        assert "duplicate" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_non_utf8_scenario_usage_error(self, tmp_path, capsys):
        scenario = tmp_path / "bad.json"
        scenario.write_bytes(b"\xff\xfe{}")
        rc = main(["simulate", "--scenario", str(scenario),
                   "--out-csv", str(tmp_path / "m.csv"),
                   "--out-summary", str(tmp_path / "m.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "m.csv").exists()

    def test_non_utf8_scenario_named_in_error(self, tmp_path, capsys):
        scenario = tmp_path / "bad.json"
        scenario.write_bytes(b"\xff\xfe{}")
        rc = main(["simulate", "--scenario", str(scenario),
                   "--out-csv", str(tmp_path / "m.csv"),
                   "--out-summary", str(tmp_path / "m.json")])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {scenario}: 'utf-8' codec can't decode "
                                           "byte 0xff in position 0: invalid start byte\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_other_prime_length_usage_error(self, tmp_path, capsys):
        doc = json.loads(resources.files("delaytower").joinpath(
            "scenarios", "crash-minority.json").read_text())
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({**doc, "security": {**doc["security"],
                                                            "prime_length_bits": 1024}}))
        rc = main(["simulate", "--scenario", str(scenario),
                   "--out-csv", str(tmp_path / "m.csv"),
                   "--out-summary", str(tmp_path / "m.json")])
        assert rc == 2
        assert "prime_length_bits must be 512" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_unknown_scenario_name(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", "no-such-thing",
                   "--out-csv", str(tmp_path / "m.csv"),
                   "--out-summary", str(tmp_path / "m.json")])
        assert rc == 2

    def test_unknown_scenario_name_one_error_line(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", "no-such-name",
                   "--out-csv", str(tmp_path / "m.csv"),
                   "--out-summary", str(tmp_path / "m.json")])
        assert rc == 2
        assert capsys.readouterr() == (
            "", "error: no scenario file or bundled scenario named 'no-such-name'\n")
        assert os.listdir(tmp_path) == []

    def test_directory_as_scenario_one_error_line(self, tmp_path, capsys):
        scenario = tmp_path / "scenario"
        scenario.mkdir()
        rc = main(["simulate", "--scenario", str(scenario),
                   "--out-csv", str(tmp_path / "m.csv"),
                   "--out-summary", str(tmp_path / "m.json")])
        assert rc == 2
        reason = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(scenario))
        assert capsys.readouterr() == ("", f"error: {reason}\n")
        assert os.listdir(tmp_path) == ["scenario"]


class TestClosedStdout:
    """A stdout closed early, as by ``| head``, ends the command: exit 1, no message."""

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("command", ["mine", "bench", "simulate"])
    def test_closed_stdout_ends_quietly(self, tmp_path, command, buffered):
        argv = {"mine": ["mine", "--tower-file", str(tmp_path / "t.bin"),
                         "--key-file", str(tmp_path / "k.hex"), "--proofs", "2", *FAST],
                "bench": ["bench", "--iterations-list", "64", "--samples", "2",
                          "--modulus-bits", "256", "--out", str(tmp_path / "b.csv")],
                "simulate": ["simulate", "--scenario", "healthy-100",
                             "--out-csv", str(tmp_path / "m.csv"),
                             "--out-summary", str(tmp_path / "m.json")]}[command]
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout fails with EPIPE
        try:
            run = subprocess.run([sys.executable, *([] if buffered else ["-u"]),
                                  "-m", "delaytower.cli", *argv], stdout=write_end,
                                 stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (run.returncode, run.stderr) == (1, "")
        # Unbuffered, the first line fails before the work: mine has written its key, and
        # bench's new CSV is removed. Buffered, stdout fails only once the command is done,
        # its files written whole.
        if command == "mine":
            assert len(bytes.fromhex((tmp_path / "k.hex").read_text())) == 32
            assert (tmp_path / "t.bin").exists() is buffered
            if buffered:
                assert tower.load_tower(tmp_path / "t.bin").height == 3
        elif command == "bench":
            assert (tmp_path / "b.csv").exists() is buffered
            if buffered:
                rows = (tmp_path / "b.csv").read_text().splitlines()
                assert rows[0] == "operation,iterations,sample,elapsed_ms" and len(rows) == 11
        else:
            digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                            for name in ("m.csv", "m.json"))
            assert digests == SIMULATE_SHA256["healthy-100"]


class TestOverhead:
    def test_published_figures(self, capsys):
        rc = main(["overhead", "--verify-ms", "115", "--proofs-per-epoch", "48",
                   "--validators", "100", "--epoch-seconds", "86400"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "5.52 s per epoch" in out
        assert "552.00 s per epoch" in out
        assert "0.006389%" in out

    def test_zero_verify_cost(self, capsys):
        rc = main(["overhead", "--verify-ms", "0", "--proofs-per-epoch", "48",
                   "--validators", "100", "--epoch-seconds", "86400"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.00 s per epoch" in out

    @pytest.mark.parametrize("verify_ms", ("nan", "inf", "-inf"))
    def test_non_finite_verify_ms_usage_error(self, capsys, verify_ms):
        rc = main(["overhead", f"--verify-ms={verify_ms}", "--proofs-per-epoch", "48",
                   "--validators", "100", "--epoch-seconds", "86400"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: verify-ms must be" in captured.err

    def test_nonpositive_inputs_usage_error(self):
        rc = main(["overhead", "--verify-ms", "10", "--proofs-per-epoch", "0",
                   "--validators", "100", "--epoch-seconds", "86400"])
        assert rc == 2
