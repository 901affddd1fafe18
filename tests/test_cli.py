"""Command exercises with temp files; exit-code contract throughout."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import re
from importlib import resources

import pytest

from delaytower import tower, vdf
from delaytower.cli import main
from delaytower.ledger import EpochConfig, LedgerState
from delaytower.signing import KeyedHashScheme

FAST = ["--iterations", "64", "--modulus-bits", "256"]

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
        assert re.fullmatch(r"resuming tower at height 4 \(t=64, modulus 256 bits; "
                            r"validated in \d+\.\d ms\)", first), first

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

    @pytest.mark.parametrize("option, value",
                             [("--epoch", "-1"), ("--epoch", str(1 << 64)), ("--proofs", "-3")])
    def test_out_of_range_argument_is_usage_error(self, tmp_path, capsys, option, value):
        assert mine(tmp_path, option, value) == 2
        assert capsys.readouterr().err.startswith(f"error: {option} must be ")
        assert list(tmp_path.iterdir()) == []  # refused before any key or tower is written

    def test_largest_epoch_accepted(self, tmp_path):
        assert mine(tmp_path, "--proofs", "0", "--epoch", str((1 << 64) - 1)) == 0
        assert tower.load_tower(tmp_path / "t.bin").records[0].created_epoch == (1 << 64) - 1

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

    def test_foreign_key_refused(self, tmp_path):
        assert mine(tmp_path, "--proofs", "1") == 0
        (tmp_path / "k.hex").write_text("ab" * 32 + "\n")
        assert mine(tmp_path, "--proofs", "1") == 1

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
        assert main(["verify-tower", "--tower-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert "record 1: INVALID" in captured.out
        assert "record 1" in captured.err

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

    def test_missing_file_distinct_message(self, tmp_path, capsys):
        assert main(["verify-tower", "--tower-file", str(tmp_path / "nope.bin")]) == 1
        assert "no such tower file" in capsys.readouterr().err


class TestBench:
    def test_report_structure_and_direction(self, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        rc = main(["bench", "--iterations-list", "64,128", "--samples", "4",
                   "--out", str(out_path), "--modulus-bits", "256"])
        assert rc == 0
        assert capsys.readouterr().out.startswith(f"powmod: {vdf.powmod_engine()}; cpus: ")
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        operations = {(r["operation"], r["iterations"]) for r in rows}
        assert len(operations) == 6  # three labelled blocks per iteration point
        assert len(rows) == 24
        by_op = {}
        for row in rows:
            by_op.setdefault((row["operation"], row["iterations"]), []).append(
                float(row["elapsed_ms"]))
        for t in ("64", "128"):
            invalid = sum(by_op[("verify-invalid", t)]) / 4
            valid = sum(by_op[("verify-valid", t)]) / 4
            assert invalid < valid

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
        assert len(lines) == 5
        ms = r"(\d+\.\d{3}) ms"
        for label, line in zip(("eval", "verify-valid", "verify-invalid"), lines[1:4]):
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

    def test_bad_iteration_list_usage_error(self, tmp_path):
        rc = main(["bench", "--iterations-list", "ten", "--samples", "2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_nonpositive_samples_usage_error(self, tmp_path, capsys, samples):
        out_path = tmp_path / "b.csv"
        rc = main(["bench", "--iterations-list", "16", "--samples", samples,
                   "--out", str(out_path)])
        assert rc == 2
        assert "--samples" in capsys.readouterr().err
        assert not out_path.exists()


class TestSimulate:
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
        assert ":2:" in capsys.readouterr().err
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

    def test_unknown_scenario_name(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", "no-such-thing",
                   "--out-csv", str(tmp_path / "m.csv"),
                   "--out-summary", str(tmp_path / "m.json")])
        assert rc == 2


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

    def test_nonpositive_inputs_usage_error(self):
        rc = main(["overhead", "--verify-ms", "10", "--proofs-per-epoch", "0",
                   "--validators", "100", "--epoch-seconds", "86400"])
        assert rc == 2
