"""Delay function unit tests: oracle equivalence, soundness, structure."""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import random
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytower import vdf
from delaytower.serialization import DecodeError

from conftest import FOLD_SECURITY, SMALL_SECURITY, full_fold


def small_modulus_params(modulus: int, iterations: int) -> vdf.PublicParams:
    return vdf.PublicParams(modulus=modulus, input_digest=b"\x00" * 32,
                            iterations=iterations, prime_length_bits=512)


def random_composite(rng: random.Random, upper: int = 1 << 16) -> int:
    while True:
        n = rng.randrange(9, upper) | 1
        if not vdf.is_probable_prime(n):
            return n


def assert_transcript_prefix(pp: vdf.PublicParams, x: int) -> None:
    """eval's midpoints are the full fold's levels begun with more than 2^7 steps left."""
    output, proof = vdf.eval(pp, x)
    assert output == pow(x, 1 << pp.iterations, pp.modulus)
    full, entered = full_fold(pp.modulus, x, pp.iterations, output)
    kept = sum(1 for remaining in entered if remaining > 128)
    assert proof.checkpoints == full[:kept], f"t={pp.iterations}"
    assert vdf.expected_checkpoint_count(pp.iterations) == kept
    assert vdf.verify(pp.modulus, pp.iterations, x, output, proof)


class TestSetup:
    def test_deterministic_for_identical_inputs(self):
        a = vdf.setup(SMALL_SECURITY, b"K1", b"E1")
        b = vdf.setup(SMALL_SECURITY, b"K1", b"E1")
        assert a == b

    def test_key_change_changes_digest(self):
        a = vdf.setup(SMALL_SECURITY, b"K1", b"E1")
        b = vdf.setup(SMALL_SECURITY, b"K2", b"E1")
        assert a.input_digest != b.input_digest

    def test_endpoint_change_changes_digest(self):
        a = vdf.setup(SMALL_SECURITY, b"K1", b"E1")
        b = vdf.setup(SMALL_SECURITY, b"K1", b"E2")
        assert a.input_digest != b.input_digest

    def test_bounds_rejected(self):
        with pytest.raises(vdf.InvalidSecurityParams):
            vdf.SecurityParams(modulus_bits=32, iterations=16)
        with pytest.raises(vdf.InvalidSecurityParams):
            vdf.SecurityParams(modulus_bits=512, iterations=0)
        with pytest.raises(vdf.InvalidSecurityParams):
            vdf.SecurityParams(modulus_bits=512, iterations=16, prime_length_bits=8)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            vdf.setup(SMALL_SECURITY, b"", b"E1")

    def test_iterations_round_to_power_of_two(self):
        pp = vdf.setup(vdf.SecurityParams(modulus_bits=512, iterations=1000),
                       b"K1", b"E1")
        assert pp.iterations == 1024
        assert vdf.effective_iterations(1) == 1
        assert vdf.effective_iterations(4) == 4
        assert vdf.effective_iterations(5) == 8


class TestEval:
    def test_known_small_case(self):
        pp = small_modulus_params(35, 3)
        output, proof = vdf.eval(pp, 2)
        assert output == 11
        assert vdf.verify(pp.modulus, pp.iterations, 2, output, proof)

    def test_one_is_fixed_point(self):
        pp = small_modulus_params(35, 5)
        output, _ = vdf.eval(pp, 1)
        assert output == 1

    def test_deterministic(self, small_params):
        x = vdf.hash_to_group(small_params.input_digest, small_params.modulus)
        first = vdf.eval(small_params, x)
        second = vdf.eval(small_params, x)
        assert first == second

    def test_input_out_of_range(self, small_params):
        with pytest.raises(vdf.InputOutOfRange):
            vdf.eval(small_params, 0)
        with pytest.raises(vdf.InputOutOfRange):
            vdf.eval(small_params, small_params.modulus)

    def test_non_unit_input_rejected(self):
        # 39 shares the factor 3 with 3^10, so 39^(2^4) is 0 mod 3^10: there
        # is no output in [1, N) that verify could accept.
        n = random_composite(random.Random(624))
        assert n == 3 ** 10
        with pytest.raises(vdf.InputOutOfRange):
            vdf.eval(small_modulus_params(n, 4), 39)
        # 3^(2^1) = 9 is honest arithmetic, but neither 3 nor 9 is a unit.
        assert not vdf.verify(n, 1, 3, 9, vdf.VdfProof(9, (), 512))
        assert vdf.verify(n, 1, 2, 4, vdf.VdfProof(4, (), 512))

    def test_checkpoint_count_for_power_of_two(self, transcript):
        _, _, _, proof = transcript
        assert len(proof.checkpoints) == 3  # log2(1024) - 7
        for k in range(24):
            assert vdf.expected_checkpoint_count(1 << k) == max(0, k - 7)

    def test_thread_safe(self, small_params):
        pp = small_modulus_params(small_params.modulus, 1024)
        xs = [vdf.hash_to_group(bytes([i]), pp.modulus) for i in range(16)]
        expected = [vdf.eval(pp, x) for x in xs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda x: vdf.eval(pp, x), xs * 4, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == expected * 4

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_matches_bruteforce_oracle(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        n = random_composite(rng)
        x = data.draw(st.integers(1, n - 1))
        t = data.draw(st.integers(1, 256))
        pp = small_modulus_params(n, t)
        if math.gcd(x, n) != 1:
            with pytest.raises(vdf.InputOutOfRange):
                vdf.eval(pp, x)
            return
        output, proof = vdf.eval(pp, x)
        assert output == pow(x, 1 << t, n)
        assert vdf.verify(pp.modulus, pp.iterations, x, output, proof)


class TestTranscriptPrefix:
    """eval's midpoints are the leading levels of the full fold (``full_fold``),
    up to where 2^7 steps or fewer remain."""

    def test_every_small_step_count(self, small_params):
        x = vdf.hash_to_group(small_params.input_digest, small_params.modulus)
        for t in range(1, 301):
            assert_transcript_prefix(small_modulus_params(small_params.modulus, t), x)

    def test_cli_step_count(self, small_params):
        x = vdf.hash_to_group(small_params.input_digest, small_params.modulus)
        for t in (1024, 4096):
            assert_transcript_prefix(small_modulus_params(small_params.modulus, t), x)

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_matches_straight_fold_oracle(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        n = random_composite(rng)
        x = data.draw(st.integers(1, n - 1))
        t = data.draw(st.integers(1, 2048))
        if math.gcd(x, n) == 1:
            assert_transcript_prefix(small_modulus_params(n, t), x)


@pytest.fixture
def power_calls(monkeypatch) -> list[int]:
    """Exponents of every exponentiation in the group, on either engine, in order."""
    exponents = []
    for registers in (vdf._LibcryptoRegisters, vdf._BuiltinRegisters):
        def spy(self, dst, src, exponent, power=registers.power):
            exponents.append(exponent)
            power(self, dst, src, exponent)

        monkeypatch.setattr(registers, "power", spy)
    return exponents


# Step counts on both sides of MAX_DIRECT_SQUARINGS, of the chunk lengths and
# of powers of two; chunk lengths that do and do not divide them.
LOOP_STEPS = (1, 2, 127, 128, 129, 255, 256, 257, 1000, 1024, 4096, 1 << 17)
LOOP_CHUNKS = (1, 7, 256, vdf._LOOP_CHUNK)


@pytest.fixture(scope="module")
def loop_input(small_params):
    return small_params.modulus, vdf.hash_to_group(small_params.input_digest,
                                                   small_params.modulus)


@functools.lru_cache(maxsize=None)
def squaring_oracle(modulus: int, x: int, t: int) -> tuple[int, tuple[int, ...]]:
    """Output by t squarings ``y * y % N`` and the transcript ``full_fold`` keeps."""
    y = x
    for _ in range(t):
        y = y * y % modulus
    full, entered = full_fold(modulus, x, t, y)
    return y, full[:sum(1 for remaining in entered if remaining > vdf.MAX_DIRECT_SQUARINGS)]


def polls(t: int, chunk: int) -> list[int]:
    """Squarings done as each loop call returns to Python, where a pending
    interrupt is raised: each half of the loop is cut into ``chunk``s on its own."""
    half = t - t // 2
    return [start + min(done + chunk, steps)
            for start, steps in ((0, half), (half, t - half))
            for done in range(0, steps, chunk)]


class LoopSpy:
    """Records the (squarings, value) of each call eval's loop makes, the only
    exponentiations into register Y, on either engine; raises KeyboardInterrupt
    after call ``interrupt_after``, as Ctrl-C arriving during it would."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[int, int]] = []
        self.interrupt_after = None
        for registers in (vdf._LibcryptoRegisters, vdf._BuiltinRegisters):
            def spy(regs, dst, src, exponent, power=registers.power):
                power(regs, dst, src, exponent)
                if dst == vdf._Y:
                    self.calls.append((exponent.bit_length() - 1, regs.value(dst)))
                    if len(self.calls) == self.interrupt_after:
                        raise KeyboardInterrupt

            monkeypatch.setattr(registers, "power", spy)

    def polls(self) -> list[int]:
        return list(itertools.accumulate(steps for steps, _ in self.calls))


class TestChunkedLoop:
    """The squaring loop raises to 2^k, at most ``_LOOP_CHUNK`` squarings a call;
    outputs and proofs are those of t squarings ``y * y % N``, and an interrupt
    can stop it after any call."""

    @pytest.mark.parametrize("chunk", LOOP_CHUNKS)
    @pytest.mark.parametrize("t", LOOP_STEPS)
    def test_engines_match_squaring_oracle(self, monkeypatch, loop_input, t, chunk):
        modulus, x = loop_input
        pp = small_modulus_params(modulus, t)
        output, checkpoints = squaring_oracle(modulus, x, t)
        expected = (output, vdf.VdfProof(output, checkpoints, 512))
        monkeypatch.setattr(vdf, "_LOOP_CHUNK", chunk)
        assert vdf.eval(pp, x) == expected
        monkeypatch.setattr(vdf, "_LIBCRYPTO", None)
        assert vdf.eval(pp, x) == expected

    @pytest.mark.parametrize("chunk", LOOP_CHUNKS[:-1])
    @pytest.mark.parametrize("t", LOOP_STEPS[:-1])
    def test_polls_and_cancel_checkpoints(self, monkeypatch, loop_input, t, chunk):
        modulus, x = loop_input
        pp = small_modulus_params(modulus, t)
        monkeypatch.setattr(vdf, "_LOOP_CHUNK", chunk)
        spy = LoopSpy(monkeypatch)
        straight = vdf.eval(pp, x)
        assert straight[0] == squaring_oracle(modulus, x, t)[0]
        done = spy.polls()
        assert done == polls(t, chunk)
        # Each call leaves x^(2^done) in Y: every poll is a checkpoint of the loop.
        y, squared = x, 0
        for (_, value), target in zip(spy.calls, done):
            for _ in range(target - squared):
                y = y * y % modulus
            squared = target
            assert value == y, target
        # An interrupt at one of the first few polls stops eval there, and the
        # shared Montgomery context still gives the straight result afterwards.
        for interrupt_after in range(1, min(len(done), 3) + 1):
            spy.calls.clear()
            spy.interrupt_after = interrupt_after
            with pytest.raises(KeyboardInterrupt):
                vdf.eval(pp, x)
            assert spy.polls() == done[:interrupt_after]
        spy.interrupt_after = None
        assert vdf.eval(pp, x) == straight

    def test_polls_pinned(self, monkeypatch, loop_input):
        modulus, x = loop_input
        spy = LoopSpy(monkeypatch)
        for t, chunk, expected in ((20, 7, [7, 10, 17, 20]), (20, 1, list(range(1, 21))),
                                   (20, 256, [10, 20]), (20, 3, [3, 6, 9, 10, 13, 16, 19, 20]),
                                   (21, 5, [5, 10, 11, 16, 21]), (1, 7, [1]),
                                   (4096, vdf._LOOP_CHUNK, [2048, 4096]),
                                   (1 << 17, vdf._LOOP_CHUNK, [1 << 16, 1 << 17])):
            monkeypatch.setattr(vdf, "_LOOP_CHUNK", chunk)
            spy.calls.clear()
            vdf.eval(small_modulus_params(modulus, t), x)
            assert spy.polls() == expected == polls(t, chunk), (t, chunk)

    def test_loop_does_exactly_t_squarings(self, monkeypatch, power_calls, loop_input):
        modulus, x = loop_input
        t, half = 4096, 2048
        calls_at_fold = []

        def fold(*args, fold=vdf._fold):
            calls_at_fold.append(len(power_calls))
            return fold(*args)

        monkeypatch.setattr(vdf, "_fold", fold)
        for chunk in (256, 1000, vdf._LOOP_CHUNK):
            monkeypatch.setattr(vdf, "_LOOP_CHUNK", chunk)
            power_calls.clear()
            calls_at_fold.clear()
            output, _ = vdf.eval(small_modulus_params(modulus, t), x)
            assert output == squaring_oracle(modulus, x, t)[0]
            loop, transcript = power_calls[:calls_at_fold[0]], power_calls[calls_at_fold[0]:]
            assert len(loop) == -(-half // chunk) + -(-(t - half) // chunk), chunk
            assert all(e & (e - 1) == 0 for e in loop)
            assert sum(e.bit_length() - 1 for e in loop) == t
            # The first midpoint comes from the loop: the transcript squares only
            # for levels 2 to 5 (1024 + 512 + 256 + 128 steps).
            assert 1 << (t // 2) not in transcript, chunk
            squarings = [e.bit_length() - 1 for e in transcript if e & (e - 1) == 0]
            assert sum(squarings) == t // 2 - vdf.MAX_DIRECT_SQUARINGS, chunk


def sign_flip_forgery(modulus: int, t: int, x: int) -> tuple[int, vdf.VdfProof]:
    """Claim N - x^(2^t), negating each midpoint while the claim is still flipped.

    (-mu)^r * (-y) = mu^r * y for odd r, so a level with an odd challenge
    repairs the claim; the forgery fails only if every challenge is even.
    """
    claim = modulus - pow(x, 1 << t, modulus)
    xi, yi, remaining, midpoints = x, claim, t, []
    while remaining > vdf.MAX_DIRECT_SQUARINGS:
        if remaining % 2 == 1:
            xi = xi * xi % modulus
            remaining -= 1
        remaining //= 2
        midpoint = pow(xi, 1 << remaining, modulus)
        if pow(xi, 1 << (2 * remaining), modulus) != yi:  # still flipped
            midpoint = modulus - midpoint
        midpoints.append(midpoint)
        r = vdf._challenge(*map(vdf._magnitude, (modulus, xi, yi, midpoint)), len(midpoints))
        xi = pow(xi, r, modulus) * midpoint % modulus
        yi = pow(midpoint, r, modulus) * yi % modulus
    return claim, vdf.VdfProof(claim, tuple(midpoints), 512)


@pytest.fixture(scope="module")
def transcript():
    pp = vdf.setup(FOLD_SECURITY, b"fixture-key", b"fixture-endpoint")
    x = vdf.hash_to_group(pp.input_digest, pp.modulus)
    output, proof = vdf.eval(pp, x)
    return pp, x, output, proof


class TestVerify:
    def test_roundtrip(self, transcript):
        pp, x, output, proof = transcript
        assert vdf.verify(pp.modulus, pp.iterations, x, output, proof)

    def test_output_tamper_rejected(self, transcript):
        pp, x, output, proof = transcript
        bad_output = output + 1 if output + 1 < pp.modulus else output - 1
        bad = vdf.VdfProof(bad_output, proof.checkpoints, 512)
        assert not vdf.verify(pp.modulus, pp.iterations, x, bad_output, bad)

    def test_every_checkpoint_tamper_rejected(self, transcript):
        pp, x, output, proof = transcript
        assert len(proof.checkpoints) >= 2
        for i in range(len(proof.checkpoints)):
            checkpoints = list(proof.checkpoints)
            checkpoints[i] = 1 if checkpoints[i] != 1 else 2
            bad = vdf.VdfProof(output, tuple(checkpoints), 512)
            assert not vdf.verify(pp.modulus, pp.iterations, x, output, bad), \
                f"checkpoint {i} tamper accepted"

    def test_wrong_checkpoint_count_rejected(self, transcript):
        pp, x, output, proof = transcript
        # One level further, and format 1's fold to a single squaring, are
        # honest transcripts of the same claim; only one proof may verify.
        full, _ = full_fold(pp.modulus, x, pp.iterations, output)
        count = len(proof.checkpoints)
        assert full[:count] == proof.checkpoints
        for checkpoints in (proof.checkpoints[:-1], proof.checkpoints + (1,),
                            full[:count + 1], full):
            wrong = vdf.VdfProof(output, checkpoints, 512)
            assert vdf.fast_reject(FOLD_SECURITY, wrong)
            assert not vdf.verify(pp.modulus, pp.iterations, x, output, wrong)

    def test_work_bounded_whatever_the_midpoints(self, power_calls):
        security = vdf.SecurityParams(modulus_bits=512, iterations=1 << 16)
        pp = vdf.setup(security, b"fixture-key", b"fixture-endpoint")
        x = vdf.hash_to_group(pp.input_digest, pp.modulus)
        output, proof = vdf.eval(pp, x)
        assert len(proof.checkpoints) == 9
        exponents = power_calls
        exponents.clear()
        for checkpoints in ((), proof.checkpoints[:1], proof.checkpoints[:-1]):
            short = vdf.VdfProof(output, checkpoints, 512)
            assert vdf.fast_reject(security, short)
            assert not vdf.verify(pp.modulus, pp.iterations, x, output, short)
        assert vdf.verify(pp.modulus, pp.iterations, x, output, proof)
        assert exponents and max(exponents) <= 1 << 128

    def test_out_of_range_elements_rejected(self, transcript):
        pp, x, output, proof = transcript
        assert not vdf.verify(pp.modulus, pp.iterations, 0, output, proof)
        assert not vdf.verify(pp.modulus, pp.iterations, x, pp.modulus, proof)
        bad = vdf.VdfProof(output, (pp.modulus,) + proof.checkpoints[1:], 512)
        assert not vdf.verify(pp.modulus, pp.iterations, x, output, bad)

    def test_soundness_random_tampering(self, transcript):
        pp, x, output, proof = transcript
        assert len(proof.checkpoints) >= 2
        rng = random.Random(1234)
        accepted = 0
        for _ in range(250):
            field = rng.randrange(len(proof.checkpoints) + 1)
            if field == len(proof.checkpoints):
                bad_output = rng.randrange(1, pp.modulus)
                if bad_output == output:
                    continue
                candidate = (x, bad_output, vdf.VdfProof(bad_output, proof.checkpoints, 512))
            else:
                checkpoints = list(proof.checkpoints)
                replacement = rng.randrange(1, pp.modulus)
                if replacement == checkpoints[field]:
                    continue
                checkpoints[field] = replacement
                candidate = (x, output, vdf.VdfProof(output, tuple(checkpoints), 512))
            if vdf.verify(pp.modulus, pp.iterations, *candidate):
                accepted += 1
        assert accepted == 0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: N - 1 has order 2, so an "
                       "output can be claimed with its sign flipped")
    def test_sign_flipped_output_rejected(self, transcript):
        pp, _, _, _ = transcript
        modulus, t = pp.modulus, pp.iterations
        accepted = []
        for seed in range(8):
            x = vdf.hash_to_group(bytes([seed]) * 32, modulus)
            claim, proof = sign_flip_forgery(modulus, t, x)
            if vdf.verify(modulus, t, x, claim, proof):
                accepted.append(seed)
        assert accepted == []

    def test_thread_safe(self, transcript):
        pp, x, output, proof = transcript
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: vdf.verify(pp.modulus, pp.iterations, x, output, proof),
                range(64)))
        assert all(results)


class TestFastReject:
    def test_accepts_valid(self, transcript):
        assert not vdf.fast_reject(FOLD_SECURITY, transcript[3])

    def test_rejects_wrong_prime_length(self, transcript):
        proof = transcript[3]
        bad = vdf.VdfProof(proof.output, proof.checkpoints, 511)
        assert vdf.fast_reject(FOLD_SECURITY, bad)

    def test_rejects_zero_checkpoints(self, transcript):
        bad = vdf.VdfProof(transcript[3].output, (), 512)
        assert vdf.fast_reject(FOLD_SECURITY, bad)

    def test_rejects_oversized_elements(self, transcript):
        proof = transcript[3]
        bad = vdf.VdfProof(1 << 513, proof.checkpoints, 512)
        assert vdf.fast_reject(FOLD_SECURITY, bad)
        bad = vdf.VdfProof(proof.output, (1 << 513,) + proof.checkpoints[1:], 512)
        assert vdf.fast_reject(FOLD_SECURITY, bad)

    def test_thread_safe(self, transcript):
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: vdf.fast_reject(FOLD_SECURITY, transcript[3]), range(64)))
        assert not any(results)


class TestCheckProof:
    def test_outcomes(self, transcript):
        pp, x, output, proof = transcript

        def check(candidate):
            return vdf.check_proof(FOLD_SECURITY, pp.modulus, x, output, candidate)

        assert check(proof) is None
        assert check(vdf.VdfProof(output, proof.checkpoints, 511)) == "screen"
        assert len(proof.checkpoints) >= 2
        for i in range(len(proof.checkpoints)):
            tampered = list(proof.checkpoints)
            tampered[i] = 1 if tampered[i] != 1 else 2
            assert check(vdf.VdfProof(output, tuple(tampered), 512)) == "transcript"

    def test_screen_reject_skips_transcript(self, monkeypatch, transcript):
        pp, x, output, proof = transcript
        calls = []
        monkeypatch.setattr(vdf, "verify", lambda *args: calls.append(args) or True)
        screened = vdf.VdfProof(output, proof.checkpoints, 511)
        assert vdf.check_proof(FOLD_SECURITY, pp.modulus, x, output, screened) == "screen"
        assert calls == []
        assert vdf.check_proof(FOLD_SECURITY, pp.modulus, x, output, proof) is None
        assert calls == [(pp.modulus, 1024, x, output, proof)]


class TestSerialization:
    def test_roundtrip(self, small_params):
        x = vdf.hash_to_group(small_params.input_digest, small_params.modulus)
        _, proof = vdf.eval(small_params, x)
        assert vdf.deserialize_proof(vdf.serialize_proof(proof)) == proof

    def test_truncated_rejected(self, small_params):
        x = vdf.hash_to_group(small_params.input_digest, small_params.modulus)
        _, proof = vdf.eval(small_params, x)
        blob = vdf.serialize_proof(proof)
        with pytest.raises(ValueError):
            vdf.deserialize_proof(blob[:-3])
        with pytest.raises(ValueError):
            vdf.deserialize_proof(blob + b"\x00")

    def test_format_1_refused(self, transcript):
        pp, x, output, proof = transcript
        full, _ = full_fold(pp.modulus, x, pp.iterations, output)
        blob = bytearray(vdf.serialize_proof(vdf.VdfProof(output, full, 512)))
        blob[0] = 1
        with pytest.raises(DecodeError, match="version 1"):
            vdf.deserialize_proof(bytes(blob))

    def test_bad_version_rejected(self, small_params):
        x = vdf.hash_to_group(small_params.input_digest, small_params.modulus)
        _, proof = vdf.eval(small_params, x)
        blob = bytearray(vdf.serialize_proof(proof))
        blob[0] = 99
        with pytest.raises(ValueError):
            vdf.deserialize_proof(bytes(blob))


class TestPowmod:
    """The libcrypto engine and the builtin fallback compute the same powers."""

    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_matches_builtin_pow(self, data):
        bits = data.draw(st.integers(64, 4096))
        modulus = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        base = data.draw(st.one_of(st.sampled_from([0, 1, modulus - 1]),
                                   st.integers(0, modulus - 1)))
        exponent = data.draw(st.integers(0, (1 << data.draw(st.integers(0, 1100))) - 1))
        assert vdf._powmod(base, exponent, modulus) == pow(base, exponent, modulus)

    def test_builtin_fallback_gives_same_results(self, monkeypatch, transcript):
        pp, x, output, proof = transcript
        tampered = vdf.VdfProof(output, (proof.checkpoints[0] ^ 1,) + proof.checkpoints[1:], 512)

        def run():
            return (vdf.eval(pp, x),
                    vdf.verify(pp.modulus, pp.iterations, x, output, proof),
                    vdf.verify(pp.modulus, pp.iterations, x, output, tampered),
                    vdf.is_probable_prime(pp.modulus), vdf.is_probable_prime((1 << 127) - 1))

        engine = run()
        monkeypatch.setattr(vdf, "_LIBCRYPTO", None)
        assert vdf.powmod_engine() == "builtin pow"
        assert run() == engine == ((output, proof), True, False, False, True)

    def test_loader_tries_only_versioned_sonames(self, monkeypatch):
        tried = []

        def refuse(name):
            tried.append(name)
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(vdf.ctypes, "CDLL", refuse)
        assert vdf._load_libcrypto() is None
        assert tried == ["libcrypto.so.3", "libcrypto.so.1.1"]


@contextlib.contextmanager
def switching_often():
    """Switch threads every 10 us, so they interleave at many more points."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


requires_libcrypto = pytest.mark.skipif(vdf._LIBCRYPTO is None, reason="libcrypto did not load")


class TestMontContextCache:
    """One cached, shared ``_MontContext`` per odd modulus; every result equals ``pow``."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        vdf._mont_context.cache_clear()

    def test_more_moduli_than_the_cache_holds(self):
        rng = random.Random(77)
        capacity = vdf._mont_context.cache_info().maxsize
        moduli = [rng.getrandbits(rng.choice((64, 512, 2048))) | 1 | 1 << 63
                  for _ in range(capacity + 5)]
        # Round robin over more moduli than fit, then a shuffled repeat, so
        # lookups hit evicted, rebuilt and resident contexts in turn.
        order = moduli * 2 + rng.sample(moduli * 2, 2 * len(moduli))
        for modulus in order:
            base, exponent = rng.randrange(modulus), rng.getrandbits(rng.choice((1, 2, 130)))
            assert vdf._powmod(base, exponent, modulus) == pow(base, exponent, modulus)
        if vdf._LIBCRYPTO is not None:
            info = vdf._mont_context.cache_info()
            assert info.currsize == capacity
            assert info.misses > len(moduli)  # evicted contexts were rebuilt

    @requires_libcrypto
    def test_evicted_context_is_freed(self, monkeypatch):
        lib = vdf._LIBCRYPTO
        freed = []
        free = lib.BN_MONT_CTX_free
        monkeypatch.setattr(lib, "BN_MONT_CTX_free", lambda mont: freed.append(mont) or free(mont))
        context = vdf._mont_context(lib, vdf.generate_modulus(512))
        mont, alive = context.mont, weakref.ref(context)
        del context
        for other in range(3, 2 * vdf._mont_context.cache_info().maxsize + 3, 2):
            vdf._powmod(2, 5, (1 << 80) + other)
        assert alive() is None
        assert mont in freed

    def test_even_moduli(self):
        rng = random.Random(78)
        moduli = [2, 4, 6, 1 << 64, (1 << 2048) - 2] + [rng.getrandbits(512) & ~1 | 2
                                                        for _ in range(20)]
        for modulus in moduli:
            for base, exponent in ((0, 0), (0, 5), (1, 9), (modulus - 1, 3),
                                   (rng.randrange(modulus), rng.getrandbits(300))):
                assert vdf._powmod(base, exponent, modulus) == pow(base, exponent, modulus)
        assert vdf._mont_context.cache_info().currsize == 0

    def test_four_threads_share_one_context(self, transcript):
        pp, x, output, proof = transcript
        rng = random.Random(79)
        cases = [(rng.randrange(pp.modulus), rng.getrandbits(256)) for _ in range(50)]
        vdf.verify(pp.modulus, pp.iterations, x, output, proof)
        start = threading.Barrier(4, timeout=60)

        def work(_):
            start.wait()
            return ([vdf._powmod(base, exponent, pp.modulus) for base, exponent in cases],
                    [vdf.verify(pp.modulus, pp.iterations, x, output, proof) for _ in range(5)],
                    vdf.eval(pp, x))

        with switching_often(), ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(4), timeout=120))
        expected = ([pow(base, exponent, pp.modulus) for base, exponent in cases],
                    [True] * 5, (output, proof))
        assert results == [expected] * 4
        if vdf._LIBCRYPTO is not None:
            assert vdf._mont_context.cache_info().misses == 1  # built once, then shared

    def test_eviction_while_in_use(self, transcript):
        # Two threads hold registers on one context while two others push it
        # out of the cache: it must outlive its eviction until they finish.
        pp, x, output, proof = transcript
        capacity = vdf._mont_context.cache_info().maxsize
        start = threading.Barrier(4, timeout=60)

        def use(_):
            with vdf._registers(pp.modulus) as regs:
                regs.load(vdf._X, x)
                start.wait()
                for _ in range(200):
                    regs.power(vdf._X, vdf._X, 1 << 256)
                return regs.value(vdf._X)

        def churn(seed):
            start.wait()
            rng = random.Random(seed)
            moduli = [rng.getrandbits(512) | 1 | 1 << 511 for _ in range(2 * capacity)]
            return all(vdf._powmod(3, 65537, m) == pow(3, 65537, m) for m in moduli)

        with switching_often(), ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(use, 0), pool.submit(use, 1),
                       pool.submit(churn, 2), pool.submit(churn, 3)]
            results = [future.result(timeout=120) for future in futures]
        assert results == [pow(x, 1 << (200 * 256), pp.modulus)] * 2 + [True] * 2

    @requires_libcrypto
    def test_builtin_after_warm_cache(self, monkeypatch, transcript):
        pp, x, output, proof = transcript
        assert vdf.eval(pp, x) == (output, proof)
        warm = vdf._mont_context.cache_info()
        assert warm.currsize == 1
        monkeypatch.setattr(vdf, "_LIBCRYPTO", None)
        assert vdf.eval(pp, x) == (output, proof)
        assert vdf.verify(pp.modulus, pp.iterations, x, output, proof)
        assert vdf._powmod(x, 12345, pp.modulus) == pow(x, 12345, pp.modulus)
        assert vdf._mont_context.cache_info() == warm  # the builtin never looks


class TestGroupMapping:
    def test_hash_to_group_in_range(self):
        rng = random.Random(5)
        for _ in range(200):
            n = random_composite(rng)
            value = vdf.hash_to_group(rng.randbytes(32), n)
            assert 2 <= value < n - 1

    def test_modulus_is_composite_and_sized(self):
        n = vdf.generate_modulus(512, b"test-seed")
        assert n.bit_length() == 512
        assert n % 2 == 1
        assert not vdf.is_probable_prime(n)

    def test_modulus_deterministic(self):
        assert vdf.generate_modulus(512, b"a") == vdf.generate_modulus(512, b"a")
        assert vdf.generate_modulus(512, b"a") != vdf.generate_modulus(512, b"b")

    def test_modulus_cache_ignores_calling_convention(self):
        vdf.generate_modulus.cache_clear()
        n = vdf.generate_modulus(256)
        assert vdf.generate_modulus(256, vdf.DEFAULT_MODULUS_SEED) == n
        assert vdf.generate_modulus(256, seed=vdf.DEFAULT_MODULUS_SEED) == n
        info = vdf.generate_modulus.cache_info()
        assert (info.misses, info.hits) == (1, 2)
