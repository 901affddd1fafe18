"""Delay function unit tests: oracle equivalence, soundness, structure."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import itertools
import math
import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytower import vdf
from delaytower.serialization import DecodeError, encode_bigint, encode_bytes, magnitude

from conftest import FOLD_SECURITY, SMALL_SECURITY, format_3_proof, full_fold


def small_modulus_params(modulus: int, iterations: int) -> vdf.PublicParams:
    return vdf.PublicParams(modulus=modulus, public_key=b"test-key", endpoint=b"",
                            iterations=iterations)


def random_composite(rng: random.Random, upper: int = 1 << 16) -> int:
    while True:
        n = rng.randrange(9, upper) | 1
        if not vdf.is_probable_prime(n):
            return n


def canonical(value: int, modulus: int) -> int:
    return min(value, modulus - value)


def assert_transcript_prefix(pp: vdf.PublicParams, x: int) -> None:
    """eval's midpoints are the full fold's levels begun with more than 2^7 steps left."""
    output, proof = vdf.eval(pp, x)
    assert output == canonical(pow(x, 1 << pp.iterations, pp.modulus), pp.modulus)
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
            vdf.SecurityParams.from_doc({"modulus_bits": 512, "iterations": 16,
                                         "prime_length_bits": 8})

    @pytest.mark.parametrize("bits, iterations, field, value", [
        (1024.0, 16, "modulus_bits", 1024.0), (512, True, "iterations", True),
        ("512", 16, "modulus_bits", "512"), (512, 16.0, "iterations", 16.0)])
    def test_non_integer_field_rejected_at_construction(self, bits, iterations, field, value):
        # The message from_doc gives for the same value in a document.
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
            vdf.SecurityParams(bits, iterations)

    @pytest.mark.parametrize("bits, accepted", [(63, False), (64, True), (8192, True),
                                                (8193, False)])
    def test_modulus_size_bounds(self, bits, accepted):
        if accepted:
            assert vdf.SecurityParams(bits, 1).modulus_bits == bits
        else:
            with pytest.raises(vdf.InvalidSecurityParams, match="^modulus_bits must "):
                vdf.SecurityParams(bits, 1)

    @pytest.mark.parametrize("modulus", [1, 2, 3, 4, 2**64])
    def test_degenerate_modulus_named(self, modulus):
        # 3 is prime too, but the named rule refuses it first.
        with pytest.raises(ValueError, match="^modulus must be an odd integer greater than 3$"):
            vdf.check_modulus(modulus)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            vdf.setup(SMALL_SECURITY, b"", b"E1")

    def test_zero_iterations_rejected(self, small_params):
        with pytest.raises(ValueError, match="^iterations must be >= 1$"):
            dataclasses.replace(small_params, iterations=0)

    def test_iterations_must_be_a_power_of_two(self):
        for iterations in (3, 5, 1000, 0):
            with pytest.raises(vdf.InvalidSecurityParams,
                               match=f"^iterations must be a power of two, got {iterations}$"):
                vdf.SecurityParams(modulus_bits=512, iterations=iterations)
        for iterations in (1, 4, 1 << 20):
            security = vdf.SecurityParams(modulus_bits=512, iterations=iterations)
            assert vdf.setup(security, b"K1", b"E1").iterations == security.iterations


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
        x = vdf.hash_to_group(small_params.input_digest, small_params.modulus)
        with pytest.raises(vdf.InputOutOfRange, match="canonical"):
            vdf.eval(small_params, small_params.modulus - x)

    def test_non_unit_input_rejected(self):
        # 39 shares the factor 3 with 3^10, so 39^(2^4) is 0 mod 3^10: there
        # is no output in [1, N) that verify could accept.
        n = random_composite(random.Random(624))
        assert n == 3 ** 10
        with pytest.raises(vdf.InputOutOfRange):
            vdf.eval(small_modulus_params(n, 4), 39)
        # 3^(2^1) = 9 is honest arithmetic, but neither 3 nor 9 is a unit.
        assert not vdf.verify(n, 1, 3, 9, vdf.VdfProof(()))
        assert vdf.verify(n, 1, 2, 4, vdf.VdfProof(()))

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
        x = data.draw(st.integers(1, n // 2))
        t = data.draw(st.integers(1, 256))
        pp = small_modulus_params(n, t)
        if math.gcd(x, n) != 1:
            with pytest.raises(vdf.InputOutOfRange):
                vdf.eval(pp, x)
            return
        output, proof = vdf.eval(pp, x)
        assert output == canonical(pow(x, 1 << t, n), n)
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
        x = data.draw(st.integers(1, n // 2))
        t = data.draw(st.integers(1, 2048))
        if math.gcd(x, n) == 1:
            assert_transcript_prefix(small_modulus_params(n, t), x)


def spy_powmod(monkeypatch, record) -> None:
    """Call ``record(in_loop, exponent, value)`` after every ``_powmod``, on
    either engine, once for each exponent it is given, where ``in_loop`` tells
    the calls of eval's squaring loop from the rest: they are the calls eval
    makes before it opens its transcript."""
    in_loop = False

    def powmod(base, exponent, modulus, factor=1, base2=1, exponent2=0, *, powmod=vdf._powmod,
               **options):
        value = powmod(base, exponent, modulus, factor, base2, exponent2, **options)
        record(in_loop, exponent, value)
        if exponent2:
            record(in_loop, exponent2, value)
        return value

    def evaluate(pp, x, evaluate=vdf.eval):
        nonlocal in_loop
        in_loop = True
        try:
            return evaluate(pp, x)
        finally:
            in_loop = False

    def open_transcript(transcript, *args, init=vdf._Transcript.__init__):
        nonlocal in_loop
        in_loop = False
        init(transcript, *args)

    monkeypatch.setattr(vdf, "_powmod", powmod)
    monkeypatch.setattr(vdf, "eval", evaluate)
    monkeypatch.setattr(vdf._Transcript, "__init__", open_transcript)


@pytest.fixture
def power_calls(monkeypatch) -> list[tuple[bool, int]]:
    """(Made by eval's squaring loop, exponent) of every exponentiation in the
    group, on either engine, in order."""
    calls = []
    spy_powmod(monkeypatch, lambda in_loop, exponent, _: calls.append((in_loop, exponent)))
    return calls


@pytest.fixture
def power_bases(monkeypatch) -> list[tuple[int, int, int]]:
    """(base, exponent, second exponent) of every ``_powmod`` call, in order."""
    calls = []

    def powmod(base, exponent, modulus, factor=1, base2=1, exponent2=0, *, powmod=vdf._powmod,
               **options):
        calls.append((base, exponent, exponent2))
        return powmod(base, exponent, modulus, factor, base2, exponent2, **options)

    monkeypatch.setattr(vdf, "_powmod", powmod)
    return calls


# Step counts on both sides of MAX_DIRECT_SQUARINGS, of the chunk lengths and
# of powers of two; chunk lengths that do and do not divide them.
LOOP_STEPS = (1, 2, 127, 128, 129, 255, 256, 257, 1000, 1024, 4096, (1 << 14) + 1, 1 << 17)
LOOP_CHUNKS = (1, 7, 256, vdf._LOOP_CHUNK)


@pytest.fixture(scope="module")
def loop_input(small_params):
    return small_params.modulus, vdf.hash_to_group(small_params.input_digest,
                                                   small_params.modulus)


@functools.lru_cache(maxsize=None)
def squaring_oracle(modulus: int, x: int, t: int) -> tuple[int, tuple[int, ...]]:
    """Canonical output by t squarings ``y * y % N`` and the transcript ``full_fold`` keeps."""
    y = x
    for _ in range(t):
        y = y * y % modulus
    y = canonical(y, modulus)
    full, entered = full_fold(modulus, x, t, y)
    return y, full[:sum(1 for remaining in entered if remaining > vdf.MAX_DIRECT_SQUARINGS)]


def kept_positions(t: int) -> list[int]:
    """Squarings after which eval's loop keeps a power of x, in level order: those whose
    powers make the midpoints of levels 1 to s = max(2, t.bit_length() // 2 - 4), or of
    every level if fewer begin with more than 2^7 steps left.

    Written from the fold, not from ``vdf``. Level j squares X once more if its steps are
    odd, then halves them to h_j. So its midpoint X_(j-1)^(2^h_j) is the product, over
    i < 2^(j-1), of x^(2^p_i) raised to the r_l whose bit l - 1 of i is clear, l < j:
    p_i is h_j, plus the count of odd levels up to j, plus each h_l whose bit l - 1 of i
    is set."""
    positions, halves, odd, remaining = [], [], 0, t
    while (remaining > vdf.MAX_DIRECT_SQUARINGS
           and len(halves) < max(2, t.bit_length() // 2 - 4)):
        odd += remaining % 2
        remaining //= 2
        positions += [odd + remaining + sum(h for l, h in enumerate(halves) if i >> l & 1)
                      for i in range(1 << len(halves))]
        halves.append(remaining)
    return positions


def polls(t: int, chunk: int) -> list[int]:
    """Squarings done as each loop call returns to Python, where a pending
    interrupt is raised. The loop stops at each kept position
    (``kept_positions``); each stretch between stops is cut into ``chunk``s on
    its own."""
    stops = [0, *sorted(kept_positions(t)), t]
    return [start + min(done + chunk, end - start)
            for start, end in zip(stops, stops[1:])
            for done in range(0, end - start, chunk)]


class LoopSpy:
    """Records the (squarings, value) of each call eval's loop makes, on either
    engine (``spy_powmod``); raises KeyboardInterrupt after call
    ``interrupt_after``, as Ctrl-C arriving during it would."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[int, int]] = []
        self.interrupt_after = None
        spy_powmod(monkeypatch, self._record)

    def _record(self, in_loop: bool, exponent: int, value: int) -> None:
        if in_loop:
            self.calls.append((exponent.bit_length() - 1, value))
            if len(self.calls) == self.interrupt_after:
                raise KeyboardInterrupt

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
        expected = (output, vdf.VdfProof(checkpoints))
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
        # Each call returns x^(2^done): every poll is a checkpoint of the loop.
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
        # Up to 2^7 steps there is no level, so no stop; to 255, one level, one stop
        # at the midpoint. An odd level moves every later stop by one squaring.
        for t, chunk, expected in ((20, 7, [7, 14, 20]), (20, 1, list(range(1, 21))),
                                   (20, 256, [20]), (20, 3, [3, 6, 9, 12, 15, 18, 20]),
                                   (21, 5, [5, 10, 15, 20, 21]), (1, 7, [1]),
                                   (200, 64, [64, 100, 164, 200]),
                                   (259, 50, [50, 66, 116, 130, 180, 195, 245, 259]),
                                   (4096, vdf._LOOP_CHUNK, [1024, 2048, 3072, 4096]),
                                   ((1 << 14) + 1, vdf._LOOP_CHUNK,
                                    [1 + (k << 11) for k in range(1, 9)]),
                                   (1 << 17, vdf._LOOP_CHUNK,
                                    list(range(1 << 12, (1 << 17) + 1, 1 << 12)))):
            monkeypatch.setattr(vdf, "_LOOP_CHUNK", chunk)
            spy.calls.clear()
            vdf.eval(small_modulus_params(modulus, t), x)
            assert spy.polls() == expected == polls(t, chunk), (t, chunk)

    def test_loop_does_exactly_t_squarings(self, monkeypatch, power_calls, loop_input):
        modulus, x = loop_input
        for t, chunk in itertools.product((512, 1024, 4096, 1 << 16),
                                          (256, 1000, vdf._LOOP_CHUNK)):
            monkeypatch.setattr(vdf, "_LOOP_CHUNK", chunk)
            power_calls.clear()
            output, proof = vdf.eval(small_modulus_params(modulus, t), x)
            assert (output, proof.checkpoints) == squaring_oracle(modulus, x, t)
            loop = [e for in_loop, e in power_calls if in_loop]
            transcript = [e for in_loop, e in power_calls if not in_loop]
            assert len(loop) == len(polls(t, chunk)), (t, chunk)
            assert all(e & (e - 1) == 0 for e in loop)
            assert sum(e.bit_length() - 1 for e in loop) == t
            # Levels 1 to s come from the loop's powers, so the transcript squares
            # only for levels s + 1 on (t/2^(s+1) + ... + 128 steps), and never
            # again by the stretches the loop already squared.
            s = len(kept_positions(t)).bit_length()
            squarings = [e.bit_length() - 1 for e in transcript if e & (e - 1) == 0]
            assert max(squarings, default=0) <= t >> (s + 1), (t, chunk)
            assert sum(squarings) == (t >> s) - vdf.MAX_DIRECT_SQUARINGS, (t, chunk)


class TestKeptPowers:
    """``squarings`` keeps x^(2^p) at each position that levels 1 to s fold, and
    ``prove`` makes those levels' midpoints from them, on both engines."""

    @pytest.mark.parametrize("t, s", ((1 << 12, 2), (1 << 14, 3), (1 << 16, 4), (1 << 18, 5)))
    def test_proofs_match_full_fold(self, monkeypatch, loop_input, t, s):
        modulus, x = loop_input
        pp = small_modulus_params(modulus, t)
        for engine in (vdf._LIBCRYPTO, None):
            monkeypatch.setattr(vdf, "_LIBCRYPTO", engine)
            output, powers = vdf.squarings(pp, x)
            assert len(powers) == (1 << s) - 1 == len(kept_positions(t))
            proof = vdf.prove(pp, x, output, powers)
            assert (output, proof.checkpoints) == squaring_oracle(modulus, x, t), engine

    # Level j <= s folds its 2^(j-1) kept powers in 2^(j-1) - 1 calls; each later level
    # squares X in one; every level but the last folds X, so no call follows the last
    # midpoint. t = 2^12: s = 2, 5 levels, 1 + 3 + 4 calls; t = 2^16: s = 4, 9 levels,
    # 11 + 5 + 8 calls.
    @pytest.mark.parametrize("t, calls", ((1 << 12, 8), (1 << 16, 24)))
    def test_prove_calls_pinned(self, monkeypatch, loop_input, t, calls):
        modulus, x = loop_input
        pp = small_modulus_params(modulus, t)
        output, powers = vdf.squarings(pp, x)
        made = []
        monkeypatch.setattr(vdf, "_powmod", lambda *args, powmod=vdf._powmod, **options:
                            made.append(args) or powmod(*args, **options))
        proof = vdf.prove(pp, x, output, powers)
        assert len(made) == calls
        assert (output, proof.checkpoints) == squaring_oracle(modulus, x, t)

    def test_each_kept_power_by_plain_squaring(self, monkeypatch, loop_input):
        modulus, x = loop_input
        for t in (*LOOP_STEPS, 300, (1 << 14) + 3, 1 << 16, (1 << 16) + 3):
            positions, squared, y = kept_positions(t), {}, x
            for p in range(1, max(positions, default=0) + 1):
                y = y * y % modulus
                squared[p] = y
            expected = tuple(squared[p] for p in positions)
            for engine in (vdf._LIBCRYPTO, None):
                monkeypatch.setattr(vdf, "_LIBCRYPTO", engine)
                assert vdf.squarings(small_modulus_params(modulus, t), x)[1] == expected, t


def sign_flip_forgery(modulus: int, t: int, x: int) -> tuple[int, vdf.VdfProof]:
    """Claim N - y for the canonical output y, negating each midpoint while the
    claim is still flipped; challenges follow format 3's transcript rule.

    (-mu)^r * (-y) = mu^r * y for odd r, so a level with an odd challenge
    repairs the claim. A verifier that took any element in [1, N) and compared
    the two sides exactly would reject it only if every challenge were even.
    """
    claim = modulus - canonical(pow(x, 1 << t, modulus), modulus)
    transcript = vdf._Transcript(modulus, t, x, claim)
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
        r = transcript.challenge(midpoint)
        xi = pow(xi, r, modulus) * midpoint % modulus
        yi = pow(midpoint, r, modulus) * yi % modulus
    return claim, vdf.VdfProof(tuple(midpoints))


def tampered_claims(pp, x, output, proof) -> list[tuple[int, int, vdf.VdfProof]]:
    """(x, y, proof) of the honest claim, then with the input, the output or one
    midpoint moved to a neighbouring canonical element. The input enters only
    the left side of the fold, the output only the right, a midpoint both."""
    def moved(value: int) -> int:
        return value - 1 if value > 2 else value + 1

    claims = [(x, output, proof), (moved(x), output, proof),
              (x, moved(output), proof)]
    for i in range(len(proof.checkpoints)):
        midpoints = list(proof.checkpoints)
        midpoints[i] = moved(midpoints[i])
        claims.append((x, output, vdf.VdfProof(tuple(midpoints))))
    return claims


def two_sided_fold(modulus: int, t: int, x: int, y: int, proof: vdf.VdfProof) -> bool:
    """Reference verifier: the fold ``vdf.verify`` made before it checked the
    last level unfolded. Every level folds both sides, X^r * mu and mu^r * Y,
    and the last claim, at most 2^7 squarings, is squared out; builtin ``pow``."""
    midpoints = proof.checkpoints
    if len(midpoints) != vdf.expected_checkpoint_count(t):
        return False
    if not all(1 <= element <= modulus // 2 for element in (x, y, *midpoints)):
        return False
    if math.gcd(x * y, modulus) != 1:
        return False
    transcript = vdf._Transcript(modulus, t, x, y)
    X, Y, remaining = x, y, t
    for midpoint in midpoints:
        r = transcript.challenge(midpoint)
        if remaining % 2 == 1:
            X = X * X % modulus
        remaining //= 2
        X = pow(X, r, modulus) * midpoint % modulus
        Y = pow(midpoint, r, modulus) * Y % modulus
    return canonical(pow(X, 1 << remaining, modulus), modulus) == canonical(Y, modulus)


# Step counts with no midpoint, one, two and more, and with odd remainders at
# the levels verify folds and at the one it checks unfolded (129, 259, 1023).
REFERENCE_STEPS = (1, 64, 128, 129, 200, 256, 259, 300, 1023, 4096)


# Only libcrypto work goes to verify's worker: the builtin pow holds the GIL.
HANDS_OFF = vdf._LIBCRYPTO is not None


@pytest.fixture
def submitted(monkeypatch) -> list[tuple]:
    """Arguments of every task queued on the package's worker."""
    calls = []

    def submit(fn, *args, submit=vdf._RIGHT_SIDES.submit):
        calls.append(args)
        return submit(fn, *args)

    monkeypatch.setattr(vdf._RIGHT_SIDES, "submit", submit)
    return calls


@pytest.fixture
def hand_offs(monkeypatch, submitted) -> list[tuple]:
    """Arguments of every right side handed to verify's worker, at any modulus size."""
    monkeypatch.setattr(vdf, "_HAND_OFF_BITS", 0)
    return submitted


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
        assert not vdf.verify(pp.modulus, pp.iterations, x, bad_output, proof)

    def test_every_checkpoint_tamper_rejected(self, transcript):
        pp, x, output, proof = transcript
        assert len(proof.checkpoints) >= 2
        for i in range(len(proof.checkpoints)):
            checkpoints = list(proof.checkpoints)
            checkpoints[i] = 1 if checkpoints[i] != 1 else 2
            bad = vdf.VdfProof(tuple(checkpoints))
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
            wrong = vdf.VdfProof(checkpoints)
            assert vdf.fast_reject(pp.modulus, pp.iterations, wrong)
            assert not vdf.verify(pp.modulus, pp.iterations, x, output, wrong)

    def test_work_bounded_whatever_the_midpoints(self, power_calls):
        security = vdf.SecurityParams(modulus_bits=512, iterations=1 << 16)
        pp = vdf.setup(security, b"fixture-key", b"fixture-endpoint")
        x = vdf.hash_to_group(pp.input_digest, pp.modulus)
        output, proof = vdf.eval(pp, x)
        assert len(proof.checkpoints) == 9
        power_calls.clear()
        for checkpoints in ((), proof.checkpoints[:1], proof.checkpoints[:-1]):
            short = vdf.VdfProof(checkpoints)
            assert vdf.fast_reject(pp.modulus, pp.iterations, short)
            assert not vdf.verify(pp.modulus, pp.iterations, x, output, short)
        assert vdf.verify(pp.modulus, pp.iterations, x, output, proof)
        assert power_calls and max(e for _, e in power_calls) <= 1 << 128

    @pytest.mark.parametrize("engine", ("libcrypto", "builtin pow"))
    def test_accepts_only_what_the_two_sided_fold_accepts(self, monkeypatch, small_params,
                                                          engine):
        if engine == "builtin pow":
            monkeypatch.setattr(vdf, "_LIBCRYPTO", None)
        elif vdf._LIBCRYPTO is None:
            pytest.skip("libcrypto did not load")
        modulus = small_params.modulus
        rng = random.Random(2101)
        for t in REFERENCE_STEPS:
            x = vdf.hash_to_group(t.to_bytes(4, "big"), modulus)
            y, proof = vdf.eval(small_modulus_params(modulus, t), x)
            assert vdf.verify(modulus, t, x, y, proof) and two_sided_fold(modulus, t, x, y, proof)
            # x, y and each midpoint, the last one too, moved to a neighbour
            # or replaced by a random canonical element.
            fields = [x, y, *proof.checkpoints]
            for i, replacement in itertools.product(range(len(fields)), ("down", "up", "random")):
                tampered = list(fields)
                tampered[i] = {"down": fields[i] - 1, "up": fields[i] + 1,
                               "random": canonical(rng.randrange(1, modulus), modulus)}[replacement]
                if tampered[i] == fields[i]:
                    continue
                claim = (tampered[0], tampered[1], vdf.VdfProof(tuple(tampered[2:])))
                verdict = vdf.verify(modulus, t, *claim)
                assert verdict <= two_sided_fold(modulus, t, *claim), (t, i, replacement)
                assert not verdict, (t, i, replacement)

    def test_right_side_two_midpoints_a_call(self, power_bases):
        # Five midpoints at t = 4096: the left folds four and squares 2^7
        # times; the right takes the first four in two calls, then squares
        # the last 2^7 times.
        pp = small_modulus_params(vdf.generate_modulus(512), 4096)
        x = vdf.hash_to_group(pp.input_digest, pp.modulus)
        y, proof = vdf.eval(pp, x)
        k = len(proof.checkpoints)
        assert k == 5
        power_bases.clear()
        assert vdf.verify(pp.modulus, pp.iterations, x, y, proof)
        right = [call for call in power_bases if call[0] in proof.checkpoints]
        assert len(right) == math.ceil((k - 1) / 2) + 1 == 3
        assert [exponent2 > 0 for _, _, exponent2 in right] == [True, True, False]
        assert right[-1][:2] == (proof.checkpoints[-1], 1 << vdf.MAX_DIRECT_SQUARINGS)
        assert len(power_bases) - len(right) == k

    def test_out_of_range_elements_rejected(self, transcript):
        pp, x, output, proof = transcript
        assert not vdf.verify(pp.modulus, pp.iterations, 0, output, proof)
        assert not vdf.verify(pp.modulus, pp.iterations, x, pp.modulus, proof)
        bad = vdf.VdfProof((pp.modulus,) + proof.checkpoints[1:])
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
                candidate = (x, bad_output, proof)
            else:
                checkpoints = list(proof.checkpoints)
                replacement = rng.randrange(1, pp.modulus)
                if replacement == checkpoints[field]:
                    continue
                checkpoints[field] = replacement
                candidate = (x, output, vdf.VdfProof(tuple(checkpoints)))
            if vdf.verify(pp.modulus, pp.iterations, *candidate):
                accepted += 1
        assert accepted == 0

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

    def test_malformed_rejected_before_handoff(self, hand_offs, power_calls, transcript):
        pp, x, output, proof = transcript
        n, midpoints = pp.modulus, proof.checkpoints
        for claim in ((n - x, output, proof), (x, n - output, proof),
                      (x, output, vdf.VdfProof((n - midpoints[0],) + midpoints[1:])),
                      (x, output, vdf.VdfProof(midpoints[:-1]))):
            assert not vdf.verify(n, pp.iterations, *claim)
        assert hand_offs == [] and power_calls == []
        assert vdf.verify(n, pp.iterations, x, output, proof)
        assert len(hand_offs) == HANDS_OFF

    def test_hands_off_from_hand_off_bits(self, monkeypatch, hand_offs, transcript):
        pp, x, output, proof = transcript
        for bits, expected in ((pp.modulus.bit_length() + 1, 0),
                               (pp.modulus.bit_length(), int(HANDS_OFF))):
            hand_offs.clear()
            monkeypatch.setattr(vdf, "_HAND_OFF_BITS", bits)
            assert vdf.verify(pp.modulus, pp.iterations, x, output, proof)
            assert len(hand_offs) == expected, bits

    def test_check_proofs_hands_off_at_any_size(self, monkeypatch, hand_offs, transcript):
        # A check wakes the worker once for all its tasks, not once an
        # exponentiation as verify does, so it hands off below _HAND_OFF_BITS too.
        pp, x, output, proof = transcript
        monkeypatch.setattr(vdf, "_HAND_OFF_BITS", pp.modulus.bit_length() + 1)
        assert vdf.verify(pp.modulus, pp.iterations, x, output, proof)
        assert hand_offs == []
        assert vdf.check_proofs(pp.modulus, pp.iterations, [(x, output, proof)]) is None
        assert len(hand_offs) == HANDS_OFF

    def test_right_side_from_whichever_finishes_first(self, monkeypatch, transcript):
        # The worker's right side fails here, so a False verdict shows verify
        # took the worker's value and True that it computed its own, as it
        # always does on the builtin engine, which hands nothing off.
        pp, x, output, proof = transcript
        monkeypatch.setattr(vdf, "_HAND_OFF_BITS", 0)

        def submit(state):
            future = Future()
            if state != "not begun":
                future.set_running_or_notify_cancel()
            if state == "finished":
                future.set_result(False)
            return future

        for state, verdict in (("not begun", True), ("never finishing", True),
                               ("finished", not HANDS_OFF)):
            monkeypatch.setattr(vdf._RIGHT_SIDES, "submit", lambda *args: submit(state))
            assert vdf.verify(pp.modulus, pp.iterations, x, output, proof) is verdict, state

    def test_thread_safe(self, monkeypatch, hand_offs, transcript):
        # Verdicts on honest and tampered claims, alone and from 8 threads, on
        # either engine: a tampered input, output or midpoint fails on either
        # side. Eight callers share one worker, so some compute right sides the
        # worker has not begun.
        pp = transcript[0]
        claims = tampered_claims(*transcript)
        expected = [True] + [False] * (len(claims) - 1)
        assert [vdf.verify(pp.modulus, pp.iterations, *claim) for claim in claims] == expected
        claims, expected = claims * 8, expected * 8
        for engine in ("libcrypto", "builtin pow"):
            if engine == "builtin pow":
                monkeypatch.setattr(vdf, "_LIBCRYPTO", None)
            with switching_often(), ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(
                    lambda claim: vdf.verify(pp.modulus, pp.iterations, *claim), claims,
                    timeout=120))
            assert results == expected, engine

    def test_verify_in_forked_child(self, hand_offs, transcript):
        pp, x, output, proof = transcript
        assert vdf.verify(pp.modulus, pp.iterations, x, output, proof)  # worker running
        assert bool(hand_offs) is HANDS_OFF
        pid = os.fork()
        if pid == 0:  # the child leaves by os._exit, whatever happens
            code = 2
            try:
                verdict = vdf.verify(pp.modulus, pp.iterations, x, output, proof)
                # A verify whose worker never starts computes the right side
                # itself, so check the worker runs in the child too.
                vdf._RIGHT_SIDES.submit(int).result(timeout=30)
                code = 0 if verdict else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while not (status := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("verify hung in a forked child")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0

    def test_verify_after_main_thread_returns(self):
        # Python joins the threads still running only after it has shut down
        # every executor, so their verifies cannot hand off.
        script = textwrap.dedent("""
            import threading
            from delaytower import vdf
            vdf._HAND_OFF_BITS = 0
            pp = vdf.setup(vdf.SecurityParams(modulus_bits=512, iterations=1024), b"k", b"e")
            x = vdf.hash_to_group(pp.input_digest, pp.modulus)
            output, proof = vdf.eval(pp, x)

            def late():
                threading.main_thread().join()  # returns once shutdown has begun
                print(vdf.verify(pp.modulus, pp.iterations, x, output, proof))

            threading.Thread(target=late).start()
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


def fold(transcript) -> tuple[int, int]:
    """The (modulus, t) that ``transcript``'s proof is checked at."""
    return transcript[0].modulus, transcript[0].iterations


class TestFastReject:
    def test_accepts_valid(self, transcript):
        assert not vdf.fast_reject(*fold(transcript), transcript[3])

    def test_rejects_wrong_prime_length(self, transcript):
        proof = transcript[3]
        bad = vdf.VdfProof(proof.checkpoints, 511)
        assert vdf.fast_reject(*fold(transcript), bad)

    def test_rejects_zero_checkpoints(self, transcript):
        bad = vdf.VdfProof(())
        assert vdf.fast_reject(*fold(transcript), bad)

    def test_rejects_oversized_elements(self, transcript):
        proof = transcript[3]
        for oversized in (1 << 513, 1 << transcript[0].modulus.bit_length()):
            bad = vdf.VdfProof((oversized,) + proof.checkpoints[1:])
            assert vdf.fast_reject(*fold(transcript), bad)

    def test_thread_safe(self, transcript):
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: vdf.fast_reject(*fold(transcript), transcript[3]), range(64)))
        assert not any(results)


class TestCheckProof:
    def test_outcomes(self, transcript):
        pp, x, output, proof = transcript

        def check(candidate):
            return vdf.check_proof(pp.modulus, pp.iterations, x, output, candidate)

        assert check(proof) is None
        assert check(vdf.VdfProof(proof.checkpoints, 511)) == "screen"
        assert len(proof.checkpoints) >= 2
        for i in range(len(proof.checkpoints)):
            tampered = list(proof.checkpoints)
            tampered[i] = 1 if tampered[i] != 1 else 2
            assert check(vdf.VdfProof(tuple(tampered))) == "transcript"

    def test_input_at_half_the_modulus_verifies(self, small_params):
        x = small_params.modulus // 2  # the largest canonical element, and a unit
        y, proof = vdf.eval(small_params, x)
        assert vdf.verify(small_params.modulus, small_params.iterations, x, y, proof)

    def test_output_out_of_range_fails_transcript_unexponentiated(self, hand_offs, power_calls,
                                                                  transcript):
        # The proof holds no output, so the screen passes it; verify refuses
        # it before any exponentiation or hand-off.
        pp, x, _, proof = transcript
        for output in (0, pp.modulus // 2 + 1, pp.modulus, 1 << 513):
            assert vdf.check_proof(pp.modulus, pp.iterations, x, output, proof) == "transcript"
        assert hand_offs == [] and power_calls == []

    def test_screen_reject_skips_transcript(self, monkeypatch, transcript):
        pp, x, output, proof = transcript
        calls = []
        monkeypatch.setattr(vdf, "verify", lambda *args: calls.append(args) or True)
        screened = vdf.VdfProof(proof.checkpoints, 511)
        assert vdf.check_proof(pp.modulus, pp.iterations, x, output, screened) == "screen"
        assert calls == []
        assert vdf.check_proof(pp.modulus, pp.iterations, x, output, proof) is None
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
        with pytest.raises(DecodeError, match="^truncated input$"):
            vdf.deserialize_proof(blob[:-3])
        with pytest.raises(DecodeError, match="^trailing bytes after end of structure$"):
            vdf.deserialize_proof(blob + b"\x00")

    def test_format_1_refused(self, transcript):
        pp, x, output, proof = transcript
        full, _ = full_fold(pp.modulus, x, pp.iterations, output)
        blob = bytearray(vdf.serialize_proof(vdf.VdfProof(full)))
        blob[0] = 1
        with pytest.raises(DecodeError, match="version 1"):
            vdf.deserialize_proof(bytes(blob))

    def test_bytes_are_version_count_midpoints(self, transcript):
        midpoints = transcript[3].checkpoints
        assert vdf.serialize_proof(transcript[3]) == (
            b"\x04" + len(midpoints).to_bytes(4, "big") + b"".join(map(encode_bigint, midpoints)))

    def test_label_never_written_nor_read(self, transcript):
        proof = transcript[3]
        lowered = dataclasses.replace(proof, embedded_prime_length_bits=511)
        assert vdf.serialize_proof(lowered) == vdf.serialize_proof(proof)
        assert vdf.deserialize_proof(vdf.serialize_proof(lowered)) == proof

    def test_format_3_refused(self, transcript):
        _, _, output, proof = transcript
        with pytest.raises(DecodeError, match="version 3"):
            vdf.deserialize_proof(format_3_proof(output, proof))

    def test_format_2_refused(self, transcript):
        blob = bytearray(vdf.serialize_proof(transcript[3]))
        blob[0] = 2
        with pytest.raises(DecodeError, match="version 2"):
            vdf.deserialize_proof(bytes(blob))

    def test_zero_padded_midpoint_refused(self, transcript):
        first, *rest = transcript[3].checkpoints
        blob = (b"\x04" + (1 + len(rest)).to_bytes(4, "big")
                + encode_bytes(b"\x00" + magnitude(first)) + b"".join(map(encode_bigint, rest)))
        with pytest.raises(DecodeError, match="^non-minimal integer encoding$"):
            vdf.deserialize_proof(blob)

    def test_bad_version_rejected(self, small_params):
        x = vdf.hash_to_group(small_params.input_digest, small_params.modulus)
        _, proof = vdf.eval(small_params, x)
        blob = bytearray(vdf.serialize_proof(proof))
        blob[0] = 99
        with pytest.raises(ValueError):
            vdf.deserialize_proof(bytes(blob))


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
        tampered = vdf.VdfProof((proof.checkpoints[0] ^ 1,) + proof.checkpoints[1:])

        def run():
            return (vdf.eval(pp, x),
                    vdf.verify(pp.modulus, pp.iterations, x, output, proof),
                    vdf.verify(pp.modulus, pp.iterations, x, output, tampered),
                    vdf.is_probable_prime(pp.modulus), vdf.is_probable_prime((1 << 127) - 1))

        engine = run()
        monkeypatch.setattr(vdf, "_LIBCRYPTO", None)
        assert vdf.powmod_engine() == "builtin pow"
        assert run() == engine == ((output, proof), True, False, False, True)

    @pytest.mark.parametrize("engine", ("libcrypto", "builtin pow"))
    def test_factor(self, monkeypatch, engine):
        if engine == "builtin pow":
            monkeypatch.setattr(vdf, "_LIBCRYPTO", None)
        elif vdf._LIBCRYPTO is None:
            pytest.skip("libcrypto did not load")
        rng = random.Random(80)
        for modulus in (35, 36, vdf.generate_modulus(512), (1 << 512) - 2,
                        rng.getrandbits(2048) | 1 | 1 << 2047):
            element = rng.randrange(2, modulus)
            cases = [(element, rng.getrandbits(130), factor)
                     for factor in (0, 1, 2, element, modulus - 1, modulus, 3 * modulus + 2)]
            cases += [(base, exponent, element) for base in (0, 1, modulus, 5 * modulus + 3)
                      for exponent in (0, 1, 2, 65537)]
            for base, exponent, factor in cases:
                assert vdf._powmod(base, exponent, modulus, factor) == \
                    pow(base, exponent, modulus) * factor % modulus, (modulus, base, exponent, factor)

    @pytest.mark.parametrize("engine", ("libcrypto", "builtin pow"))
    def test_two_bases(self, monkeypatch, engine):
        if engine == "builtin pow":
            monkeypatch.setattr(vdf, "_LIBCRYPTO", None)
        elif vdf._LIBCRYPTO is None:
            pytest.skip("libcrypto did not load")
        rng = random.Random(82)
        for modulus in (35, 36, vdf.generate_modulus(512), (1 << 512) - 2,
                        rng.getrandbits(2048) | 1 | 1 << 2047):
            element, other = rng.randrange(2, modulus), rng.randrange(2, modulus)
            exponents = (0, 1, rng.getrandbits(128))
            for base, exponent, base2, exponent2, factor in itertools.product(
                    (0, element, modulus, 5 * modulus + 3), exponents,
                    (1, other, 3 * modulus + 2), exponents, (1, 2, modulus - 1)):
                assert vdf._powmod(base, exponent, modulus, factor, base2, exponent2) == \
                    pow(base, exponent, modulus) * pow(base2, exponent2, modulus) * factor \
                    % modulus, (modulus, base, exponent, base2, exponent2, factor)

    @pytest.mark.parametrize("engine", ("libcrypto", "x2 hidden", "builtin pow"))
    def test_pair_matches_builtin_pow(self, monkeypatch, engine):
        # Full-width and narrow operands, at the kernel's width and beside it.
        if engine != "libcrypto":
            monkeypatch.setattr(vdf, "_EXP_X2" if engine == "x2 hidden" else "_LIBCRYPTO", None)
        rng = random.Random(83)
        for bits, bits2 in ((1024, 1024), (1024, 1023), (512, 1024), (2048, 2048), (256, 768)):
            moduli = (rng.getrandbits(bits) | 1 | 1 << (bits - 1),
                      rng.getrandbits(bits2) | 1 | 1 << (bits2 - 1))
            for width in (256, 1024):
                operands = [(rng.randrange(1, n) if width >= bits else n - rng.getrandbits(width),
                             rng.getrandbits(min(width, bits)) | 1, n) for n in moduli]
                assert vdf._powmod_pair(*operands[0], *operands[1]) == \
                    tuple(pow(*operand) for operand in operands), (bits, bits2, width)

    @requires_libcrypto
    def test_each_thread_frees_its_scratch(self, monkeypatch):
        freed = []
        free = vdf._Scratch.__del__
        monkeypatch.setattr(vdf._Scratch, "__del__", lambda scratch: freed.append(1) or free(scratch))
        modulus = vdf.generate_modulus(512)
        results = []
        threads = [threading.Thread(target=lambda: results.append(vdf._powmod(3, 65537, modulus)))
                   for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [pow(3, 65537, modulus)] * 6
        assert len(freed) == 6

    def test_threads_agree_with_builtin(self):
        rng = random.Random(81)
        moduli = [rng.getrandbits(bits) | 1 | 1 << (bits - 1) for bits in (64, 512, 2048)]
        cases = [(rng.randrange(3 * modulus), rng.getrandbits(rng.choice((2, 130, 300))), modulus,
                  rng.choice((0, 1, rng.randrange(modulus))))
                 for modulus in moduli for _ in range(20)]
        expected = [pow(base, exponent, modulus) * factor % modulus
                    for base, exponent, modulus, factor in cases]
        with switching_often(), ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda case: vdf._powmod(*case), cases * 8, timeout=120))
        assert results == expected * 8

    def test_loader_tries_only_versioned_sonames(self, monkeypatch):
        tried = []

        def refuse(name):
            tried.append(name)
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(vdf.ctypes, "CDLL", refuse)
        assert vdf._load_libcrypto() is None
        assert tried == ["libcrypto.so.3", "libcrypto.so.1.1"]


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
        # Two threads exponentiate on one context while two others push it out
        # of the cache: a context evicted during a call must outlive the call.
        pp, x, output, proof = transcript
        capacity = vdf._mont_context.cache_info().maxsize
        start = threading.Barrier(4, timeout=60)

        def use(_):
            value = x
            start.wait()
            for _ in range(200):
                value = vdf._powmod(value, 1 << 256, pp.modulus)
            return value

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
    def test_cold_lookups_build_once(self, monkeypatch):
        # Four threads miss the cache at once while the first build is slowed:
        # they must wait for that build, not make one each.
        modulus = vdf.generate_modulus(512)
        vdf._mont_context.cache_clear()
        built = []
        init = vdf._MontContext.__init__

        def slow_init(context, lib, value):
            built.append(value)
            time.sleep(0.05)
            init(context, lib, value)

        monkeypatch.setattr(vdf._MontContext, "__init__", slow_init)
        start = threading.Barrier(4, timeout=60)

        def work(_):
            start.wait()
            return vdf._powmod(3, 65537, modulus)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(4), timeout=60))
        assert results == [pow(3, 65537, modulus)] * 4
        assert built == [modulus]
        assert vdf._mont_context.cache_info().misses == 1

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

    @requires_libcrypto
    def test_prime_search_keeps_the_network_context(self):
        # Each prime candidate is the modulus of one primality test and of nothing
        # else: caching its context would evict the ones verify and eval reuse.
        modulus = vdf.generate_modulus(2048)
        vdf._powmod(3, 65537, modulus)
        context = vdf._mont_context(vdf._LIBCRYPTO, modulus)
        warm = vdf._mont_context.cache_info()
        vdf._derive_modulus.__wrapped__(1024, b"fresh-seed")  # past generate_modulus's cache
        assert vdf._mont_context.cache_info().misses == warm.misses
        assert vdf._mont_context(vdf._LIBCRYPTO, modulus) is context
        assert vdf._powmod(3, 65537, modulus) == pow(3, 65537, modulus)


class TestGroupMapping:
    def test_hash_to_group_in_range(self):
        rng = random.Random(5)
        for _ in range(200):
            n = random_composite(rng)
            value = vdf.hash_to_group(rng.randbytes(32), n)
            assert 2 <= value <= n // 2

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


# SHA-256 of str(generate_modulus(bits, seed)). A derivation must give these
# numbers bit for bit, however its prime searches are ordered or screened.
MODULUS_SHA256 = {
    (256, vdf.DEFAULT_MODULUS_SEED):
        "2c173704c3774434faee582ab4032f393f0e13cb3803a92b1dde30236f5d9fa5",
    (512, vdf.DEFAULT_MODULUS_SEED):
        "eae3e88348b66fb18444dafe9ff7f8047cbac848e8d182aa8e7e44504a0589cf",
    (1024, vdf.DEFAULT_MODULUS_SEED):
        "69d135de8c1965129e504fde68b572f9931a5238bc274e279e8d65aeee654b30",
    (2048, vdf.DEFAULT_MODULUS_SEED):
        "9bf2b0bfc30598418a07308be0f479494f5e81249c9257cfdfd28366bcc0c57b",
    (1024, b"another-network"):
        "6aa71859d392687d9259a9cbcc6fd14e83371ac4c8eee28eb145ef5e089a6a8b",
}


def modulus_digest(modulus: int) -> str:
    return hashlib.sha256(str(modulus).encode()).hexdigest()


def eratosthenes(limit: int) -> list[bool]:
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, limit, p))
    return sieve


# Carmichael numbers, strong pseudoprimes to the first few prime bases, and
# products of two primes just above the sieve's bound, so no trial division
# refuses them.
KNOWN_VALUES = [
    (561, False), (1105, False), (2047, False), (1_373_653, False), (25_326_001, False),
    (3_215_031_751, False), (3_825_123_056_546_413_051, False), (1031 * 1033, False),
    (1021 * 1031, False), (1031 * 1031, False), (1039 * 1049, False),
    ((1 << 61) - 1, True), ((1 << 127) - 1, True), (1021, True), (1031, True),
]

SIEVE = eratosthenes(1024)


def plain_miller_rabin(n: int, rounds: int) -> bool:
    """Reference primality test: the sieve, then one round at a time on builtin ``pow``,
    raising each witness a = 2 + (SHA-256 of n and j) mod (n - 3) itself, not n - a."""
    if n < 1024:
        return SIEVE[n]
    if any(n % p == 0 for p in range(2, 1024) if SIEVE[p]):
        return False
    r = 0
    while (n - 1) >> r & 1 == 0:
        r += 1
    d = (n - 1) >> r
    for j in range(rounds):
        seed = hashlib.sha256(vdf._DOMAIN_WITNESS + magnitude(n) + j.to_bytes(4, "big")).digest()
        x = pow(2 + int.from_bytes(seed, "big") % (n - 3), d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def plain_prime(rng: random.Random, bits: int) -> int:
    while True:
        n = rng.getrandbits(bits) | 1 | 1 << (bits - 1)
        if plain_miller_rabin(n, 40):
            return n


@pytest.fixture(scope="module")
def differential_cases() -> dict[int, dict[int, bool]]:
    """``plain_miller_rabin``'s verdict at 8 and 40 rounds on random 1024-bit odd numbers, two
    1024-bit primes, products of two 512-bit primes, those primes and ``KNOWN_VALUES``."""
    rng = random.Random(38)
    halves = [plain_prime(rng, 512) for _ in range(4)]
    cases = ([rng.getrandbits(1024) | 1 | 1 << 1023 for _ in range(24)]
             + [plain_prime(rng, 1024) for _ in range(2)]
             + [a * b for a, b in itertools.combinations(halves, 2)] + halves
             + [n for n, _ in KNOWN_VALUES])
    return {rounds: {n: plain_miller_rabin(n, rounds) for n in cases} for rounds in (8, 40)}


class TestDerivation:
    """The modulus's two prime searches, one on verify's worker, and the sieve
    ahead of Miller-Rabin."""

    @pytest.mark.parametrize("bits, seed", sorted(MODULUS_SHA256))
    def test_modulus_pinned(self, bits, seed):
        vdf.generate_modulus.cache_clear()
        assert modulus_digest(vdf.generate_modulus(bits, seed)) == MODULUS_SHA256[bits, seed]

    def test_agrees_with_sieve_below_2_16(self):
        expected = eratosthenes(1 << 16)
        assert [vdf.is_probable_prime(n, 8) for n in range(1 << 16)] == expected

    @pytest.mark.parametrize("n, prime", KNOWN_VALUES)
    def test_known_values(self, n, prime):
        assert vdf.is_probable_prime(n) is prime
        assert vdf.is_probable_prime(n, 8) is prime

    @pytest.mark.parametrize("engine", ("libcrypto", "x2 hidden", "builtin pow"))
    def test_first_prime_matches_plain_miller_rabin(self, monkeypatch, differential_cases, engine):
        # Each verdict, and the first prime of sequences where it is the first or the second
        # of a pair, and where a prime or a composite is its partner.
        if engine != "libcrypto":
            monkeypatch.setattr(vdf, "_EXP_X2" if engine == "x2 hidden" else "_LIBCRYPTO", None)
        for rounds, expected in differential_cases.items():
            assert {n: vdf.is_probable_prime(n, rounds) for n in expected} == expected
            primes = [n for n in expected if n > 1024 and expected[n]]
            composites = [n for n in expected if n > 1024 and not expected[n]]
            sieved = [n for n in composites if all(n % p for p in range(2, 1024) if SIEVE[p])]
            assert len(primes) > 2 and len(sieved) > 3
            for offset in range(4):
                tested = sieved[:offset] + primes + composites
                assert vdf._first_prime(tested, rounds, threading.Event()) == primes[0]
            assert vdf._first_prime(composites, rounds, threading.Event()) is None

    @pytest.mark.skipif(vdf._EXP_X2 is None, reason="libcrypto lacks the pair kernel")
    def test_libcrypto_calls_pinned(self, monkeypatch):
        # The default seed's 2048-bit search takes 41 exponentiations for p and 69 for q: a
        # prime's 40 rounds, and one first round per composite the sieve leaves. Two a call,
        # that is 20 pairs and one single call for p, 34 and one for q.
        calls = {}

        def counted(name, function):
            def call(*args):
                calls[name] = calls.get(name, 0) + 1
                return function(*args)
            return call

        monkeypatch.setattr(vdf, "_EXP_X2", counted("pair", vdf._EXP_X2))
        monkeypatch.setattr(vdf._LIBCRYPTO, "BN_mod_exp_mont",
                            counted("single", vdf._LIBCRYPTO.BN_mod_exp_mont))
        primes, counts = [], []
        for tag in (b"p", b"q"):
            calls.clear()
            primes.append(vdf._derive_prime(1024, vdf.DEFAULT_MODULUS_SEED, tag,
                                            threading.Event()))
            counts.append(dict(calls))
        assert counts == [{"pair": 20, "single": 1}, {"pair": 34, "single": 1}]
        assert modulus_digest(primes[0] * primes[1]) == \
            MODULUS_SHA256[2048, vdf.DEFAULT_MODULUS_SEED]

    def test_composite_modulus_check_costs_one_exponentiation(self, monkeypatch):
        modulus = vdf.generate_modulus(2048)
        vdf._is_prime_modulus.cache_clear()
        made = []
        for name in ("_powmod", "_powmod_pair"):
            monkeypatch.setattr(vdf, name, lambda *args, name=name, fn=getattr(vdf, name),
                                **options: made.append(name) or fn(*args, **options))
        vdf.check_modulus(modulus)
        assert made == ["_powmod"]

    # Derivation does not read _HAND_OFF_BITS: the modulus is the same below and
    # from the size where verify hands off.
    @pytest.mark.parametrize("hand_off_bits", (vdf._HAND_OFF_BITS, 0))
    def test_builtin_engine_derives_the_same_modulus(self, monkeypatch, hand_off_bits):
        monkeypatch.setattr(vdf, "_LIBCRYPTO", None)
        monkeypatch.setattr(vdf, "_HAND_OFF_BITS", hand_off_bits)
        modulus = vdf._derive_modulus.__wrapped__(1024, vdf.DEFAULT_MODULUS_SEED)
        assert modulus_digest(modulus) == MODULUS_SHA256[1024, vdf.DEFAULT_MODULUS_SEED]

    def test_builtin_engine_hands_nothing_off(self, monkeypatch, hand_offs, transcript):
        # The builtin pow holds the GIL, so a second thread would only take turns
        # with the caller: verify, check_proofs and derivation stay on the caller.
        pp, claims = transcript[0], tampered_claims(*transcript)
        expected = ([True] + [False] * (len(claims) - 1), None, (1, "transcript"))

        def run() -> tuple:
            return ([vdf.verify(pp.modulus, pp.iterations, *claim) for claim in claims],
                    vdf.check_proofs(pp.modulus, pp.iterations, claims[:1]),
                    vdf.check_proofs(pp.modulus, pp.iterations, claims))

        assert run() == expected
        assert bool(hand_offs) is HANDS_OFF
        hand_offs.clear()
        monkeypatch.setattr(vdf, "_LIBCRYPTO", None)
        assert run() == expected
        modulus = vdf._derive_modulus.__wrapped__(1024, vdf.DEFAULT_MODULUS_SEED)
        assert modulus_digest(modulus) == MODULUS_SHA256[1024, vdf.DEFAULT_MODULUS_SEED]
        assert hand_offs == []

    def test_hands_off_below_hand_off_bits(self, submitted):
        # The worker wakes once for the whole q search, so derivation splits at
        # any modulus size on libcrypto, as check_proofs does.
        assert vdf._HAND_OFF_BITS > 1024
        modulus = vdf._derive_modulus.__wrapped__(1024, vdf.DEFAULT_MODULUS_SEED)
        assert modulus_digest(modulus) == MODULUS_SHA256[1024, vdf.DEFAULT_MODULUS_SEED]
        assert len(submitted) == HANDS_OFF

    def test_derivation_on_the_worker_returns(self):
        # On the worker, _queued runs the q search at once, then the p search.
        modulus = vdf._RIGHT_SIDES.submit(
            vdf._derive_modulus.__wrapped__, 1024, b"another-network").result(timeout=60)
        assert modulus_digest(modulus) == MODULUS_SHA256[1024, b"another-network"]

    def test_concurrent_derivations(self):
        # Eight callers share one worker: most find their q search still queued
        # behind another caller's, and run it themselves.
        seeds = [vdf.DEFAULT_MODULUS_SEED, b"another-network"] * 4
        with switching_often(), ThreadPoolExecutor(max_workers=8) as pool:
            moduli = list(pool.map(lambda seed: vdf._derive_modulus.__wrapped__(1024, seed),
                                   seeds, timeout=120))
        assert [modulus_digest(n) for n in moduli] == [MODULUS_SHA256[1024, s] for s in seeds]

    def test_derivation_after_main_thread_returns(self):
        # Executors take no work once interpreter shutdown has begun.
        script = textwrap.dedent("""
            import threading
            from delaytower import vdf

            def late():
                threading.main_thread().join()  # returns once shutdown has begun
                print(vdf.generate_modulus(512).bit_length())

            threading.Thread(target=late).start()
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "512\n", "")

    @pytest.mark.parametrize("raiser", ("caller", "worker"))
    def test_exception_stops_the_other_search(self, monkeypatch, raiser):
        # Once one side has tested a candidate, the other raises on its next: the
        # first side may finish the pair in hand, and tests no other.
        class Interrupt(BaseException):
            pass

        if not HANDS_OFF:
            pytest.skip("the builtin engine searches both primes on the caller")
        caller, tested = threading.get_ident(), {"caller": 0, "worker": 0}
        begun, started, at_raise = threading.Event(), threading.Event(), []

        def spy(candidates, rounds, stop, first_prime=vdf._first_prime):
            side = "caller" if threading.get_ident() == caller else "worker"

            def drawn():  # counts each candidate the sieve leaves to Miller-Rabin
                for n in candidates:
                    if side == raiser:
                        begun.set()
                        assert started.wait(30), "the other side never tested a candidate"
                        at_raise.append(dict(tested))
                        raise Interrupt
                    # A caller whose search ends before the worker begins takes q back and
                    # searches it itself, so the raiser's side would never search.
                    assert begun.wait(30), "the raiser never began its search"
                    tested[side] += math.gcd(n, vdf._SMALL_PRODUCT) == 1
                    started.set()
                    yield n
            return first_prime(drawn(), rounds, stop)

        bits, seed = 1024, b"another-network"
        vdf.generate_modulus.cache_clear()
        with monkeypatch.context() as patched:
            patched.setattr(vdf, "_first_prime", spy)
            with pytest.raises(Interrupt):
                vdf.generate_modulus(bits, seed)
        other = "worker" if raiser == "caller" else "caller"
        assert len(at_raise) == 1
        assert tested[other] - at_raise[0][other] <= 2
        assert vdf.generate_modulus.cache_info().currsize == 0
        assert modulus_digest(vdf.generate_modulus(bits, seed)) == MODULUS_SHA256[bits, seed]


class TestBeside:
    """``_beside`` waits for a ``theirs`` the worker has begun, whatever either raises."""

    @pytest.mark.parametrize("ours_raises", [False, True])
    def test_theirs_begun_on_worker_is_waited_for(self, ours_raises):
        # theirs fails on the worker after ours has finished: ours' exception
        # wins if it raised one, and theirs' propagates if it did not.
        if not HANDS_OFF:
            pytest.skip("the builtin engine runs theirs on the caller")
        ran, begun, stop = [], threading.Event(), threading.Event()

        def ours():
            assert begun.wait(30), "verify's worker never began"
            if ours_raises:
                raise KeyboardInterrupt
            return "ours"

        def theirs():
            begun.set()
            time.sleep(0.05)
            ran.append(threading.current_thread().name)
            raise OSError(28, "No space left on device")

        with pytest.raises(KeyboardInterrupt if ours_raises else OSError):
            vdf._beside(stop, ours, theirs)
        assert len(ran) == 1 and ran[0].startswith("delaytower-verify"), ran
        assert stop.is_set()

    @pytest.mark.parametrize("engine", ["libcrypto", "builtin pow"])
    def test_both_values(self, monkeypatch, engine):
        if engine == "builtin pow":
            monkeypatch.setattr(vdf, "_LIBCRYPTO", None)
        stop = threading.Event()
        assert vdf._beside(stop, lambda: 1, lambda: 2) == (1, 2)
        assert not stop.is_set()
