"""Sequential-squaring delay function over an RSA group.

Evaluation computes x^(2^t) mod N by t strictly sequential squarings, so the
wall time grows linearly with t no matter how much hardware is thrown at it.
Verification replays a halving transcript (Pietrzak, "Simple Verifiable Delay
Functions", ITCS 2019): the prover publishes the midpoint mu = X^(2^(t/2))
at each level, and the claim X^(2^t) = Y folds into

    (X^r * mu)^(2^(t/2)) = mu^r * Y

with a challenge r. The fold stops once at most ``MAX_DIRECT_SQUARINGS``
(2^7) squarings remain, and the verifier checks that last claim by squaring
itself. A proof for t = 2^k therefore carries max(0, k - 7) midpoints.

Format 3 draws level j's 128-bit challenge from a running SHA-256 over what
the proof publishes, (N, t, x, y, mu_1 .. mu_j) and j, so the left side
X_j = X_{j-1}^{r_j} * mu_j and the right side y * prod mu_j^{r_j} fold apart.
Eval keeps only the left side, up to the last midpoint, and makes level 2's
midpoint from powers its loop kept (``_loop_stops``). For moduli of
``_HAND_OFF_BITS`` and more, verify hands the right side to a worker thread and
folds the left. Every input, output and midpoint is canonical, min(v, N - v),
and verify compares the sides up to sign: -1 has order 2 mod N, so otherwise
N - y would pass for y.

All group arithmetic is one function on ints, ``_powmod``: b^e * f mod N, for
eval's t sequential squarings, the transcript's midpoints, each side of the
fold, and Miller-Rabin during modulus derivation. Where libcrypto loads and N
is odd, it is ``BN_mod_exp_mont`` on the modulus's ``_MontContext``, its
``BIGNUM`` and Montgomery constants, then ``BN_mod_mul`` by f. That context
is built once per odd modulus, kept in a bounded cache and shared by every
thread, which is safe because nothing writes it after construction; a prime
candidate, used once, gets a transient context instead. The scratch space
libcrypto does write, a ``BN_CTX`` and five ``BIGNUM``s, belongs to one thread
(``_Scratch``). libcrypto drops the GIL inside each ctypes call, so the two
sides of a verify run at once. Without libcrypto, or for an even modulus, the
builtin ``pow`` gives the same results; ``powmod_engine`` names the engine in
use.
Eval squares by raising to 2^k, at most ``_LOOP_CHUNK`` squarings a call: a
native call cannot be interrupted, so that bounds how long Ctrl-C waits.
The delay runs on the fastest engine available because tower height is a fair
measure only if honest miners square about as fast as anyone can: a proof
certifies the count of sequential squarings, not the engine that did them.

The group modulus is a product of two primes derived deterministically from a
genesis seed; every participant of one network shares it. Inputs are bound to
a participant by hashing their public key and declared endpoint into the
group, which is what makes a chain of these proofs non-transferable.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

from .serialization import DecodeError, Reader, encode_bigint, encode_bytes, encode_uint, \
    fields_from_doc

DEFAULT_MODULUS_SEED = b"delay-tower/genesis/v1"
DEFAULT_PRIME_LENGTH_BITS = 512

PROOF_FORMAT_VERSION = 3

# Proof formats 2 and 3 stop the fold once at most this many squarings remain;
# the verifier does them itself and never more. A level costs the verifier two
# exponentiations by 128-bit challenges, about as much as 380 squarings at
# 2048 bits, so the 7 levels dropped cost more than the squarings that
# replace them. A later stop saves little more and makes verify grow faster
# with t.
MAX_DIRECT_SQUARINGS = 1 << 7

# Most squarings in one native call of eval's: bounds Ctrl-C's wait (54 ms at 2048 bits).
_LOOP_CHUNK = 1 << 16

_DOMAIN_INPUT = b"delay-tower/input/v1"
_DOMAIN_GROUP = b"delay-tower/group/v1"
_DOMAIN_CHALLENGE = b"delay-tower/challenge/v3"
_DOMAIN_PRIME = b"delay-tower/prime/v1"
_DOMAIN_WITNESS = b"delay-tower/witness/v1"

_CHALLENGE_BYTES = 16

_MIN_MODULUS_BITS = 64
_MIN_PRIME_LENGTH_BITS = 16


# The libcrypto bignum calls the group arithmetic makes: name -> (argtypes,
# restype). BN_CTX, BIGNUM and BN_MONT_CTX pointers are opaque c_void_p.
_P = ctypes.c_void_p
_BN_SIGNATURES = {
    "BN_CTX_new": ([], _P),
    "BN_CTX_free": ([_P], None),
    "BN_new": ([], _P),
    "BN_free": ([_P], None),
    "BN_bin2bn": ([ctypes.c_char_p, ctypes.c_int, _P], _P),
    "BN_bn2binpad": ([_P, ctypes.c_char_p, ctypes.c_int], ctypes.c_int),
    "BN_mod_mul": ([_P] * 5, ctypes.c_int),
    "BN_MONT_CTX_new": ([], _P),
    "BN_MONT_CTX_set": ([_P] * 3, ctypes.c_int),
    "BN_MONT_CTX_free": ([_P], None),
    "BN_mod_exp_mont": ([_P] * 6, ctypes.c_int),
}


def _load_libcrypto() -> Optional[ctypes.CDLL]:
    """OpenSSL's libcrypto by versioned soname, or None when none loads whole.

    Only versioned names are tried: loading an unversioned libcrypto can abort
    the process (macOS ships one that does), and ``ctypes.util.find_library``
    would spawn ``ldconfig`` at import.
    """
    for soname in ("libcrypto.so.3", "libcrypto.so.1.1"):
        try:
            lib = ctypes.CDLL(soname)
            for name, (argtypes, restype) in _BN_SIGNATURES.items():
                function = getattr(lib, name)
                function.argtypes, function.restype = argtypes, restype
        except (OSError, AttributeError):  # not installed, or a symbol is missing
            continue
        return lib
    return None


# Read-only after import; tests set it to None to force the builtin fallback.
_LIBCRYPTO = _load_libcrypto()


def powmod_engine() -> str:
    """Name of the library the group arithmetic runs on: a libcrypto soname or "builtin pow"."""
    return _LIBCRYPTO._name if _LIBCRYPTO is not None else "builtin pow"


def _magnitude(value: int) -> bytes:
    """Minimal big-endian bytes of ``value`` >= 0, the magnitude ``encode_bigint`` writes."""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


class _MontContext:
    """An odd modulus on libcrypto: its ``BIGNUM`` and its ``BN_MONT_CTX``.

    Built once per modulus and only read afterwards: ``BN_mod_exp_mont`` and
    ``BN_mod_mul`` take both as inputs, the way OpenSSL's RSA keys share their
    cached ``BN_MONT_CTX`` across threads. Both are freed with the last
    reference, which for a context nobody is using is its eviction from
    ``_mont_context``'s cache.
    """

    def __init__(self, lib: ctypes.CDLL, modulus: int):
        self.lib = lib
        data = _magnitude(modulus)
        self.modulus = lib.BN_bin2bn(data, len(data), None)
        self.mont = lib.BN_MONT_CTX_new()
        ctx = lib.BN_CTX_new()
        try:
            if not (self.modulus and self.mont and ctx
                    and lib.BN_MONT_CTX_set(self.mont, self.modulus, ctx)):
                raise MemoryError("BN_MONT_CTX_set failed")
        finally:
            lib.BN_CTX_free(ctx)

    def __del__(self):
        self.lib.BN_MONT_CTX_free(self.mont)
        self.lib.BN_free(self.modulus)


@lru_cache(maxsize=16)
def _mont_context(lib: ctypes.CDLL, modulus: int) -> _MontContext:
    return _MontContext(lib, modulus)


# Held around each ``_mont_context`` lookup: ``lru_cache`` takes no lock while it
# builds a missing entry, so threads that miss at once would each build one.
_MONT_LOCK = threading.Lock()


class _Scratch:
    """One thread's libcrypto scratch: a ``BN_CTX`` and five ``BIGNUM``s, for the
    base, the exponent, the factor, an uncached modulus and the result. Keeping
    it saves ``BN_mod_exp_mont`` allocating its temporaries again on every call."""

    def __init__(self, lib: ctypes.CDLL):
        self.lib = lib
        self.ctx = lib.BN_CTX_new()
        self.bignums = [lib.BN_new() for _ in range(5)]
        if not (self.ctx and all(self.bignums)):
            raise MemoryError("BN_CTX_new or BN_new failed")

    def __del__(self):
        for bignum in self.bignums:
            self.lib.BN_free(bignum)
        self.lib.BN_CTX_free(self.ctx)


# Each thread's ``_Scratch``, in the slot "scratch", dropped and so freed when
# its thread ends. A ``threading.local`` subclass's own ``__del__`` would run
# once for the object, not once per thread.
_THREAD = threading.local()


def _load(lib: ctypes.CDLL, bignum: int, value: int) -> None:
    data = _magnitude(value)
    if not lib.BN_bin2bn(data, len(data), bignum):
        raise MemoryError("BN_bin2bn failed")


def _powmod(base: int, exponent: int, modulus: int, factor: int = 1,
            cached: bool = True) -> int:
    """base^exponent * factor mod modulus, for base, exponent, factor >= 0 and modulus > 1.

    Runs on ``BN_mod_exp_mont`` and, unless factor is 1, ``BN_mod_mul``, with
    the thread's ``_Scratch``, when libcrypto loaded and the modulus is odd;
    else on the builtin. The modulus's ``_MontContext`` comes from the cache,
    or, unless ``cached``, libcrypto builds a transient one for this call.
    """
    lib = _LIBCRYPTO
    if lib is None or modulus % 2 == 0:
        return pow(base, exponent, modulus) * factor % modulus
    scratch = getattr(_THREAD, "scratch", None)
    if scratch is None:
        scratch = _THREAD.scratch = _Scratch(lib)
    ctx, (b, e, f, n, result), mont = scratch.ctx, scratch.bignums, None
    if cached:
        with _MONT_LOCK:
            context = _mont_context(lib, modulus)
        n, mont = context.modulus, context.mont
    else:  # given no BN_MONT_CTX, BN_mod_exp_mont builds one for the call
        _load(lib, n, modulus)
    _load(lib, b, base)
    _load(lib, e, exponent)
    if not lib.BN_mod_exp_mont(result, b, e, n, ctx, mont):
        raise ValueError("BN_mod_exp_mont failed")
    if factor != 1:
        _load(lib, f, factor)
        if not lib.BN_mod_mul(result, result, f, n, ctx):
            raise ValueError("BN_mod_mul failed")
    out = ctypes.create_string_buffer((modulus.bit_length() + 7) // 8)
    if lib.BN_bn2binpad(result, out, len(out)) < 0:
        raise ValueError("result is wider than the modulus")
    return int.from_bytes(out.raw, "big")


class InvalidSecurityParams(ValueError):
    """Security parameter outside the supported bounds."""


class InputOutOfRange(ValueError):
    """Evaluation input is not a usable group element."""


@dataclass(frozen=True)
class SecurityParams:
    """Network-wide difficulty profile, fixed at genesis for every participant."""

    modulus_bits: int
    iterations: int
    prime_length_bits: int = DEFAULT_PRIME_LENGTH_BITS

    def __post_init__(self):
        if self.modulus_bits < _MIN_MODULUS_BITS:
            raise InvalidSecurityParams(
                f"modulus_bits must be >= {_MIN_MODULUS_BITS}, got {self.modulus_bits}")
        if self.prime_length_bits < _MIN_PRIME_LENGTH_BITS:
            raise InvalidSecurityParams(
                f"prime_length_bits must be >= {_MIN_PRIME_LENGTH_BITS}, got {self.prime_length_bits}")
        if self.iterations < 1:
            raise InvalidSecurityParams(f"iterations must be >= 1, got {self.iterations}")

    def to_doc(self) -> dict:
        """JSON object of every field; ``from_doc`` reads it back."""
        return asdict(self)

    @classmethod
    def from_doc(cls, doc) -> "SecurityParams":
        """Parse ``to_doc``'s form; missing keys take the field defaults."""
        return cls(**fields_from_doc(cls, doc))


@dataclass(frozen=True)
class PublicParams:
    """Per-participant evaluation parameters over the shared group: the participant's
    key and endpoint, and the effective (power-of-two) sequential step count.
    """

    modulus: int
    public_key: bytes
    endpoint: bytes
    iterations: int
    prime_length_bits: int = DEFAULT_PRIME_LENGTH_BITS

    def __post_init__(self):
        if self.modulus <= 3 or self.modulus % 2 == 0:
            raise ValueError("modulus must be an odd integer greater than 3")
        if _is_prime_modulus(self.modulus):
            raise ValueError("modulus must be composite")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    @property
    def input_digest(self) -> bytes:
        """Domain-separated digest of key and endpoint; record 0's input is hashed from it."""
        return hashlib.sha256(_DOMAIN_INPUT + encode_bytes(self.public_key)
                              + encode_bytes(self.endpoint)).digest()


@dataclass(frozen=True)
class VdfProof:
    """Halving transcript: final output, per-level midpoints, declared prime length."""

    output: int
    checkpoints: tuple[int, ...]
    embedded_prime_length_bits: int = DEFAULT_PRIME_LENGTH_BITS


def effective_iterations(requested: int) -> int:
    """Round a requested step count up to the next power of two."""
    if requested < 1:
        raise InvalidSecurityParams(f"iterations must be >= 1, got {requested}")
    return 1 << (requested - 1).bit_length()


def expected_checkpoint_count(iterations: int) -> int:
    """Number of halving midpoints a transcript for ``iterations`` steps carries.

    One per level while more than ``MAX_DIRECT_SQUARINGS`` steps remain; after
    j levels floor(t / 2^j) remain. For t = 2^k that is max(0, k - 7).
    """
    return (iterations // (MAX_DIRECT_SQUARINGS + 1)).bit_length()


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin with witnesses derived from n itself, so results are stable."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n == p:
            return True
        if n % p == 0:
            return False
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r with d odd
    d = (n - 1) >> r
    n_bytes = n.to_bytes((n.bit_length() + 7) // 8, "big")
    for j in range(rounds):
        seed = hashlib.sha256(_DOMAIN_WITNESS + n_bytes + j.to_bytes(4, "big")).digest()
        a = 2 + int.from_bytes(seed, "big") % (n - 3)
        x = _powmod(a, d, n, cached=False)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=64)
def _is_prime_modulus(n: int) -> bool:
    return is_probable_prime(n, rounds=8)


def _derive_prime(bits: int, seed: bytes, tag: bytes) -> int:
    """First probable prime in a counter-extended hash stream, top two bits set."""
    nbytes = (bits + 7) // 8
    counter = 0
    while True:
        stream = hashlib.shake_256(
            _DOMAIN_PRIME + seed + tag + counter.to_bytes(4, "big")).digest(nbytes)
        candidate = int.from_bytes(stream, "big") & ((1 << bits) - 1)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate):
            return candidate
        counter += 1


@lru_cache(maxsize=32)
def _derive_modulus(modulus_bits: int, seed: bytes) -> int:
    half = modulus_bits // 2
    p = _derive_prime(half, seed, b"p")
    q = _derive_prime(modulus_bits - half, seed, b"q")
    return p * q


def generate_modulus(modulus_bits: int, seed: bytes = DEFAULT_MODULUS_SEED) -> int:
    """Deterministic two-prime modulus for the given bit length and seed.

    Cached per (bits, seed): ``generate_modulus(bits)`` and
    ``generate_modulus(bits, DEFAULT_MODULUS_SEED)`` share one entry, so the
    primes are searched once per process, not once per calling convention.
    """
    return _derive_modulus(modulus_bits, seed)


generate_modulus.cache_clear = _derive_modulus.cache_clear
generate_modulus.cache_info = _derive_modulus.cache_info


def _canonical(value: int, modulus: int) -> int:
    """The form of ``value`` and ``modulus - value`` in which elements are hashed,
    published and compared: the smaller one."""
    return min(value, modulus - value)


def hash_to_group(digest: bytes, modulus: int) -> int:
    """Map a digest to a canonical element of [2, modulus - 1) by rejection sampling."""
    bits = modulus.bit_length()
    nbytes = (bits + 7) // 8
    counter = 0
    while True:
        stream = hashlib.shake_256(
            _DOMAIN_GROUP + digest + counter.to_bytes(4, "big")).digest(nbytes)
        candidate = int.from_bytes(stream, "big") & ((1 << bits) - 1)
        if 2 <= candidate < modulus - 1:
            return _canonical(candidate, modulus)
        counter += 1


def setup(
    security: SecurityParams,
    public_key: bytes,
    endpoint: bytes,
    *,
    modulus: Optional[int] = None,
) -> PublicParams:
    """Derive a participant's public parameters.

    The modulus comes from ``DEFAULT_MODULUS_SEED`` (or is passed in directly
    when a network has already published one). The requested iteration count is
    rounded up to the next power of two and recorded as the effective value.
    """
    if not public_key:
        raise ValueError("public_key must be non-empty")
    if modulus is None:
        modulus = generate_modulus(security.modulus_bits)
    return PublicParams(
        modulus=modulus,
        public_key=bytes(public_key),
        endpoint=bytes(endpoint),
        iterations=effective_iterations(security.iterations),
        prime_length_bits=security.prime_length_bits,
    )


class _Transcript:
    """Fiat-Shamir over what a proof publishes: one running SHA-256 over the
    modulus, t, x and y, to which each level appends its midpoint. Level j's
    128-bit challenge hashes that state and j."""

    def __init__(self, modulus: int, iterations: int, x: int, y: int):
        self._hash = hashlib.sha256(_DOMAIN_CHALLENGE + b"".join(
            map(encode_bigint, (modulus, iterations, x, y))))
        self._level = 0

    def challenge(self, midpoint: int) -> int:
        """The next level's challenge, once its midpoint is published."""
        self._level += 1
        self._hash.update(encode_bigint(midpoint))
        level = self._hash.copy()
        level.update(encode_uint(self._level, 4))
        return int.from_bytes(level.digest()[:_CHALLENGE_BYTES], "big")


def _square(value: int, steps: int, modulus: int) -> int:
    """value^(2^steps) mod modulus: ``steps`` squarings, at most ``_LOOP_CHUNK`` a call."""
    for done in range(0, steps, _LOOP_CHUNK):
        value = _powmod(value, 1 << min(_LOOP_CHUNK, steps - done), modulus)
    return value


def _loop_stops(t: int) -> tuple[int, int, int]:
    """Squarings a, half, b after which eval's loop keeps x^(2^a), x^(2^half), x^(2^b).

    Level 1's midpoint is x^(2^half). Level 2 squares X_1 = x^(2^(t % 2) * r_1) *
    x^(2^half) q = t//2 - t//4 times, so its midpoint is (x^(2^a))^{r_1} * x^(2^b).
    """
    half = t - t // 2
    q = t // 2 - t // 4
    return t % 2 + q, half, half + q


def eval(pp: PublicParams, x: int) -> tuple[int, VdfProof]:
    """Evaluate x^(2^t) mod N by t sequential squarings and build its transcript.

    x must be a canonical unit mod N, as ``hash_to_group`` returns; any other
    input raises InputOutOfRange, because no proof for it verifies. The output
    and every midpoint are canonical.

    The loop keeps level 1's midpoint and the two powers level 2's is made of
    as it passes (``_loop_stops``); the later levels take about t/4 squarings
    after it. No call squares more than ``_LOOP_CHUNK`` times, which bounds how
    long an interrupt waits.
    """
    modulus = pp.modulus
    t = pp.iterations
    if (not isinstance(x, int) or not 1 <= x <= modulus // 2
            or math.gcd(x, modulus) != 1):
        raise InputOutOfRange(f"input must be a canonical unit in [1, modulus / 2], got {x}")

    levels = expected_checkpoint_count(t)
    y, kept, done = x, [], 0
    for stop in _loop_stops(t):
        y = _square(y, stop - done, modulus)
        kept.append(y)
        done = stop
    y = _canonical(_square(y, t - done, modulus), modulus)
    q1, mu, q3 = kept

    transcript = _Transcript(modulus, t, x, y)
    checkpoints = []
    X, remaining = x, t
    for level in range(1, levels + 1):
        if remaining % 2 == 1:
            X = _powmod(X, 2, modulus)
        remaining //= 2
        if level == 2:
            mu = _powmod(q1, r, modulus, q3)
        elif level > 2:
            mu = _square(X, remaining, modulus)
        checkpoints.append(_canonical(mu, modulus))
        r = transcript.challenge(checkpoints[-1])
        if level < levels:
            X = _powmod(X, r, modulus, mu)

    proof = VdfProof(
        output=y,
        checkpoints=tuple(checkpoints),
        embedded_prime_length_bits=pp.prime_length_bits,
    )
    return y, proof


def _right_side(modulus: int, y: int, midpoints: tuple[int, ...], challenges: list[int],
                rival: Optional[Future] = None) -> Optional[int]:
    """y * prod mu_j^{r_j}, the right side of a folded claim; None once
    ``rival``, the worker computing the same, has finished."""
    for midpoint, r in zip(midpoints, challenges):
        if rival is not None and rival.done():
            return None
        y = _powmod(midpoint, r, modulus, y)
    return y


def _start_worker() -> None:
    """Create verify's worker; its thread starts on the first verify.

    Also run in a forked child, which inherits the executor but not its thread.
    """
    global _RIGHT_SIDES
    _RIGHT_SIDES = ThreadPoolExecutor(max_workers=1, thread_name_prefix="delaytower-verify")


_start_worker()
os.register_at_fork(after_in_child=_start_worker)

# The smallest modulus whose right side verify hands to its worker. Splitting
# pays only while one 128-bit exponentiation outlasts a thread's wake-up, about
# 50 us on a shared 2-vCPU VM. At 512 bits one took 28 us, and split verifies
# were no faster in the median than one thread and several times slower in the
# tail. At 2048 bits one took 150-265 us, and split verifies at t = 4096 took
# 1.8 ms in the median against 2.5-2.9 ms on one thread.
_HAND_OFF_BITS = 2048


def _hand_off(modulus: int, *args) -> Callable[[], int]:
    """Start ``_right_side(modulus, *args)`` on verify's worker, and return
    what gets its value once the caller's left side is done.

    If the worker has not begun by then, the caller computes the right side
    itself; if it has, the caller races it level by level and takes whichever
    finishes first. So a worker whose core is busy elsewhere costs verify about
    the time of computing the right side itself, not the time it waits for
    the core.
    Below ``_HAND_OFF_BITS``, and once interpreter shutdown has begun (while it
    waits for the threads still running, executors take no work), the caller
    simply computes it.
    """
    if modulus.bit_length() >= _HAND_OFF_BITS:
        try:
            future = _RIGHT_SIDES.submit(_right_side, modulus, *args)
        except RuntimeError:
            pass
        else:
            def value() -> int:
                ours = _right_side(modulus, *args, rival=None if future.cancel() else future)
                return future.result() if ours is None else ours
            return value
    return partial(_right_side, modulus, *args)


def verify(modulus: int, iterations: int, x: int, y: int, proof: VdfProof) -> bool:
    """Check that proof shows x^(2^iterations) = y mod modulus, up to sign.

    Malformed input yields False before any exponentiation: an x, y or
    midpoint that is not canonical, an x or y that is not a unit mod modulus,
    or a midpoint count other than ``expected_checkpoint_count``. Otherwise
    this thread folds the left side and does at most ``MAX_DIRECT_SQUARINGS``
    squarings while, from ``_HAND_OFF_BITS`` on, the worker folds the right.
    """
    if proof.output != y or iterations < 1:
        return False
    if len(proof.checkpoints) != expected_checkpoint_count(iterations):
        return False
    for element in (x, y, *proof.checkpoints):
        if not isinstance(element, int) or not 1 <= element <= modulus // 2:
            return False
    if math.gcd(x * y, modulus) != 1:
        return False

    transcript = _Transcript(modulus, iterations, x, y)
    challenges = [transcript.challenge(midpoint) for midpoint in proof.checkpoints]
    right = _hand_off(modulus, y, proof.checkpoints, challenges)
    X, remaining = x, iterations
    for midpoint, r in zip(proof.checkpoints, challenges):
        if remaining % 2 == 1:
            X = _powmod(X, 2, modulus)
        remaining //= 2
        X = _powmod(X, r, modulus, midpoint)
    X = _powmod(X, 1 << remaining, modulus)
    return _canonical(X, modulus) == _canonical(right(), modulus)


def fast_reject(security: SecurityParams, proof: VdfProof) -> bool:
    """Cheap structural screen run before full verification; True means reject.

    Rejects any proof whose declared prime length differs from the network
    profile, whose midpoint count does not match the effective step count, or
    whose elements cannot possibly lie in the group. Costs a handful of integer
    comparisons regardless of the step count.
    """
    if proof.embedded_prime_length_bits != security.prime_length_bits:
        return True
    expected = expected_checkpoint_count(effective_iterations(security.iterations))
    if len(proof.checkpoints) != expected:
        return True
    bound = 1 << security.modulus_bits
    return not all(isinstance(element, int) and 1 <= element < bound
                   for element in (proof.output, *proof.checkpoints))


def check_proof(security: SecurityParams, modulus: int, x: int, y: int,
                proof: VdfProof) -> Optional[str]:
    """Screen with ``fast_reject``, then ``verify`` at the effective step count.

    Returns None for a good proof, otherwise the check that failed: "screen"
    or "transcript". A screened-out proof never reaches ``verify``.
    """
    if fast_reject(security, proof):
        return "screen"
    if not verify(modulus, effective_iterations(security.iterations), x, y, proof):
        return "transcript"
    return None


def serialize_proof(proof: VdfProof) -> bytes:
    """Canonical proof bytes: version byte, then length-prefixed integers."""
    out = bytearray()
    out += encode_uint(PROOF_FORMAT_VERSION, 1)
    out += encode_uint(proof.embedded_prime_length_bits, 4)
    out += encode_bigint(proof.output)
    out += encode_uint(len(proof.checkpoints), 4)
    for midpoint in proof.checkpoints:
        out += encode_bigint(midpoint)
    return bytes(out)


def deserialize_proof(data: bytes) -> VdfProof:
    """Parse proof bytes; raises DecodeError on any malformation."""
    reader = Reader(data)
    version = reader.uint(1)
    if version != PROOF_FORMAT_VERSION:
        raise DecodeError(f"unsupported proof format version {version}")
    prime_bits = reader.uint(4)
    output = reader.bigint()
    count = reader.uint(4)
    checkpoints = tuple(reader.bigint() for _ in range(count))
    reader.expect_end()
    return VdfProof(output=output, checkpoints=checkpoints,
                    embedded_prime_length_bits=prime_bits)
