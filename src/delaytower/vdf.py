"""Sequential-squaring delay function over an RSA group.

Evaluation computes x^(2^t) mod N by t strictly sequential squarings, so the
wall time grows linearly with t no matter how much hardware is thrown at it.
Verification replays a halving transcript (Pietrzak, "Simple Verifiable Delay
Functions", ITCS 2019): the prover publishes the midpoint mu = X^(2^(t/2))
at each level, and the claim X^(2^t) = Y folds into

    (X^r * mu)^(2^(t/2)) = mu^r * Y

with a challenge r. The fold stops once at most ``MAX_DIRECT_SQUARINGS``
(2^7) squarings remain, so a proof for t = 2^k carries max(0, k - 7)
midpoints. The verifier folds every level but the last, whose midpoint mu_k
splits the claim X^(2^(2h)) = Y, h <= 2^7, into two it checks by squaring:
X^(2^h) = mu_k and mu_k^(2^h) = Y. Both imply that level's fold for any r.

A proof is its midpoints; y is the claim they support, carried beside them.
Formats 3 and 4 draw level j's 128-bit challenge from a running SHA-256 over
the claim and the proof, (N, t, x, y, mu_1 .. mu_j) and j, so the left side
X_j = X_{j-1}^{r_j} * mu_j and the right side y * prod mu_j^{r_j} fold apart.
Eval is two halves: ``squarings``, which keeps the powers of x that levels 1 to s fold, s
about log2(sqrt(t) / 16), then ``prove``, which makes those levels' midpoints from them,
squares for the rest, and folds only the left side, up to the last midpoint. The package
has one worker thread, and ``_queued`` is the one way onto it. On every engine it takes
``tower.grow``'s proofs and saves, off the thread Ctrl-C lands on. On libcrypto, at any
modulus size, it takes the half ``_beside`` hands it: ``check_proofs``' tasks, which the
caller takes too after its own work, and derivation's q search. On libcrypto from
``_HAND_OFF_BITS`` modulus bits, it takes verify's right side, two midpoints an
exponentiation.
Every input, output and midpoint is canonical, min(v, N - v), and verify
compares up to sign: -1 has order 2 mod N, so N - y would pass for y otherwise.

All group arithmetic is two functions on ints. ``_powmod``, b1^e1 * b2^e2 * f mod N,
serves eval's t sequential squarings, the transcript's midpoints, each side of verify and
Miller-Rabin; on libcrypto it keeps each odd modulus's Montgomery constants
(``_MontContext``) in a bounded cache that every thread shares, since nothing writes them
once built. ``_powmod_pair``, two exponentiations modulo two prime candidates, runs
Miller-Rabin two rounds a call. A candidate, used once, gets a transient context. The
scratch space libcrypto does write belongs to one thread (``_Scratch``). libcrypto drops
the GIL inside each ctypes call, so two threads' sides, of one verify or of
``check_proofs``' tasks, run at once. Without libcrypto, or for an even modulus, the
builtin ``pow`` gives the same results on one thread: it holds the GIL. ``powmod_engine``
names the engine. Eval squares by raising to 2^k, at most ``_LOOP_CHUNK`` squarings a
call: a native call cannot be interrupted, so that bounds how long Ctrl-C waits. The delay
runs on the fastest engine available because tower height is a fair measure only if honest
miners square about as fast as anyone can: a proof certifies the count of sequential
squarings, not the engine that did them.

The group modulus is a product of two primes derived from a genesis seed; every
participant of one network shares it. Each prime is the first candidate of a
hash stream to pass a gcd with the primes below 1024, then Miller-Rabin; on
libcrypto, the worker searches q while the caller searches p.
Inputs are bound to a participant by hashing their public key and declared
endpoint into the group, which makes a chain of these proofs non-transferable.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import itertools
import math
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Optional

from .serialization import DecodeError, Reader, encode_bigint, encode_bytes, encode_uint, \
    LEGACY_KEYS, fields_from_doc, json_int, magnitude

DEFAULT_MODULUS_SEED = b"delay-tower/genesis/v1"
# The one prime-length label; only the registration message and ``security`` documents write it.
PRIME_LENGTH_BITS = 512

PROOF_FORMAT_VERSION = 4

# Proof formats 2 to 4 stop the fold once at most this many squarings remain;
# the verifier checks the last level as two claims of at most this many
# squarings, one a side. A folded level costs the left side one exponentiation
# by a 128-bit challenge, about 170 squarings at 2048 bits: more than the 64 a
# side a later stop saves. An earlier stop would save about 40 squarings' worth
# on the left, too little to change the proof format for.
MAX_DIRECT_SQUARINGS = 1 << 7

# Most squarings in one native call of eval's: bounds Ctrl-C's wait (54 ms at 2048 bits).
_LOOP_CHUNK = 1 << 16

_DOMAIN_INPUT = b"delay-tower/input/v1"
_DOMAIN_GROUP = b"delay-tower/group/v1"
_DOMAIN_CHALLENGE = b"delay-tower/challenge/v3"
_DOMAIN_PRIME = b"delay-tower/prime/v1"
_DOMAIN_WITNESS = b"delay-tower/witness/v1"

_CHALLENGE_BYTES = 16

# The cap bounds a parsed modulus's primality test, whose cost grows as the size cubed.
_MIN_MODULUS_BITS, _MAX_MODULUS_BITS = 64, 8192


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
    "BN_mod_exp2_mont": ([_P] * 8, ctypes.c_int),
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


# Read-only after import; tests set _LIBCRYPTO to None to force the builtin fallback, and
# _EXP_X2, which libcrypto 1.1.1 lacks, to None to hide it.
_LIBCRYPTO = _load_libcrypto()
_EXP_X2 = getattr(_LIBCRYPTO, "BN_mod_exp_mont_consttime_x2", None)
if _EXP_X2 is not None:
    _EXP_X2.argtypes, _EXP_X2.restype = [_P] * 11, ctypes.c_int


def powmod_engine() -> str:
    """Name of the library the group arithmetic runs on: a libcrypto soname or "builtin pow"."""
    return _LIBCRYPTO._name if _LIBCRYPTO is not None else "builtin pow"


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
        data = magnitude(modulus)
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
    """One thread's libcrypto scratch: a ``BN_CTX`` and eight ``BIGNUM``s, for two bases and
    their exponents, the factor or a second modulus, an uncached modulus and two results.
    Keeping it saves libcrypto allocating its temporaries again on every call."""

    def __init__(self, lib: ctypes.CDLL):
        self.lib = lib
        self.ctx = lib.BN_CTX_new()
        self.bignums = [lib.BN_new() for _ in range(8)]
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
    data = magnitude(value)
    if not lib.BN_bin2bn(data, len(data), bignum):
        raise MemoryError("BN_bin2bn failed")


def _read(lib: ctypes.CDLL, bignum: int, modulus: int) -> int:
    out = ctypes.create_string_buffer((modulus.bit_length() + 7) // 8)
    if lib.BN_bn2binpad(bignum, out, len(out)) < 0:
        raise ValueError("result is wider than the modulus")
    return int.from_bytes(out.raw, "big")


def _scratch(lib: ctypes.CDLL) -> _Scratch:
    if getattr(_THREAD, "scratch", None) is None:
        _THREAD.scratch = _Scratch(lib)
    return _THREAD.scratch


def _powmod(base: int, exponent: int, modulus: int, factor: int = 1,
            base2: int = 1, exponent2: int = 0, cached: bool = True) -> int:
    """base^exponent * base2^exponent2 * factor mod modulus, for arguments >= 0 and modulus > 1.

    Runs on ``BN_mod_exp_mont``, or ``BN_mod_exp2_mont`` given two nonzero exponents, then,
    unless factor is 1, ``BN_mod_mul``, with the thread's ``_Scratch``, when libcrypto loaded
    and the modulus is odd; else on the builtin. The modulus's ``_MontContext`` comes from
    the cache, or, unless ``cached``, libcrypto builds a transient one for this call.
    """
    lib = _LIBCRYPTO
    if lib is None or modulus % 2 == 0:
        return pow(base, exponent, modulus) * pow(base2, exponent2, modulus) * factor % modulus
    if exponent == 0:  # BN_mod_exp2_mont gives 0 for a first base of 0 even then; pow gives 1
        base, exponent, base2, exponent2 = base2, exponent2, 1, 0
    scratch = _scratch(lib)
    ctx, (b, e, b2, e2, f, n, result, _), mont = scratch.ctx, scratch.bignums, None
    if cached:
        with _MONT_LOCK:
            context = _mont_context(lib, modulus)
        n, mont = context.modulus, context.mont
    else:  # given no BN_MONT_CTX, libcrypto builds one for the call
        _load(lib, n, modulus)
    _load(lib, b, base)
    _load(lib, e, exponent)
    if exponent2 == 0:
        done = lib.BN_mod_exp_mont(result, b, e, n, ctx, mont)
    else:
        _load(lib, b2, base2)
        _load(lib, e2, exponent2)
        done = lib.BN_mod_exp2_mont(result, b, e, b2, e2, n, ctx, mont)
    if not done:
        raise ValueError("BN_mod_exp_mont failed")
    if factor != 1:
        _load(lib, f, factor)
        if not lib.BN_mod_mul(result, result, f, n, ctx):
            raise ValueError("BN_mod_mul failed")
    return _read(lib, result, modulus)


# The one modulus width at which ``BN_mod_exp_mont_consttime_x2`` runs both exponentiations in
# one kernel (AVX-512 IFMA); at others it makes two constant-time ones. Against two ``_powmod``
# calls a pair took x1.07, 0.82, 1.12, 0.48, 1.05, 1.04 at 256, 512, 768, 1024, 1536, 2048 bits
# (2-vCPU VM with IFMA); the gain at 512 bits, the same with IFMA masked, is not the kernel's.
_PAIR_BITS = 1024


def _powmod_pair(base: int, exponent: int, modulus: int, base2: int, exponent2: int,
                 modulus2: int) -> tuple[int, int]:
    """(base^exponent mod modulus, base2^exponent2 mod modulus2), bases below their odd moduli,
    each used once: one ``BN_mod_exp_mont_consttime_x2`` if both moduli are ``_PAIR_BITS`` wide,
    else two ``_powmod(..., cached=False)``. Its kernel takes operands only that wide."""
    lib, kernel = _LIBCRYPTO, _EXP_X2
    if (lib is None or kernel is None or not modulus & modulus2 & 1
            or not modulus.bit_length() == modulus2.bit_length() == _PAIR_BITS):
        return (_powmod(base, exponent, modulus, cached=False),
                _powmod(base2, exponent2, modulus2, cached=False))
    scratch = _scratch(lib)
    *operands, result, result2 = scratch.bignums
    for bignum, value in zip(operands, (base, exponent, modulus, base2, exponent2, modulus2)):
        _load(lib, bignum, value)
    if not kernel(result, *operands[:3], None, result2, *operands[3:], None, scratch.ctx):
        raise ValueError("BN_mod_exp_mont_consttime_x2 failed")
    return _read(lib, result, modulus), _read(lib, result2, modulus2)


class InvalidSecurityParams(ValueError):
    """Security parameter outside the supported bounds."""


class InputOutOfRange(ValueError):
    """Evaluation input is not a usable group element."""


@dataclass(frozen=True)
class SecurityParams:
    """Network-wide difficulty profile, fixed at genesis for every participant.
    ``iterations``, the t every proof squares, is a power of two: the halving is for 2^k."""

    modulus_bits: int
    iterations: int

    def __post_init__(self):
        if not _MIN_MODULUS_BITS <= self.modulus_bits <= _MAX_MODULUS_BITS:
            raise InvalidSecurityParams(f"modulus_bits must be in [{_MIN_MODULUS_BITS}, "
                                        f"{_MAX_MODULUS_BITS}], got {self.modulus_bits}")
        if self.iterations < 1 or self.iterations & (self.iterations - 1):
            raise InvalidSecurityParams(
                f"iterations must be a power of two, got {self.iterations}")

    def to_doc(self) -> dict:
        """JSON object of every field and the label; ``from_doc`` reads it back."""
        return {**asdict(self), "prime_length_bits": PRIME_LENGTH_BITS}

    @classmethod
    def from_doc(cls, doc) -> "SecurityParams":
        """Parse ``to_doc``'s form; missing keys take the defaults, and no other label passes."""
        values = fields_from_doc(cls, doc, LEGACY_KEYS["security"])
        label = json_int("prime_length_bits", doc.get("prime_length_bits", PRIME_LENGTH_BITS))
        if label != PRIME_LENGTH_BITS:
            raise InvalidSecurityParams(
                f"prime_length_bits must be {PRIME_LENGTH_BITS}, got {label}")
        return cls(**values)


@dataclass(frozen=True)
class PublicParams:
    """Per-participant evaluation parameters over the shared group: the participant's
    key and endpoint, and the sequential step count, which ``setup`` copies from
    ``SecurityParams``. The proof itself folds any t >= 1.
    """

    modulus: int
    public_key: bytes
    endpoint: bytes
    iterations: int

    def __post_init__(self):
        check_modulus(self.modulus)
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    @property
    def input_digest(self) -> bytes:
        """Domain-separated digest of key and endpoint; record 0's input is hashed from it."""
        return hashlib.sha256(_DOMAIN_INPUT + encode_bytes(self.public_key)
                              + encode_bytes(self.endpoint)).digest()


@dataclass(frozen=True)
class VdfProof:
    """Halving transcript: the per-level midpoints that support a claim x^(2^t) = y.
    The label is held in memory only; ``fast_reject`` refuses any other value."""

    checkpoints: tuple[int, ...]
    embedded_prime_length_bits: int = PRIME_LENGTH_BITS


def expected_checkpoint_count(iterations: int) -> int:
    """Number of halving midpoints a transcript for ``iterations`` steps carries.

    One per level while more than ``MAX_DIRECT_SQUARINGS`` steps remain; after
    j levels floor(t / 2^j) remain. For t = 2^k that is max(0, k - 7).
    """
    return (iterations // (MAX_DIRECT_SQUARINGS + 1)).bit_length()


# The primes below 1024, and their product: one gcd with it refuses a candidate
# with a small factor, which would otherwise cost a Miller-Rabin exponentiation.
_SMALL_PRIMES = frozenset(n for n in range(2, 1024)
                          if all(n % d for d in range(2, math.isqrt(n) + 1)))
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)


def _first_prime(candidates: Iterable[int], rounds: int, stop: threading.Event) -> Optional[int]:
    """The first of ``candidates``, each above 1024, with no factor below 1024 that passes
    ``rounds`` >= 1 Miller-Rabin rounds, two a call; None if none does, or once ``stop`` is
    set, checked before each pair. The first rounds of two candidates run together, then each
    one's later rounds in turn, up to one it fails: verdicts and cost are those of one round at
    a time, but for the partner of the prime found. Round j's witness a = 2 + (SHA-256 of n and
    j) mod (n - 3) has 256 bits or fewer, so it raises n - a, which the kernel takes: with
    n - 1 = d * 2^r, d odd, (n - a)^d = -(a^d), and a round, which asks whether x is 1 or one
    of x, x^2, ..., x^(2^(r - 1)) is -1, judges -x as it judges x."""
    def passes(tests: list[tuple[int, int]]) -> list[bool]:  # for each (n, j), one or two
        calls, verdicts = [], []
        for n, j in tests:
            seed = hashlib.sha256(_DOMAIN_WITNESS + magnitude(n) + j.to_bytes(4, "big")).digest()
            calls.append((n - 2 - int.from_bytes(seed, "big") % (n - 3),
                          (n - 1) // ((n - 1) & (1 - n)), n))
        powers = (_powmod_pair(*calls[0], *calls[1]) if len(calls) == 2
                  else [_powmod(*calls[0], cached=False)])
        for x, (_, d, n) in zip(powers, calls):
            passed = x == 1
            while not passed and d < n - 1:  # x = (n - a)^d, then its squares, to the (n - 1) / 2
                passed, x, d = x == n - 1, x * x % n, 2 * d
            verdicts.append(passed)
        return verdicts

    survivors = (n for n in candidates if math.gcd(n, _SMALL_PRODUCT) == 1)
    while not stop.is_set() and (pair := list(itertools.islice(survivors, 2))):
        for n, passed in zip(pair, passes([(n, 0) for n in pair])):
            if passed and all(all(passes([(n, j) for j in range(k, min(k + 2, rounds))]))
                              for k in range(1, rounds, 2)):
                return n
    return None


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin with witnesses derived from n itself, so results are stable, after
    a sieve: n below 1024 is looked up, and a larger n with a factor below 1024 refused."""
    if n < 1024:
        return n in _SMALL_PRIMES
    return _first_prime((n,), rounds, threading.Event()) == n


@lru_cache(maxsize=64)
def _is_prime_modulus(n: int) -> bool:
    return is_probable_prime(n, rounds=8)


def check_modulus(modulus: int) -> None:
    """Raise ValueError unless ``modulus`` is odd, above 3 and composite."""
    if modulus <= 3 or modulus % 2 == 0:
        raise ValueError("modulus must be an odd integer greater than 3")
    if _is_prime_modulus(modulus):
        raise ValueError("modulus must be composite")


def _hashed(prefix: bytes, bits: int) -> Iterator[int]:
    """SHAKE-256 of ``prefix`` and a 4-byte big-endian counter 0, 1, 2, ..., each
    output read as an int and cut to its low ``bits`` bits."""
    for counter in itertools.count():
        stream = hashlib.shake_256(prefix + counter.to_bytes(4, "big")).digest((bits + 7) // 8)
        yield int.from_bytes(stream, "big") & ((1 << bits) - 1)


def _derive_prime(bits: int, seed: bytes, tag: bytes, stop: threading.Event) -> Optional[int]:
    """First probable prime in a counter-extended hash stream, top two bits set;
    None once ``stop`` is set, checked before each pair of candidates."""
    top = (1 << (bits - 1)) | (1 << (bits - 2)) | 1
    return _first_prime((c | top for c in _hashed(_DOMAIN_PRIME + seed + tag, bits)), 40, stop)


@lru_cache(maxsize=32)
def _derive_modulus(modulus_bits: int, seed: bytes) -> int:
    """p * q, with p searched on this thread and q ``_beside`` it, on the package's worker."""
    half, stop = modulus_bits // 2, threading.Event()
    p, q = _beside(stop, partial(_derive_prime, half, seed, b"p", stop),
                   partial(_derive_prime, modulus_bits - half, seed, b"q", stop))
    return p * q


def generate_modulus(modulus_bits: int, seed: bytes = DEFAULT_MODULUS_SEED) -> int:
    """Deterministic two-prime modulus for the given bit length and seed, cached per
    (bits, seed) whatever the calling convention: the primes are searched once a process."""
    return _derive_modulus(modulus_bits, seed)


generate_modulus.cache_clear = _derive_modulus.cache_clear
generate_modulus.cache_info = _derive_modulus.cache_info


def _canonical(value: int, modulus: int) -> int:
    """The form of ``value`` and ``modulus - value`` in which elements are hashed,
    published and compared: the smaller one."""
    return min(value, modulus - value)


def hash_to_group(digest: bytes, modulus: int) -> int:
    """Map a digest to a canonical element of [2, modulus - 1) by rejection sampling."""
    for candidate in _hashed(_DOMAIN_GROUP + digest, modulus.bit_length()):
        if 2 <= candidate < modulus - 1:
            return _canonical(candidate, modulus)


def setup(
    security: SecurityParams,
    public_key: bytes,
    endpoint: bytes,
    *,
    modulus: Optional[int] = None,
) -> PublicParams:
    """Derive a participant's public parameters.

    The modulus comes from ``DEFAULT_MODULUS_SEED`` (or is passed in directly
    when a network has already published one); t is ``security.iterations``.
    """
    if not public_key:
        raise ValueError("public_key must be non-empty")
    if modulus is None:
        modulus = generate_modulus(security.modulus_bits)
    return PublicParams(
        modulus=modulus,
        public_key=bytes(public_key),
        endpoint=bytes(endpoint),
        iterations=security.iterations,
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


def squarings(pp: PublicParams, x: int) -> tuple[int, tuple[int, ...]]:
    """The sequential half of ``eval``: the canonical x^(2^t) mod N and, in level order,
    the 2^s - 1 powers x^(2^p) of which ``prove`` makes the midpoints of levels 1 to s.

    s = min(levels, max(2, t.bit_length() // 2 - 4)), about log2(sqrt(t) / 16), where the
    2^(s+1) exponentiations by a challenge that folding them costs match the t/2^s
    squarings they save. x must be a canonical unit mod N, as ``hash_to_group`` returns;
    any other input raises InputOutOfRange, because no proof for it verifies. No call
    squares more than ``_LOOP_CHUNK`` times, which bounds how long an interrupt waits.
    """
    modulus, t = pp.modulus, pp.iterations
    if (not isinstance(x, int) or not 1 <= x <= modulus // 2
            or math.gcd(x, modulus) != 1):
        raise InputOutOfRange(f"input must be a canonical unit in [1, modulus / 2], got {x}")
    # terms: each p such that X_j, folded through level j, has a factor of x^(2^p).
    terms, positions, rest = [0], [], t
    for _ in range(min(expected_checkpoint_count(t), max(2, t.bit_length() // 2 - 4))):
        terms = [p + rest % 2 for p in terms]  # an odd level squares X first
        rest //= 2
        level = [p + rest for p in terms]
        positions += level
        terms += level
    y, kept, done = x, {}, 0
    for position in sorted(positions):
        y = kept[position] = _square(y, position - done, modulus)
        done = position
    return (_canonical(_square(y, t - done, modulus), modulus),
            tuple(kept[position] for position in positions))


def prove(pp: PublicParams, x: int, y: int, powers: tuple[int, ...]) -> VdfProof:
    """The other half of ``eval``: the transcript for ``squarings``' y and powers.

    Level j <= s folds its 2^(j-1) powers in adjacent pairs, a^r * b, by r_1, then r_2, up
    to r_(j-1); later levels square X. A miner proves while the next link squares."""
    modulus, t = pp.modulus, pp.iterations
    levels = expected_checkpoint_count(t)
    transcript = _Transcript(modulus, t, x, y)
    checkpoints, challenges = [], []
    X, remaining = x, t
    for level in range(1, levels + 1):
        if remaining % 2 == 1:
            X = _powmod(X, 2, modulus)
        remaining //= 2
        kept, powers = powers[:1 << (level - 1)], powers[1 << (level - 1):]
        for r in challenges:  # a level past s keeps no power: nothing to fold
            kept = [_powmod(a, r, modulus, b) for a, b in zip(kept[::2], kept[1::2])]
        mu = kept[0] if kept else _square(X, remaining, modulus)
        checkpoints.append(_canonical(mu, modulus))
        challenges.append(transcript.challenge(checkpoints[-1]))
        if level < levels:
            X = _powmod(X, challenges[-1], modulus, mu)
    return VdfProof(tuple(checkpoints))


def eval(pp: PublicParams, x: int) -> tuple[int, VdfProof]:
    """x^(2^t) mod N by t sequential squarings, and its proof: ``squarings``, then ``prove``."""
    y, powers = squarings(pp, x)
    return y, prove(pp, x, y, powers)


def _challenges(modulus: int, iterations: int, x: int, y: int,
                proof: VdfProof) -> Optional[list[int]]:
    """Every level's challenge but the last; None, before any exponentiation, if an x,
    y or midpoint is not canonical, x or y is not a unit, or the midpoint count is wrong."""
    if iterations < 1 or len(proof.checkpoints) != expected_checkpoint_count(iterations):
        return None
    for element in (x, y, *proof.checkpoints):
        if not isinstance(element, int) or not 1 <= element <= modulus // 2:
            return None
    if math.gcd(x * y, modulus) != 1:
        return None
    transcript = _Transcript(modulus, iterations, x, y)
    return [transcript.challenge(midpoint) for midpoint in proof.checkpoints[:-1]]


def _left_side(modulus: int, iterations: int, x: int, y: int, midpoints: tuple[int, ...],
               challenges: list[int]) -> bool:
    """Whether x folds to X_k with X_k^(2^h) = mu_k, checked by squaring at the last
    level, or x^(2^t) = y when there is no midpoint."""
    X, remaining = x, iterations
    for level, midpoint in enumerate(midpoints):
        if remaining % 2 == 1:
            X = _powmod(X, 2, modulus)
        remaining //= 2
        if level < len(challenges):
            X = _powmod(X, challenges[level], modulus, midpoint)
    last = midpoints[-1] if midpoints else y
    return _canonical(_powmod(X, 1 << remaining, modulus), modulus) == last


def _right_side(modulus: int, y: int, midpoints: tuple[int, ...], challenges: list[int],
                steps: int, rival: Optional[Future] = None) -> Optional[bool]:
    """Whether mu_k^(2^steps) = +-y * prod mu_j^{r_j} over j < k, two midpoints a call;
    None once ``rival``, the worker checking the same, has finished."""
    bases, exponents = (*midpoints[:-1], 1), (*challenges, 0)
    for i in range(0, len(challenges), 2):
        if rival is not None and rival.done():
            return None
        y = _powmod(bases[i], exponents[i], modulus, y, bases[i + 1], exponents[i + 1])
    if rival is not None and rival.done():
        return None
    return _canonical(_powmod(midpoints[-1], 1 << steps, modulus), modulus) == \
        _canonical(y, modulus)


def _start_worker() -> None:
    """Create the package's one worker; its thread starts on its first task.

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
# tail. At 2048 bits one took 150-290 us, and split verifies at t = 4096 took
# 1.3-1.6 ms in the median against 1.8-2.4 ms on one thread.
_HAND_OFF_BITS = 2048


def _queued(fn: Callable, *args) -> Future:
    """``fn(*args)`` queued on the package's worker, off the thread Ctrl-C lands on; run
    here, into a finished future, on the worker itself, which would never reach it behind
    the task in hand, and once shutdown stops executors."""
    if not threading.current_thread().name.startswith("delaytower-verify"):
        with contextlib.suppress(RuntimeError):
            return _RIGHT_SIDES.submit(fn, *args)
    future = Future()
    future.set_result(fn(*args))
    return future


def _beside(stop: threading.Event, ours: Callable, theirs: Callable) -> tuple:
    """(ours(), theirs()): on libcrypto, ours on this thread while theirs is ``_queued``, and
    run here after ours if the worker has not begun it; on builtin ``pow``, which holds the
    GIL, both here. On the worker itself, or once shutdown stops executors, ``_queued`` runs
    theirs first, at once. An exception in either sets ``stop``, which each should heed, and
    propagates once the worker has finished its task in hand."""
    def guarded():
        try:
            return theirs()
        except BaseException:
            stop.set()
            raise

    future = _queued(guarded) if _LIBCRYPTO is not None else None
    try:
        mine = ours()
        if future is None or future.cancel():  # cancelled if queued behind this thread
            return mine, theirs()
        return mine, future.result()  # this raises what the worker raised
    except BaseException:
        stop.set()
        if future is not None and not future.cancel():
            wait([future])
        raise


def verify(modulus: int, iterations: int, x: int, y: int, proof: VdfProof) -> bool:
    """Check that proof shows x^(2^iterations) = y mod modulus, up to sign: False for
    malformed input (``_challenges``), else ``_left_side`` on this thread and ``_right_side``.

    On libcrypto, from ``_HAND_OFF_BITS`` on, the right side is ``_queued`` first. If the
    worker has not begun it once the left side is done, this thread computes it; if it has,
    this thread races it level by level and takes whichever finishes first. So a worker
    whose core is busy elsewhere costs verify about the time of computing the right side
    itself, not the time it waits for the core.
    """
    challenges = _challenges(modulus, iterations, x, y, proof)
    if challenges is None:
        return False
    midpoints = proof.checkpoints
    right = (modulus, y, midpoints, challenges, iterations >> len(midpoints))
    future = (_queued(_right_side, *right) if midpoints and _LIBCRYPTO is not None
              and modulus.bit_length() >= _HAND_OFF_BITS else None)
    left = _left_side(modulus, iterations, x, y, midpoints, challenges)
    if not midpoints:
        return left
    ours = _right_side(*right, rival=None if future is None or future.cancel() else future)
    return (future.result() if ours is None else ours) and left


def fast_reject(modulus: int, iterations: int, proof: VdfProof) -> bool:
    """Cheap structural screen run before full verification; True means reject.

    Rejects any proof whose prime-length label is not ``PRIME_LENGTH_BITS``,
    whose midpoint count does not match ``iterations``, or whose midpoints are
    zero or wider than the modulus. Costs a handful of integer comparisons
    regardless of the step count.
    """
    bound = 1 << modulus.bit_length()
    return (proof.embedded_prime_length_bits != PRIME_LENGTH_BITS
            or len(proof.checkpoints) != expected_checkpoint_count(iterations)
            or not all(isinstance(m, int) and 1 <= m < bound for m in proof.checkpoints))


def check_proof(modulus: int, iterations: int, x: int, y: int,
                proof: VdfProof) -> Optional[str]:
    """Screen with ``fast_reject``, then ``verify``, both at ``iterations`` steps.

    Returns None for a good proof, otherwise the check that failed: "screen"
    or "transcript". A screened-out proof never reaches ``verify``.
    """
    if fast_reject(modulus, iterations, proof):
        return "screen"
    if not verify(modulus, iterations, x, y, proof):
        return "transcript"
    return None


def check_proofs(modulus: int, iterations: int, claims, spent: Optional[list[float]] = None,
                 work: Callable[[], object] = lambda: None) -> Optional[tuple[int, str]]:
    """``check_proof`` on each (x, y, proof) of ``claims``: lowest failing (index, gate) or None.

    After the screens, both sides of each claim before the first screened out are
    tasks, taken in index order by the package's worker on libcrypto, at any modulus size, and
    by this thread once it has done ``work()``, until one fails. An exception, Ctrl-C in
    ``work`` too, stops both threads after their task in hand, and propagates.
    ``spent[i]`` gains the seconds claim i's tasks took."""
    tasks, screened = [], None
    for index, (x, y, proof) in enumerate(claims):
        gate = "screen" if fast_reject(modulus, iterations, proof) else None
        challenges = None if gate else _challenges(modulus, iterations, x, y, proof)
        if challenges is None:
            screened = (index, gate or "transcript")
            break
        midpoints, steps = proof.checkpoints, iterations >> len(proof.checkpoints)
        tasks += [(index, partial(_left_side, modulus, iterations, x, y, midpoints, challenges)),
                  (index, partial(_right_side, modulus, y, midpoints, challenges, steps)
                   if midpoints else lambda: True)]
    # next() on the shared iterator is one C call, atomic under the GIL; append is too.
    cursor, failed, seconds = iter(range(len(tasks))), [], [0.0] * len(tasks)
    stop = threading.Event()

    def run(first: Callable[[], object] = lambda: None) -> None:
        first()
        for i in cursor:
            if stop.is_set() or failed and tasks[i][0] >= min(failed):
                return
            started = time.perf_counter()
            if not tasks[i][1]():
                failed.append(tasks[i][0])
            seconds[i] = time.perf_counter() - started

    # A second run on this thread, if the worker never began its own, finds no task left.
    # The worker wakes once a check, not once an exponentiation as in verify: no size bound.
    _beside(stop, partial(run, work), run)
    for (index, _), taken in zip(tasks, seconds if spent is not None else ()):
        spent[index] += taken
    return (min(failed), "transcript") if failed else screened


def serialize_proof(proof: VdfProof) -> bytes:
    """Canonical proof bytes: version byte, midpoint count, then the length-prefixed midpoints."""
    return (encode_uint(PROOF_FORMAT_VERSION, 1) + encode_uint(len(proof.checkpoints), 4)
            + b"".join(map(encode_bigint, proof.checkpoints)))


def deserialize_proof(data: bytes) -> VdfProof:
    """Parse proof bytes; raises DecodeError on any malformation."""
    reader = Reader(data)
    version = reader.uint(1)
    if version != PROOF_FORMAT_VERSION:
        raise DecodeError(f"unsupported proof format version {version}")
    checkpoints = tuple(reader.bigint() for _ in range(reader.uint(4)))
    reader.expect_end()
    return VdfProof(checkpoints)
