"""Sequential-squaring delay function over an RSA group.

Evaluation computes x^(2^t) mod N by t strictly sequential squarings, so the
wall time grows linearly with t no matter how much hardware is thrown at it.
Verification replays a halving transcript (Pietrzak, "Simple Verifiable Delay
Functions", ITCS 2019): the prover publishes the midpoint mu = x^(2^(t/2))
at each level, and both sides fold the claim

    x^(2^t) = y   into   (x^r * mu)^(2^(t/2)) = mu^r * y

with a hash-derived challenge r. The fold stops once at most
``MAX_DIRECT_SQUARINGS`` (2^7) squarings remain, and the verifier checks that
last claim by squaring itself. A proof for t = 2^k therefore carries
max(0, k - 7) midpoints, and verification costs two exponentiations by short
challenges per level plus at most 128 squarings.

All group arithmetic runs on four registers per computation (``_registers``):
eval's t sequential squarings, the transcript's midpoints, the fold step both
sides share, and Miller-Rabin during modulus derivation. Where libcrypto loads,
the registers are ``BIGNUM``s and every exponentiation is ``BN_mod_exp_mont``
on the modulus's ``_MontContext``, its ``BIGNUM`` and Montgomery constants.
That context is built once per odd modulus, kept in a bounded cache and shared
by every thread, which is safe because nothing writes it after construction;
the scratch space libcrypto does write, a ``BN_CTX``, belongs to one
computation. A fold's running values leave libcrypto only as the bytes each
challenge hashes and as the midpoints a proof publishes. Without libcrypto, or
for an even modulus, the registers hold ints and the builtin ``pow`` gives the
same results; ``powmod_engine`` names the engine in use.
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
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, Optional

from .serialization import DecodeError, Reader, encode_bigint, encode_bytes, encode_uint, \
    fields_from_doc

DEFAULT_MODULUS_SEED = b"delay-tower/genesis/v1"
DEFAULT_PRIME_LENGTH_BITS = 512

PROOF_FORMAT_VERSION = 2

# Proof format 2 stops the fold once at most this many squarings remain; the
# verifier does them itself and never more. A level costs the verifier two
# exponentiations by 128-bit challenges, about as much as 380 squarings at
# 2048 bits, so the 7 levels dropped cost more than the squarings that
# replace them. A later stop saves little more and makes verify grow faster
# with t.
MAX_DIRECT_SQUARINGS = 1 << 7

# Most squarings in one native call of eval's: bounds Ctrl-C's wait (54 ms at 2048 bits).
_LOOP_CHUNK = 1 << 16

_DOMAIN_INPUT = b"delay-tower/input/v1"
_DOMAIN_GROUP = b"delay-tower/group/v1"
_DOMAIN_CHALLENGE = b"delay-tower/challenge/v1"
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
    "BN_CTX_start": ([_P], None),
    "BN_CTX_get": ([_P], _P),
    "BN_CTX_end": ([_P], None),
    "BN_free": ([_P], None),
    "BN_bin2bn": ([ctypes.c_char_p, ctypes.c_int, _P], _P),
    "BN_bn2binpad": ([_P, ctypes.c_char_p, ctypes.c_int], ctypes.c_int),
    "BN_copy": ([_P, _P], _P),
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
        self.modulus_bytes = _magnitude(modulus)
        self.modulus = lib.BN_bin2bn(self.modulus_bytes, len(self.modulus_bytes), None)
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


# Registers of one computation: the claim X^(2^t) = Y being folded, the level's
# midpoint MU, and a temporary T. Eval's loop runs its value in Y.
_X, _Y, _MU, _T = range(4)


class _LibcryptoRegisters:
    """The four registers as ``BIGNUM``s mod one odd modulus, on its cached
    ``_MontContext`` and a ``BN_CTX`` of their own, freed on exit. Values
    leave libcrypto only through ``value`` and ``magnitude``."""

    def __init__(self, context: _MontContext):
        lib = context.lib
        self._lib, self._context = lib, context
        self._ctx = lib.BN_CTX_new()
        if not self._ctx:
            raise MemoryError("BN_CTX_new failed")
        lib.BN_CTX_start(self._ctx)
        # The fifth holds exponents; if one BN_CTX_get fails, so do all later ones.
        self._regs = [lib.BN_CTX_get(self._ctx) for _ in range(5)]
        if not self._regs[-1]:
            self.__exit__()
            raise MemoryError("BN_CTX_get failed")
        self._out = ctypes.create_string_buffer(len(context.modulus_bytes))

    def __enter__(self) -> "_LibcryptoRegisters":
        return self

    def __exit__(self, *exc) -> None:
        self._lib.BN_CTX_end(self._ctx)
        self._lib.BN_CTX_free(self._ctx)

    @property
    def modulus_bytes(self) -> bytes:
        return self._context.modulus_bytes

    def load(self, reg: int, value: int) -> None:
        self._set(self._regs[reg], value)

    def _set(self, bignum: int, value: int) -> None:
        data = _magnitude(value)
        if not self._lib.BN_bin2bn(data, len(data), bignum):
            raise MemoryError("BN_bin2bn failed")

    def magnitude(self, reg: int) -> bytes:
        if self._lib.BN_bn2binpad(self._regs[reg], self._out, len(self._out)) < 0:
            raise ValueError("register value is wider than the modulus")
        return self._out.raw.lstrip(b"\0")

    def value(self, reg: int) -> int:
        return int.from_bytes(self.magnitude(reg), "big")

    def copy(self, dst: int, src: int) -> None:
        if not self._lib.BN_copy(self._regs[dst], self._regs[src]):
            raise MemoryError("BN_copy failed")

    def power(self, dst: int, src: int, exponent: int) -> None:
        """dst = src^exponent for exponent >= 0; dst may be src."""
        lib, regs, context = self._lib, self._regs, self._context
        self._set(regs[4], exponent)
        if not lib.BN_mod_exp_mont(regs[dst], regs[src], regs[4], context.modulus,
                                   self._ctx, context.mont):
            raise ValueError("BN_mod_exp_mont failed")

    def mul(self, dst: int, a: int, b: int) -> None:
        """dst = a * b; dst may be a or b."""
        if not self._lib.BN_mod_mul(self._regs[dst], self._regs[a], self._regs[b],
                                    self._context.modulus, self._ctx):
            raise ValueError("BN_mod_mul failed")


class _BuiltinRegisters:
    """The same registers as Python ints, on the builtin ``pow``."""

    def __init__(self, modulus: int):
        self._modulus = modulus
        self.modulus_bytes = _magnitude(modulus)
        self._regs = [0] * 4

    def __enter__(self) -> "_BuiltinRegisters":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def load(self, reg: int, value: int) -> None:
        self._regs[reg] = value

    def magnitude(self, reg: int) -> bytes:
        return _magnitude(self._regs[reg])

    def value(self, reg: int) -> int:
        return self._regs[reg]

    def copy(self, dst: int, src: int) -> None:
        self._regs[dst] = self._regs[src]

    def power(self, dst: int, src: int, exponent: int) -> None:
        self._regs[dst] = pow(self._regs[src], exponent, self._modulus)

    def mul(self, dst: int, a: int, b: int) -> None:
        self._regs[dst] = self._regs[a] * self._regs[b] % self._modulus


def _registers(modulus: int):
    """Registers mod ``modulus`` > 1, for one computation in one thread: on
    libcrypto when it loaded and the modulus is odd, else on the builtin."""
    lib = _LIBCRYPTO
    if lib is None or modulus % 2 == 0:
        return _BuiltinRegisters(modulus)
    return _LibcryptoRegisters(_mont_context(lib, modulus))


def _powmod(base: int, exponent: int, modulus: int) -> int:
    """pow(base, exponent, modulus) for base, exponent >= 0 and modulus > 1.

    Runs on ``BN_mod_exp_mont`` with the modulus's cached ``_MontContext``
    when libcrypto loaded and the modulus is odd, else on the builtin.
    """
    with _registers(modulus) as regs:
        regs.load(_X, base)
        regs.power(_X, _X, exponent)
        return regs.value(_X)


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
    """Per-participant evaluation parameters over the shared group.

    ``input_digest`` binds the participant's public key and endpoint;
    ``iterations`` is the effective (power-of-two) sequential step count.
    """

    modulus: int
    input_digest: bytes
    iterations: int
    prime_length_bits: int = DEFAULT_PRIME_LENGTH_BITS

    def __post_init__(self):
        if self.modulus <= 3 or self.modulus % 2 == 0:
            raise ValueError("modulus must be an odd integer greater than 3")
        if _is_prime_modulus(self.modulus):
            raise ValueError("modulus must be composite")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


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
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for p in small_primes:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    n_bytes = n.to_bytes((n.bit_length() + 7) // 8, "big")
    for j in range(rounds):
        seed = hashlib.sha256(_DOMAIN_WITNESS + n_bytes + j.to_bytes(4, "big")).digest()
        a = 2 + int.from_bytes(seed, "big") % (n - 3)
        x = _powmod(a, d, n)
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
        candidate = int.from_bytes(stream, "big")
        candidate &= (1 << bits) - 1
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


def derive_input_digest(public_key: bytes, endpoint: bytes) -> bytes:
    """Domain-separated digest binding a participant key and endpoint."""
    return hashlib.sha256(
        _DOMAIN_INPUT + encode_bytes(public_key) + encode_bytes(endpoint)).digest()


def hash_to_group(digest: bytes, modulus: int) -> int:
    """Map a digest into [2, modulus - 1) by rejection sampling."""
    bits = modulus.bit_length()
    nbytes = (bits + 7) // 8
    counter = 0
    while True:
        stream = hashlib.shake_256(
            _DOMAIN_GROUP + digest + counter.to_bytes(4, "big")).digest(nbytes)
        candidate = int.from_bytes(stream, "big") & ((1 << bits) - 1)
        if 2 <= candidate < modulus - 1:
            return candidate
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
        input_digest=derive_input_digest(public_key, endpoint),
        iterations=effective_iterations(security.iterations),
        prime_length_bits=security.prime_length_bits,
    )


def _challenge(modulus: bytes, x: bytes, y: bytes, midpoint: bytes, level: int) -> int:
    """A level's 128-bit challenge; each element is given by its magnitude,
    so the hash covers ``encode_bigint`` of each."""
    material = (
        _DOMAIN_CHALLENGE
        + encode_bytes(modulus)
        + encode_bytes(x)
        + encode_bytes(y)
        + encode_bytes(midpoint)
        + encode_uint(level, 4)
    )
    return int.from_bytes(hashlib.sha256(material).digest()[:_CHALLENGE_BYTES], "big")


def _fold(regs, remaining: int, load_midpoint: Callable[[int, int], None]) -> int:
    """Fold the claim X^(2^remaining) = Y held in ``regs`` until at most
    MAX_DIRECT_SQUARINGS squarings remain, and return how many do.

    Each level halves ``remaining``, then ``load_midpoint(level, remaining)``
    puts X^(2^remaining) into MU (or what a proof claims it is), and the claim
    becomes (X^r * MU)^(2^remaining) = MU^r * Y for the level's challenge r.
    Odd step counts shed one squaring onto X first, so any t >= 1 is supported.
    """
    level = 0
    while remaining > MAX_DIRECT_SQUARINGS:
        if remaining % 2 == 1:
            regs.power(_X, _X, 2)
            remaining -= 1
        remaining //= 2
        level += 1
        load_midpoint(level, remaining)
        r = _challenge(regs.modulus_bytes, regs.magnitude(_X), regs.magnitude(_Y),
                       regs.magnitude(_MU), level)
        regs.power(_T, _MU, r)
        regs.mul(_Y, _T, _Y)
        regs.power(_X, _X, r)
        regs.mul(_X, _X, _MU)
    return remaining


def _square(regs, reg: int, steps: int) -> None:
    """reg = reg^(2^steps): ``steps`` squarings, at most ``_LOOP_CHUNK`` a call."""
    for done in range(0, steps, _LOOP_CHUNK):
        regs.power(reg, reg, 1 << min(_LOOP_CHUNK, steps - done))


def eval(pp: PublicParams, x: int) -> tuple[int, VdfProof]:
    """Evaluate x^(2^t) mod N by t sequential squarings and build its transcript.

    x must be a unit mod N; any other input raises InputOutOfRange, because
    its powers can reach 0, which no proof verifies.

    The loop keeps the first midpoint, x^(2^(t - t // 2)), as it passes; the
    others take about t/2 squarings after it. No call squares more than
    ``_LOOP_CHUNK`` times, which bounds how long an interrupt waits.
    """
    modulus = pp.modulus
    t = pp.iterations
    if not isinstance(x, int) or not 1 <= x < modulus or math.gcd(x, modulus) != 1:
        raise InputOutOfRange(f"input must be a unit in [1, modulus), got {x}")

    half = t - t // 2  # the transcript's first midpoint is x^(2^half)
    with _registers(modulus) as regs:
        regs.load(_Y, x)
        _square(regs, _Y, half)
        regs.copy(_MU, _Y)
        _square(regs, _Y, t - half)
        y = regs.value(_Y)
        regs.load(_X, x)
        checkpoints = []

        def load_midpoint(level: int, remaining: int) -> None:
            if level > 1:
                regs.copy(_MU, _X)
                _square(regs, _MU, remaining)
            checkpoints.append(regs.value(_MU))

        _fold(regs, t, load_midpoint)

    proof = VdfProof(
        output=y,
        checkpoints=tuple(checkpoints),
        embedded_prime_length_bits=pp.prime_length_bits,
    )
    return y, proof


def verify(modulus: int, iterations: int, x: int, y: int, proof: VdfProof) -> bool:
    """Check that proof shows x^(2^iterations) = y mod modulus.

    Malformed input, including an x or y that is not a unit mod modulus, or a
    midpoint count other than ``expected_checkpoint_count``, yields False before
    any exponentiation. At most ``MAX_DIRECT_SQUARINGS`` squarings follow the
    fold.
    """
    if not isinstance(x, int) or not isinstance(y, int):
        return False
    if not 1 <= x < modulus or not 1 <= y < modulus or math.gcd(x * y, modulus) != 1:
        return False
    if proof.output != y or iterations < 1:
        return False
    if len(proof.checkpoints) != expected_checkpoint_count(iterations):
        return False
    for midpoint in proof.checkpoints:
        if not isinstance(midpoint, int) or not 1 <= midpoint < modulus:
            return False

    with _registers(modulus) as regs:
        regs.load(_X, x)
        regs.load(_Y, y)
        remaining = _fold(regs, iterations,
                          lambda level, _: regs.load(_MU, proof.checkpoints[level - 1]))
        regs.power(_X, _X, 1 << remaining)
        return regs.magnitude(_X) == regs.magnitude(_Y)


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
    if not isinstance(proof.output, int) or not 1 <= proof.output < bound:
        return True
    for midpoint in proof.checkpoints:
        if not isinstance(midpoint, int) or not 1 <= midpoint < bound:
            return True
    return False


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
