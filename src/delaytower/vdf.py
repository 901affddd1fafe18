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

Every exponentiation runs on OpenSSL's ``BN_mod_exp`` through ``_powmod``,
the delay included: eval's t sequential squarings, one call per poll interval,
the transcript's midpoints, verify's fold, and Miller-Rabin during modulus
derivation. Where libcrypto cannot be loaded, ``_powmod`` falls back to the
builtin ``pow`` with the same results; ``powmod_engine`` names the one in use.
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

_DOMAIN_INPUT = b"delay-tower/input/v1"
_DOMAIN_GROUP = b"delay-tower/group/v1"
_DOMAIN_CHALLENGE = b"delay-tower/challenge/v1"
_DOMAIN_PRIME = b"delay-tower/prime/v1"
_DOMAIN_WITNESS = b"delay-tower/witness/v1"

_CHALLENGE_BYTES = 16

_MIN_MODULUS_BITS = 64
_MIN_PRIME_LENGTH_BITS = 16


# The libcrypto bignum calls _powmod makes: name -> (argtypes, restype).
# BN_CTX and BIGNUM pointers are opaque, so each is a c_void_p.
_BN_SIGNATURES = {
    "BN_CTX_new": ([], ctypes.c_void_p),
    "BN_CTX_free": ([ctypes.c_void_p], None),
    "BN_new": ([], ctypes.c_void_p),
    "BN_free": ([ctypes.c_void_p], None),
    "BN_bin2bn": ([ctypes.c_char_p, ctypes.c_int, ctypes.c_void_p], ctypes.c_void_p),
    "BN_bn2bin": ([ctypes.c_void_p, ctypes.c_char_p], ctypes.c_int),
    "BN_num_bits": ([ctypes.c_void_p], ctypes.c_int),
    "BN_mod_exp": ([ctypes.c_void_p] * 5, ctypes.c_int),
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
    """Name of the library that runs ``_powmod``: a libcrypto soname or "builtin pow"."""
    return _LIBCRYPTO._name if _LIBCRYPTO is not None else "builtin pow"


def _powmod(base: int, exponent: int, modulus: int) -> int:
    """pow(base, exponent, modulus) for base, exponent >= 0 and modulus > 1.

    Runs on OpenSSL's ``BN_mod_exp`` when libcrypto loaded, else on the
    builtin. Every call allocates its own context and bignums, because ctypes
    releases the GIL around each foreign call and threads may call at once.
    """
    lib = _LIBCRYPTO
    if lib is None:
        return pow(base, exponent, modulus)
    ctx = lib.BN_CTX_new()
    if not ctx:
        raise MemoryError("BN_CTX_new failed")
    handles = []
    try:
        for value in (base, exponent, modulus):
            data = value.to_bytes((value.bit_length() + 7) // 8, "big")
            handles.append(lib.BN_bin2bn(data, len(data), None))
        handles.append(lib.BN_new())
        if not all(handles):
            raise MemoryError("bignum allocation failed")
        a, p, m, r = handles
        if not lib.BN_mod_exp(r, a, p, m, ctx):
            raise ValueError("BN_mod_exp failed")
        out = ctypes.create_string_buffer((lib.BN_num_bits(r) + 7) // 8)
        lib.BN_bn2bin(r, out)
        return int.from_bytes(out.raw, "big")
    finally:
        for handle in handles:
            lib.BN_free(handle)
        lib.BN_CTX_free(ctx)


class InvalidSecurityParams(ValueError):
    """Security parameter outside the supported bounds."""


class InputOutOfRange(ValueError):
    """Evaluation input is not a usable group element."""


@dataclass(frozen=True)
class EvalCheckpoint:
    """Partial evaluation state: squarings completed and the running value."""

    iterations_done: int
    value: int


class EvalCancelled(Exception):
    """Evaluation stopped cooperatively; carries the resumable checkpoint."""

    def __init__(self, checkpoint: EvalCheckpoint):
        super().__init__(f"evaluation cancelled after {checkpoint.iterations_done} squarings")
        self.checkpoint = checkpoint


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
    modulus_seed: bytes = DEFAULT_MODULUS_SEED,
    modulus: Optional[int] = None,
) -> PublicParams:
    """Derive a participant's public parameters.

    The modulus comes from the genesis seed (or is passed in directly when a
    network has already published one). The requested iteration count is
    rounded up to the next power of two and recorded as the effective value.
    """
    if not public_key:
        raise ValueError("public_key must be non-empty")
    if modulus is None:
        modulus = generate_modulus(security.modulus_bits, modulus_seed)
    return PublicParams(
        modulus=modulus,
        input_digest=derive_input_digest(public_key, endpoint),
        iterations=effective_iterations(security.iterations),
        prime_length_bits=security.prime_length_bits,
    )


def _challenge(modulus: int, x: int, y: int, midpoint: int, level: int) -> int:
    material = (
        _DOMAIN_CHALLENGE
        + encode_bigint(modulus)
        + encode_bigint(x)
        + encode_bigint(y)
        + encode_bigint(midpoint)
        + encode_uint(level, 4)
    )
    return int.from_bytes(hashlib.sha256(material).digest()[:_CHALLENGE_BYTES], "big")


def _build_transcript(modulus: int, x: int, y: int, t: int,
                      midpoint: Optional[int]) -> tuple[int, ...]:
    """Fold the claim x^(2^t) = y until at most MAX_DIRECT_SQUARINGS remain,
    collecting midpoints; ``midpoint`` is the first, x^(2^(t - t // 2)), or None.

    Odd step counts shed one squaring onto the instance first, so any t >= 1
    is supported.
    """
    checkpoints = []
    xi, yi, remaining = x, y, t
    while remaining > MAX_DIRECT_SQUARINGS:
        if remaining % 2 == 1:
            xi = xi * xi % modulus
            remaining -= 1
        remaining //= 2
        if checkpoints or midpoint is None:
            midpoint = _powmod(xi, 1 << remaining, modulus)
        checkpoints.append(midpoint)
        r = _challenge(modulus, xi, yi, midpoint, len(checkpoints))
        xi = _powmod(xi, r, modulus) * midpoint % modulus
        yi = _powmod(midpoint, r, modulus) * yi % modulus
    return tuple(checkpoints)


def eval(
    pp: PublicParams,
    x: int,
    *,
    should_cancel: Optional[Callable[[], bool]] = None,
    on_progress: Optional[Callable[[int, int], None]] = None,
    check_every: int = 256,
    resume: Optional[EvalCheckpoint] = None,
) -> tuple[int, VdfProof]:
    """Evaluate x^(2^t) mod N by t sequential squarings and build its transcript.

    x must be a unit mod N; any other input raises InputOutOfRange, because
    its powers can reach 0, which no proof verifies.

    The loop makes one ``_powmod`` call per poll interval and stops at the first
    midpoint, x^(2^(t - t // 2)); the others take about t/2 squarings after it.

    ``should_cancel`` is polled every ``check_every`` (>= 1) squarings, and each
    poll costs a ``_powmod`` call (about 40 us at 2048 bits); when it returns
    true an EvalCancelled carrying a resumable checkpoint is raised, and a later
    call can continue from it via ``resume``. Output and proof are deterministic.
    """
    if check_every < 1:
        raise ValueError(f"check_every must be >= 1, got {check_every}")
    modulus = pp.modulus
    t = pp.iterations
    if not isinstance(x, int) or not 1 <= x < modulus or math.gcd(x, modulus) != 1:
        raise InputOutOfRange(f"input must be a unit in [1, modulus), got {x}")

    done, y = 0, x
    if resume is not None:
        if not 0 <= resume.iterations_done <= t:
            raise ValueError("resume checkpoint does not match these parameters")
        if not 1 <= resume.value < modulus:
            raise ValueError("resume checkpoint value out of range")
        done, y = resume.iterations_done, resume.value

    half = t - t // 2  # the transcript's first midpoint is x^(2^half)
    midpoint = y if done == half else None
    while done < t:
        stop = min(t, (done // check_every + 1) * check_every)
        if done < half < stop:  # keep the first midpoint
            stop = half
        done, y = stop, _powmod(y, 1 << (stop - done), modulus)
        if done == half:
            midpoint = y
        if done % check_every == 0 or done == t:
            if on_progress is not None:
                on_progress(done, t)
            if should_cancel is not None and done < t and should_cancel():
                raise EvalCancelled(EvalCheckpoint(done, y))

    proof = VdfProof(
        output=y,
        checkpoints=_build_transcript(modulus, x, y, t, midpoint),
        embedded_prime_length_bits=pp.prime_length_bits,
    )
    return y, proof


def verify(modulus: int, iterations: int, x: int, y: int, proof: VdfProof) -> bool:
    """Check that proof shows x^(2^iterations) = y mod modulus.

    Malformed input, including an x or y that is not a unit mod modulus, yields
    False. Whatever the proof, at most ``MAX_DIRECT_SQUARINGS`` squarings follow
    the fold.
    """
    if not isinstance(x, int) or not isinstance(y, int):
        return False
    if not 1 <= x < modulus or not 1 <= y < modulus or math.gcd(x * y, modulus) != 1:
        return False
    if proof.output != y:
        return False
    for midpoint in proof.checkpoints:
        if not isinstance(midpoint, int) or not 1 <= midpoint < modulus:
            return False

    xi, yi, remaining = x, y, iterations
    for level, midpoint in enumerate(proof.checkpoints, 1):
        if remaining <= MAX_DIRECT_SQUARINGS:
            return False
        if remaining % 2 == 1:
            xi = xi * xi % modulus
            remaining -= 1
        r = _challenge(modulus, xi, yi, midpoint, level)
        xi = _powmod(xi, r, modulus) * midpoint % modulus
        yi = _powmod(midpoint, r, modulus) * yi % modulus
        remaining //= 2
    if not 1 <= remaining <= MAX_DIRECT_SQUARINGS:
        return False
    return yi == _powmod(xi, 1 << remaining, modulus)


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
