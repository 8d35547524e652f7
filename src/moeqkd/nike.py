"""Non-interactive key exchange with three toy instantiations.

A scheme turns one public message per party into a shared n-bit string theta
without further interaction. Three instantiations span the security range the
experiments need:

  IdealNike   theta is drawn by a trusted sampler and is statistically
              independent of everything public.
  ToyDhNike   Diffie-Hellman modulo TOY_DH_PRIME = 65537; theta is hidden
              from a bounded observer but fully recoverable by brute-force
              discrete log (see break_toy_dh).
  BrokenNike  theta is printed inside the public parameters; used to show
              what fails when the public view determines the basis.

Conventions: gen returns (sk, pk) and sk carries the public parameters, so
shared-key derivation needs no extra context. Derivation orders the two
identities lexicographically, which makes both directions agree by
construction. Same identity on both sides yields None (no key). Keys are
bit tuples of length scheme.n.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cache

import numpy as np

from .hashing import uh_eval, uh_sample_seed
from .quantum import int_to_bits

IDENTITY_A = "A"
IDENTITY_B = "B"

TOY_DH_PRIME = 65537
TOY_DH_GENERATOR = 3
TOY_DH_SECRET_BITS = 17  # shared secrets lie in [1, 65536]

_MAX_BREAKABLE_PRIME = 1 << 20


@dataclass(frozen=True)
class ZSample:
    """One draw of the public view together with the hidden basis string."""

    p: tuple
    theta: tuple[int, ...]


def _hex_token(rng: np.random.Generator, nbytes: int = 16) -> str:
    return rng.integers(0, 256, size=nbytes).astype(np.uint8).tobytes().hex()


class IdealNike:
    """Trusted-sampler scheme: theta is uniform and carries no trace in public data.

    Each setup call creates a private master secret held only inside this
    object; the published parameters are an opaque handle. The key for a pair
    of public handles is a fixed pseudorandom function of the master secret,
    so derivation is deterministic and identical from both directions while
    the public tuple reveals nothing about theta. Only the MAX_MASTERS (256)
    most recent setups keep their master; an older handle is unknown.
    """

    name = "ideal"
    MAX_MASTERS = 256

    def __init__(self, n: int):
        if not 1 <= n <= 20:
            raise ValueError("key length out of range")
        self.n = n
        self._masters: dict[str, bytes] = {}

    def setup(self, rng: np.random.Generator) -> tuple:
        # one draw of 48 bytes is the 16-byte handle draw then the 32-byte master draw
        token = rng.integers(0, 256, size=48).astype(np.uint8).tobytes()
        handle = token[:16].hex()
        self._masters[handle] = token[16:]
        if len(self._masters) > self.MAX_MASTERS:
            del self._masters[next(iter(self._masters))]
        return ("ideal", self.n, handle)

    def gen(self, pp: tuple, identity: str, rng: np.random.Generator) -> tuple[tuple, str]:
        if pp[2] not in self._masters:
            raise ValueError("unknown public parameters")
        pk = _hex_token(rng)
        sk = (pp, pk)
        return sk, pk

    def sdk(self, their_id: str, their_pk: str, my_id: str, my_sk: tuple) -> tuple[int, ...] | None:
        if their_id == my_id:
            return None
        pp, my_pk = my_sk
        master = self._masters.get(pp[2])
        if master is None:
            raise ValueError("unknown public parameters")
        lo, hi = sorted((their_pk, my_pk))
        digest = hashlib.sha256(master + lo.encode() + hi.encode()).digest()
        value = int.from_bytes(digest[:8], "big") >> (64 - self.n)
        return int_to_bits(value, self.n)


class ToyDhNike:
    """Diffie-Hellman over GF(TOY_DH_PRIME) with generator TOY_DH_GENERATOR;
    the shared group element is expanded to n bits by a universal hash whose
    seed is published in pp."""

    name = "toydh"

    def __init__(self, n: int):
        if not 1 <= n <= TOY_DH_SECRET_BITS:
            raise ValueError("key length exceeds the secret width")
        self.n = n

    def setup(self, rng: np.random.Generator) -> tuple:
        a, b = uh_sample_seed(TOY_DH_SECRET_BITS, rng)
        return ("toydh", self.n, TOY_DH_PRIME, TOY_DH_GENERATOR, a, b)

    def gen(self, pp: tuple, identity: str, rng: np.random.Generator) -> tuple[tuple, int]:
        x = int(rng.integers(1, TOY_DH_PRIME - 1))
        pk = pow(TOY_DH_GENERATOR, x, TOY_DH_PRIME)
        return (pp, x), pk

    def sdk(self, their_id: str, their_pk: int, my_id: str, my_sk: tuple) -> tuple[int, ...] | None:
        if their_id == my_id:
            return None
        pp, x = my_sk
        _, n, prime, _, a, b = pp
        secret = pow(their_pk, x, prime)
        value = uh_eval(TOY_DH_SECRET_BITS, n, (a, b), secret)
        return int_to_bits(value, n)


class BrokenNike:
    """Deliberately insecure: theta is sampled at setup and published in pp."""

    name = "broken"

    def __init__(self, n: int):
        if not 1 <= n <= 20:
            raise ValueError("key length out of range")
        self.n = n

    def setup(self, rng: np.random.Generator) -> tuple:
        theta = tuple(int(b) for b in rng.integers(0, 2, size=self.n))
        return ("broken", self.n, theta)

    def gen(self, pp: tuple, identity: str, rng: np.random.Generator) -> tuple[tuple, str]:
        pk = _hex_token(rng, 4)
        return (pp, pk), pk

    def sdk(self, their_id: str, their_pk: str, my_id: str, my_sk: tuple) -> tuple[int, ...] | None:
        if their_id == my_id:
            return None
        pp, _ = my_sk
        return tuple(pp[2])


def sample_z(scheme, rng: np.random.Generator) -> ZSample:
    """Honest sampling of the public view and the basis string; secrets discarded."""
    pp = scheme.setup(rng)
    sk_a, pk_a = scheme.gen(pp, IDENTITY_A, rng)
    _, pk_b = scheme.gen(pp, IDENTITY_B, rng)
    theta = scheme.sdk(IDENTITY_B, pk_b, IDENTITY_A, sk_a)
    if theta is None:
        raise ValueError("shared-key derivation failed")
    return ZSample(p=(pp, pk_a, pk_b), theta=theta)


@cache
def _dlog_table(prime: int, generator: int) -> dict[int, int]:
    table = {}
    acc = 1
    for e in range(1, prime):
        acc = (acc * generator) % prime
        if acc not in table:
            table[acc] = e
        if acc == 1:
            break
    return table


def discrete_log(prime: int, generator: int, value: int) -> int:
    """Smallest positive exponent e with generator**e == value mod prime."""
    if prime > _MAX_BREAKABLE_PRIME:
        raise ValueError("prime too large for brute force")
    e = _dlog_table(prime, generator).get(value % prime)
    if e is None:
        raise ValueError("no discrete log found")
    return e


def break_toy_dh(p: tuple) -> tuple[int, ...]:
    """Recover theta from a ToyDhNike public tuple by brute-force discrete log.

    Unbounded-adversary stand-in: everything here reads only public values.
    """
    pp, pk_a, pk_b = p
    if pp[0] != "toydh":
        raise ValueError("not a ToyDhNike public tuple")
    _, n, prime, generator, a, b = pp
    x = discrete_log(prime, generator, pk_a)
    secret = pow(pk_b, x, prime)
    return int_to_bits(uh_eval(TOY_DH_SECRET_BITS, n, (a, b), secret), n)


def theta_of_public(p: tuple) -> tuple[int, ...]:
    """Read theta straight from the public tuple; only BrokenNike permits this."""
    pp = p[0]
    if pp[0] != "broken":
        raise ValueError("public tuple does not expose theta")
    return tuple(pp[2])


class NoExactRoute(ValueError):
    """An exact route refuses this configuration; the message says why."""


def enumerate_z(scheme, rng: np.random.Generator) -> list[tuple[ZSample, float]]:
    """Exact distribution of (p, theta) for schemes where it is small enough.

    IdealNike: theta is uniform and independent of p, so a single
    representative public tuple paired with every theta is the exact law.
    BrokenNike: p determines theta, so each theta gets its own public tuple.
    Other schemes have no tractable enumeration and raise NoExactRoute.
    """
    n = scheme.n
    if n > 4:
        raise NoExactRoute("enumeration is limited to n <= 4")
    weight = 1.0 / 2**n
    thetas = [int_to_bits(t, n) for t in range(2**n)]
    if isinstance(scheme, IdealNike):
        p = sample_z(scheme, rng).p
        return [(ZSample(p=p, theta=theta), weight) for theta in thetas]
    if isinstance(scheme, BrokenNike):
        # theta sits in the public parameters; the public keys are placeholders
        return [(ZSample(p=(("broken", n, theta), "pka", "pkb"), theta=theta), weight)
                for theta in thetas]
    raise NoExactRoute(f"scheme {scheme.name!r} is not enumerable")
