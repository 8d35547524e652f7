"""Affine universal hashing over GF(2^n), randomness extraction, and a keyed
truncated-digest hash.

The universal family is h_{a,b}(x) = first ell bits (most significant, in the
polynomial-basis encoding) of a*x + b, with arithmetic in GF(2^n). Field
elements are ints; bit i of the int is the coefficient of x^i.

Every product reads one doubling kernel, ``gf_powers(n, a, count)``: the terms
a*x^i, each the previous one shifted and reduced. ``gf_mul`` (and ``uh_eval``)
xors them over the set bits of the other factor; ``gf_mul_table(n)``, built
lazily per n <= MAX_DISTANCE_BITS and read-only, spans every a*z from them,
as a*z is linear in a and z over GF(2). The exact collision counts, extractor
distance and protocol distances read the table; above MAX_DISTANCE_BITS the
collision count spans the one column it needs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import log2

import numpy as np

# Reduction polynomials, one per supported field degree: the lowest-integer
# irreducible polynomial of that degree over GF(2) (includes the x^n term).
# Generated offline, re-verified irreducible by the test suite. Degree 8 is the
# familiar 0x11B and degree 128 is x^128+x^7+x^2+x+1.
REDUCTION_POLY: dict[int, int] = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x400001B,
    27: 0x8000027,
    28: 0x10000003,
    29: 0x20000005,
    30: 0x40000003,
    31: 0x80000009,
    32: 0x10000008D,
    48: 0x100000000002D,
    64: 0x1000000000000001B,
    128: 0x100000000000000000000000000000087,
}

# Exhaustive-enumeration guards.
MAX_COLLISION_BITS = 16
MAX_DISTANCE_BITS = 8


def _require_field(n: int) -> int:
    if n not in REDUCTION_POLY:
        raise ValueError(f"no reduction polynomial recorded for GF(2^{n})")
    return REDUCTION_POLY[n]


def _require_element(n: int, v: int, name: str) -> None:
    if not 0 <= v < (1 << n):
        raise ValueError(f"{name}={v} is not a GF(2^{n}) element")


def gf_powers(n: int, a: int, count: int) -> list[int]:
    """[a*x^i for i < count] in GF(2^n), each term the previous one shifted
    up a bit and reduced by the recorded polynomial."""
    poly = _require_field(n)
    _require_element(n, a, "a")
    out = []
    for _ in range(count):
        out.append(a)
        a = (a << 1) ^ (poly if a >> (n - 1) else 0)
    return out


def gf_mul(n: int, a: int, b: int) -> int:
    """Product in GF(2^n): the xor of a*x^i over the set bits i of b."""
    terms = gf_powers(n, a, n)
    _require_element(n, b, "b")
    out = 0
    for i, term in enumerate(terms):
        if b >> i & 1:
            out ^= term
    return out


def uh_eval(n: int, ell: int, seed: tuple[int, int], x: int) -> int:
    """h_{a,b}(x): the ell most significant bits of a*x + b in GF(2^n)."""
    if not 1 <= ell <= n:
        raise ValueError(f"output length {ell} not in [1, {n}]")
    a, b = seed
    _require_element(n, b, "b")
    _require_element(n, x, "x")
    return (gf_mul(n, a, x) ^ b) >> (n - ell)


def uh_sample_seed(n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Uniform seed (a, b) for the GF(2^n) family, one draw per component;
    fields are limited to n <= 62 bits, the widest one int64 draw covers."""
    _require_field(n)
    if n > 62:
        raise ValueError(f"seed sampling limited to n <= 62 bits, got {n}")
    return int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))


def _xor_span(basis: np.ndarray) -> np.ndarray:
    """out[a] = xor of basis[i] over the set bits i of a, by doubling."""
    out = np.zeros((1 << len(basis),) + basis.shape[1:], dtype=basis.dtype)
    for i, row in enumerate(basis):
        lo = 1 << i
        out[lo : 2 * lo] = out[:lo] ^ row
    return out


def _products_with_all_a(n: int, z: int) -> np.ndarray:
    """Column z of the product table: a*z over all a in GF(2^n)."""
    return _xor_span(np.array(gf_powers(n, z, n), dtype=np.uint16))


@cache
def _field_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The product table and its collision counts, both read-only.

    counts[z, ell] is the number of a whose product a*z has its top ell bits
    all zero; column 0 is unused.
    """
    # row a = 2^i of the table is column 2^i, by symmetry of the product
    table = _xor_span(np.stack([_products_with_all_a(n, 1 << i) for i in range(n)]))
    counts = np.zeros((1 << n, n + 1), dtype=np.int64)
    for ell in range(1, n + 1):
        counts[:, ell] = (table >> (n - ell) == 0).sum(axis=0)
    table.flags.writeable = False
    counts.flags.writeable = False
    return table, counts


def gf_mul_table(n: int) -> np.ndarray:
    """T[a, z] = a*z in GF(2^n) for all a and z, as a read-only uint16 array.

    Built on first use for each n <= MAX_DISTANCE_BITS and shared afterwards.
    """
    _require_field(n)
    if n > MAX_DISTANCE_BITS:
        raise ValueError(f"product table capped at n <= {MAX_DISTANCE_BITS}")
    return _field_tables(n)[0]


def uh_collision_probability(n: int, ell: int, x: int, y: int) -> Fraction:
    """Exact Pr over seeds of h(x) = h(y), as a fraction of the seed count.

    h_{a,b}(x) = h_{a,b}(y) iff the top ell bits of a*(x^y) vanish; the offset
    b cancels from the event, so counting over a alone gives the exact
    probability over the full (a, b) seed space. (A brute-force cross-check
    over both components at small n lives in the tests.)
    """
    if not 1 <= ell <= n:
        raise ValueError(f"output length {ell} not in [1, {n}]")
    if n > MAX_COLLISION_BITS:
        raise ValueError(f"exhaustive count capped at n <= {MAX_COLLISION_BITS}")
    _require_element(n, x, "x")
    _require_element(n, y, "y")
    if x == y:
        raise ValueError("collision probability is defined for distinct inputs")
    if n <= MAX_DISTANCE_BITS:
        count = int(_field_tables(n)[1][x ^ y, ell])
    else:
        count = int((_products_with_all_a(n, x ^ y) >> (n - ell) == 0).sum())
    return Fraction(count, 1 << n)


@dataclass(frozen=True)
class ExtractorSpec:
    """Seeded extractor parameters: n-bit source, ell-bit output, claimed
    min-entropy k, and target distance eps, with k >= ell + 2*log2(1/eps)."""

    source_bits: int
    output_bits: int
    min_entropy: float
    error: float

    def __post_init__(self) -> None:
        _require_field(self.source_bits)
        if not 1 <= self.output_bits <= self.source_bits:
            raise ValueError("output length must lie in [1, source_bits]")
        if not 0.0 < self.error < 1.0:
            raise ValueError("error must lie in (0, 1)")
        need = self.output_bits + 2.0 * log2(1.0 / self.error)
        if self.min_entropy < need - 1e-9:
            raise ValueError(
                f"claimed min-entropy {self.min_entropy} below {need} required "
                f"for {self.output_bits} bits at distance {self.error}"
            )


def extractor_distance(
    spec: ExtractorSpec,
    probs: np.ndarray,
    states: list[np.ndarray],
) -> float:
    """Exact trace distance between (Ext(S, X), S, E) and (uniform, S, E).

    The source is a cq ensemble: probs[i] is the weight of label i (the
    integer i itself is the source string) and states[i] the side-information
    operator, all sharing one small dimension. Since the XOR offset b only
    relabels outputs, the per-seed distance is independent of b and the
    average runs over a alone; this is exact, not an approximation.
    """
    n, ell = spec.source_bits, spec.output_bits
    if n > MAX_DISTANCE_BITS:
        raise ValueError(f"exact extractor distance capped at n <= {MAX_DISTANCE_BITS}")
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (1 << n,):
        raise ValueError(f"need a weight for each of the 2^{n} source strings")
    if abs(probs.sum() - 1.0) > 1e-10 or probs.min() < -1e-15:
        raise ValueError("probs must form a distribution")
    if len(states) != 1 << n:
        raise ValueError(f"need a side-information state for each of the 2^{n} source strings")
    states = [np.asarray(st, dtype=complex) for st in states]
    shape = states[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or any(st.shape != shape for st in states):
        raise ValueError("side-information states must be square and of one shape")
    weighted = np.stack([probs[x] * states[x] for x in range(1 << n)])
    uniform_part = weighted.sum(axis=0) / (1 << ell)
    support = np.flatnonzero(probs != 0.0)  # x order, zero weights skipped
    outputs = gf_mul_table(n)[:, support] >> (n - ell)
    terms = weighted[support]
    total = 0.0
    for a in range(1 << n):
        # ufunc.at adds repeated indices one at a time in x order, so each
        # block sums its terms in the order a loop over x would
        blocks = np.zeros((1 << ell,) + shape, dtype=complex)
        np.add.at(blocks, outputs[a], terms)
        norms = np.abs(np.linalg.eigvalsh(blocks - uniform_part)).sum(axis=-1)
        total += 0.5 * sum(norms.tolist())
    return total / (1 << n)


def cr_hash(key: bytes, x: int, in_bits: int, out_bits: int) -> int:
    """Truncated standard digest of key || x, as an out_bits-wide int."""
    if not 0 <= x < (1 << in_bits):
        raise ValueError(f"x={x} does not fit in {in_bits} bits")
    if not 1 <= out_bits <= 128:
        raise ValueError("digest width out of range")
    payload = key + in_bits.to_bytes(4, "big") + x.to_bytes((in_bits + 7) // 8, "big")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:16], "big") >> (128 - out_bits)


@dataclass(frozen=True)
class CrHash:
    """A sampled member of the truncated-digest hash family."""

    key: bytes
    input_bits: int
    output_bits: int

    def digest(self, x: int) -> int:
        return cr_hash(self.key, x, self.input_bits, self.output_bits)


class CrHashFamily:
    """Keyed compressing hash family backed by a standard digest; each member
    is keyed by 16 random bytes. Collision resistance is an interface
    assumption here, not a proven property of the toy key sizes."""

    def __init__(self, input_bits: int, output_bits: int):
        self.input_bits = int(input_bits)
        self.output_bits = int(output_bits)

    def sample(self, rng: np.random.Generator) -> CrHash:
        key = rng.integers(0, 256, 16).astype(np.uint8).tobytes()
        return CrHash(key, self.input_bits, self.output_bits)

