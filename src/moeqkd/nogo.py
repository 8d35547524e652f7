"""Toy key-agreement protocols whose final key is a deterministic function of
the parties' classical coins, and the two-phase interception attack that
recovers that key.

The protocol family here is deliberately breakable: each party samples r
uniform bits, publishes a prefix, and ships an unentangled placeholder
register whose measurement outcomes are fixed by the coins. The attack's
online phase probes the transit registers with freshly sampled counterpart
coins (nondestructive, since every outcome is deterministic); the offline
phase intersects the observations into candidate sets and guesses. The
guaranteed floor on the guess rate is ``1/3 - 2*(8/9)**r``; the concrete
families implemented here are all crackable outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hashing import REDUCTION_POLY, gf_mul

MAX_TABLE_BITS = 12
MAX_ENUM_BITS = 20
REJECTION_CAP = 10**6
T_FACTOR = 2  # online probes per randomness bit


def nogo_bound(r: int) -> float:
    """Worst-case guaranteed guess rate of the offline phase."""
    return max(0.0, 1.0 / 3.0 - 2.0 * (8.0 / 9.0) ** r)


def _rand_bits(rng: np.random.Generator, bits: int) -> int:
    if bits <= 0:
        return 0
    out = 0
    for lo in range(0, bits, 32):
        width = min(32, bits - lo)
        out |= int(rng.integers(0, 1 << width)) << lo
    return out


def _parities(rows: tuple[int, ...], x: int) -> int:
    """Bit o of the result is the parity of ``rows[o] & x``."""
    out = 0
    for o, row in enumerate(rows):
        out |= ((row & x).bit_count() & 1) << o
    return out


def _batch_parities(rows: tuple[int, ...], xs: np.ndarray) -> np.ndarray:
    """``_parities`` over an array of inputs."""
    xs = xs.astype(np.uint64)
    out = np.zeros(xs.shape, dtype=np.int64)
    for o, row in enumerate(rows):
        out |= (np.bitwise_count(xs & np.uint64(row)) & 1).astype(np.int64) << o
    return out


def _columns_to_rows(r: int, m: int, cols) -> tuple[int, ...]:
    """Transpose r m-bit columns into m r-bit row masks."""
    cols = tuple(int(c) for c in cols)
    if len(cols) != r:
        raise ValueError("affine kinds need one column per input bit")
    if any(not 0 <= c < 1 << m for c in cols):
        raise ValueError("affine columns must fit in m bits")
    return tuple(sum(((c >> o) & 1) << j for j, c in enumerate(cols)) for o in range(m))


@dataclass(frozen=True, eq=False)
class KeyFunction:
    """m-bit key from two r-bit inputs.

    Affine kinds are GF(2) row masks, m per side. Bit j of ``rows_a[o]`` is
    bit o of the m-bit toggle that bit j of the left input applies, so the
    rows are the transpose of those per-input-bit columns, and output bit o
    is parity(rows_a[o] & ra) xor parity(rows_b[o] & rb) xor bit o of
    ``const``. The same rows are the left-hand sides of the attack's linear
    system. The table kind stores the full lookup array instead.
    """

    kind: str
    r: int
    m: int
    rows_a: tuple[int, ...] | None = None
    rows_b: tuple[int, ...] | None = None
    const: int = 0
    table: np.ndarray | None = None
    a_seed: int | None = None
    b_seed: int | None = None

    def __post_init__(self):
        if not 1 <= self.m <= self.r:
            raise ValueError("need 1 <= m <= r")
        if self.table is None:
            for rows in (self.rows_a, self.rows_b):
                if rows is None or len(rows) != self.m:
                    raise ValueError("affine kinds need one row mask per output bit")
                if any(not 0 <= row < 1 << self.r for row in rows):
                    raise ValueError("row masks must fit in r bits")
            if not 0 <= self.const < 1 << self.m:
                raise ValueError("const must fit in m bits")
        elif self.table.shape != (2**self.r, 2**self.r):
            raise ValueError("table shape must be 2^r by 2^r")

    @property
    def is_affine(self) -> bool:
        return self.table is None

    def value(self, ra: int, rb: int) -> int:
        if self.table is not None:
            return int(self.table[ra, rb])
        return self.const ^ _parities(self.rows_a, ra) ^ _parities(self.rows_b, rb)

    def batch_left(self, cands: np.ndarray, rb: int) -> np.ndarray:
        """f(c, rb) for an array of left inputs."""
        if self.table is not None:
            return self.table[cands, rb].astype(np.int64)
        return _batch_parities(self.rows_a, cands) ^ (self.const ^ _parities(self.rows_b, rb))

    def batch_right(self, ra: int, cands: np.ndarray) -> np.ndarray:
        """f(ra, c) for an array of right inputs."""
        if self.table is not None:
            return self.table[ra, cands].astype(np.int64)
        return _batch_parities(self.rows_b, cands) ^ (self.const ^ _parities(self.rows_a, ra))


def _affine(kind: str, r: int, m: int, cols_a, cols_b, const: int = 0, **seeds) -> KeyFunction:
    return KeyFunction(kind, r, m, _columns_to_rows(r, m, cols_a),
                       _columns_to_rows(r, m, cols_b), const, **seeds)


def xor_trunc_key_function(r: int, m: int) -> KeyFunction:
    """Top m bits of the XOR of the two inputs."""
    cols = tuple(1 << (j - (r - m)) if j >= r - m else 0 for j in range(r))
    return _affine("xor_trunc", r, m, cols, cols)


def affine_hash_key_function(r: int, m: int, rng: np.random.Generator) -> KeyFunction:
    """Top m bits of a seeded universal hash of the concatenated inputs."""
    if 2 * r not in REDUCTION_POLY:
        raise ValueError("no field table for width %d" % (2 * r))
    a = 0
    while a == 0:
        a = _rand_bits(rng, 2 * r)
    b = _rand_bits(rng, 2 * r)
    shift = 2 * r - m
    cols_a = tuple(gf_mul(2 * r, a, 1 << (r + j)) >> shift for j in range(r))
    cols_b = tuple(gf_mul(2 * r, a, 1 << j) >> shift for j in range(r))
    return _affine("affine_hash", r, m, cols_a, cols_b, b >> shift, a_seed=a, b_seed=b)


def affine_key_function(r: int, m: int, cols_a, cols_b, const: int = 0) -> KeyFunction:
    """Arbitrary GF(2)-affine key map given explicit bit contributions."""
    return _affine("affine", r, m, cols_a, cols_b, const)


def table_key_function(r: int, m: int, rng: np.random.Generator) -> KeyFunction:
    """Uniformly random lookup table; materialized, so r stays small."""
    if r > MAX_TABLE_BITS:
        raise ValueError("table kind limited to r <= %d" % MAX_TABLE_BITS)
    if m > 8:
        raise ValueError("table entries are single bytes")
    table = rng.integers(0, 2**m, size=(2**r, 2**r), dtype=np.uint8)
    return KeyFunction("table", r, m, table=table)


@dataclass(frozen=True)
class QuantumPayload:
    """Unentangled stand-in register; measurements read it without writing."""

    party: str
    hidden: int
    form: tuple = ("product", "unentangled")

    def serialize(self) -> tuple:
        return (self.party, self.hidden, self.form)


@dataclass(frozen=True)
class ClassicalKeyProtocol:
    """Both keys equal key_function(R_A, R_B); S is a published prefix."""

    key_function: KeyFunction
    s_bits: int = 0
    t_samples: int | None = None

    def __post_init__(self):
        if not 0 <= self.s_bits <= self.r:
            raise ValueError("prefix length out of range")

    @property
    def r(self) -> int:
        return self.key_function.r

    @property
    def m(self) -> int:
        return self.key_function.m

    @property
    def probes(self) -> int:
        return self.t_samples if self.t_samples is not None else T_FACTOR * self.r

    def sample_randomness(self, rng: np.random.Generator) -> int:
        return _rand_bits(rng, self.r)

    def public_part(self, rand: int) -> int:
        return rand >> (self.r - self.s_bits) if self.s_bits else 0

    def prepare_payload(self, party: str, rand: int) -> QuantumPayload:
        return QuantumPayload(party, rand)

    def measure_payload(self, payload: QuantumPayload, local_rand: int) -> tuple[int, QuantumPayload]:
        """Projective readout; deterministic, so the register is returned as-is."""
        if payload.party == "A":
            outcome = self.key_function.value(payload.hidden, local_rand)
        else:
            outcome = self.key_function.value(local_rand, payload.hidden)
        return outcome, payload


def run_toy_protocol(proto: ClassicalKeyProtocol, rng: np.random.Generator):
    """Honest execution: returns (R_A, R_B, S_A, S_B, key)."""
    r_a = proto.sample_randomness(rng)
    r_b = proto.sample_randomness(rng)
    payload_a = proto.prepare_payload("A", r_a)
    payload_b = proto.prepare_payload("B", r_b)
    k_b, payload_a = proto.measure_payload(payload_a, r_b)
    k_a, payload_b = proto.measure_payload(payload_b, r_a)
    if k_a != k_b:
        raise AssertionError("deterministic keys must coincide")
    return r_a, r_b, proto.public_part(r_a), proto.public_part(r_b), k_a


@dataclass
class AttackState:
    """Everything the interception phase logs, plus the offline results."""

    s_a: int
    s_b: int
    alphas: tuple[int, ...]
    betas: tuple[int, ...]
    sampled_rb: tuple[int, ...]
    sampled_ra: tuple[int, ...]
    gamma_a: object = None  # ndarray of members, or membership predicate
    gamma_b: object = None
    r_star_a: int | None = None
    r_star_b: int | None = None
    guess: int | None = None
    method: str = ""
    failed: bool = False


def eve_online(proto: ClassicalKeyProtocol, s_a: int, s_b: int,
               payload_a: QuantumPayload, payload_b: QuantumPayload,
               rng: np.random.Generator):
    """Probe both transit registers with freshly sampled counterpart coins.

    Every probe outcome is deterministic given the sealed coins, so the
    registers pass through untouched and are handed back for delivery.
    """
    alphas, betas, rbs, ras = [], [], [], []
    for _ in range(proto.probes):
        rb_t = proto.sample_randomness(rng)
        out, payload_a = proto.measure_payload(payload_a, rb_t)
        alphas.append(out)
        rbs.append(rb_t)
        ra_t = proto.sample_randomness(rng)
        out, payload_b = proto.measure_payload(payload_b, ra_t)
        betas.append(out)
        ras.append(ra_t)
    state = AttackState(s_a, s_b, tuple(alphas), tuple(betas), tuple(rbs), tuple(ras))
    return state, payload_a, payload_b


def gamma_membership(kf: KeyFunction, state: AttackState, side: str, cand: int) -> bool:
    """Defining predicate of the candidate sets, independent of representation."""
    if side == "a":
        return all(kf.value(cand, rb) == a for rb, a in zip(state.sampled_rb, state.alphas))
    return all(kf.value(ra, cand) == b for ra, b in zip(state.sampled_ra, state.betas))


class _Gf2System:
    """Incrementally row-reduced affine system over GF(2), masks as ints."""

    def __init__(self, width: int):
        self.width = width
        self.pivots: dict[int, tuple[int, int]] = {}  # col -> (mask, rhs bit)

    def _reduce(self, mask: int, b: int) -> tuple[int, int]:
        while mask:
            top = mask.bit_length() - 1
            if top not in self.pivots:
                break
            pm, pb = self.pivots[top]
            mask ^= pm
            b ^= pb
        return mask, b

    def add(self, mask: int, b: int) -> bool:
        """False when the row contradicts the system."""
        mask, b = self._reduce(mask, b)
        if mask == 0:
            return b == 0
        self.pivots[mask.bit_length() - 1] = (mask, b)
        return True

    def free_columns(self) -> list[int]:
        return [j for j in range(self.width) if j not in self.pivots]

    def solve(self, free_assignment: int) -> int:
        """Complete a solution from values on the free columns."""
        x = free_assignment
        for col in sorted(self.pivots):
            pm, pb = self.pivots[col]
            bit = pb ^ ((pm & x & ~(1 << col)).bit_count() & 1)
            x = (x & ~(1 << col)) | (bit << col)
        return x

    def sample_uniform(self, rng: np.random.Generator) -> int:
        free = 0
        for j in self.free_columns():
            free |= int(rng.integers(0, 2)) << j
        return self.solve(free)

    def lex_min(self) -> int:
        """Greedy MSB-first: force each bit to 0 whenever still consistent."""
        for j in reversed(range(self.width)):
            mask, b = self._reduce(1 << j, 0)
            if mask == 0:
                continue  # bit already forced to value b
            # free to choose: pin x_j = 0 by adding the reduced row
            self.pivots[mask.bit_length() - 1] = (mask, b)
        return self.solve(0)


def _affine_system(kf: KeyFunction, side: str, others, outcomes) -> _Gf2System:
    rows, other_rows = (kf.rows_a, kf.rows_b) if side == "a" else (kf.rows_b, kf.rows_a)
    system = _Gf2System(kf.r)
    for other, outcome in zip(others, outcomes):
        rhs = outcome ^ kf.const ^ _parities(other_rows, other)
        for o, row in enumerate(rows):
            if not system.add(row, (rhs >> o) & 1):
                raise AssertionError("observations came from a real run")
    return system


def eve_offline(proto: ClassicalKeyProtocol, state: AttackState,
                rng: np.random.Generator, method: str | None = None) -> int | None:
    """Intersect the logged observations into candidate sets and guess.

    The left candidate is drawn uniformly from its set, the right one is the
    lexicographically smallest member. Returns None (and flags the state)
    only when the rejection fallback exhausts its draw cap.
    """
    kf = proto.key_function
    if method is None:
        if kf.is_affine:
            method = "affine"
        elif kf.r <= MAX_ENUM_BITS:
            method = "enumeration"
        else:
            method = "rejection"
    state.method = method

    if method == "enumeration":
        if kf.r > MAX_ENUM_BITS:
            raise ValueError("enumeration limited to r <= %d" % MAX_ENUM_BITS)
        cands = np.arange(2**kf.r, dtype=np.int64)
        for rb_t, a_t in zip(state.sampled_rb, state.alphas):
            cands = cands[kf.batch_left(cands, rb_t) == a_t]
        gamma_a = cands
        cands = np.arange(2**kf.r, dtype=np.int64)
        for ra_t, b_t in zip(state.sampled_ra, state.betas):
            cands = cands[kf.batch_right(ra_t, cands) == b_t]
        gamma_b = cands
        if gamma_a.size == 0 or gamma_b.size == 0:
            raise AssertionError("observations came from a real run")
        state.gamma_a, state.gamma_b = gamma_a, gamma_b
        state.r_star_a = int(rng.choice(gamma_a))
        state.r_star_b = int(gamma_b[0])
    elif method == "affine":
        if not kf.is_affine:
            raise ValueError("affine path needs an affine key function")
        sys_a = _affine_system(kf, "a", state.sampled_rb, state.alphas)
        sys_b = _affine_system(kf, "b", state.sampled_ra, state.betas)
        state.gamma_a = lambda c: gamma_membership(kf, state, "a", c)
        state.gamma_b = lambda c: gamma_membership(kf, state, "b", c)
        state.r_star_a = sys_a.sample_uniform(rng)
        state.r_star_b = sys_b.lex_min()
    elif method == "rejection":
        state.gamma_a = lambda c: gamma_membership(kf, state, "a", c)
        state.gamma_b = lambda c: gamma_membership(kf, state, "b", c)
        found = []
        for side in ("a", "b"):
            hit = None
            for _ in range(REJECTION_CAP):
                cand = proto.sample_randomness(rng)
                if gamma_membership(kf, state, side, cand):
                    hit = cand
                    break
            if hit is None:
                state.failed = True
                return None
            found.append(hit)
        state.r_star_a, state.r_star_b = found
    else:
        raise ValueError("unknown method %r" % method)

    state.guess = kf.value(state.r_star_a, state.r_star_b)
    return state.guess


@dataclass(frozen=True)
class NogoRate:
    rate: float
    stderr: float
    bound: float
    trials: int
    failures: int


def attack_success_rate(proto: ClassicalKeyProtocol, trials: int,
                        rng: np.random.Generator, method: str | None = None) -> NogoRate:
    """Full pipeline repeated over fresh runs; enforces the guaranteed floor.

    Interception happens in transit, before the parties measure, and the
    delivered registers are the very objects the attack handled.
    """
    hits = 0
    failures = 0
    for _ in range(trials):
        r_a = proto.sample_randomness(rng)
        r_b = proto.sample_randomness(rng)
        payload_a = proto.prepare_payload("A", r_a)
        payload_b = proto.prepare_payload("B", r_b)
        state, payload_a, payload_b = eve_online(
            proto, proto.public_part(r_a), proto.public_part(r_b), payload_a, payload_b, rng
        )
        k_b, payload_a = proto.measure_payload(payload_a, r_b)
        k_a, payload_b = proto.measure_payload(payload_b, r_a)
        if k_a != k_b:
            raise AssertionError("interception must not disturb the honest keys")
        guess = eve_offline(proto, state, rng, method=method)
        if guess is None:
            failures += 1
            continue
        hits += int(guess == k_a)
    rate = hits / trials
    stderr = (rate * (1 - rate) / trials) ** 0.5
    bound = nogo_bound(proto.r)
    # the floor is a theorem about the completed attack; capped-out offline
    # phases are flagged in the record instead of tripping it
    if failures == 0 and rate < bound - 3 * stderr:
        raise AssertionError(
            "guess rate %.4f fell below the guaranteed floor %.4f" % (rate, bound)
        )
    return NogoRate(rate, stderr, bound, trials, failures)
