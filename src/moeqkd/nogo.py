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

Coins are drawn and probed as 32-bit words, one draw call and one
``np.bitwise_count`` pass per probe block. An affine key has one kernel per
GF concept: its columns come from one ``hashing.gf_powers`` sequence, each
side's row masks M are reduced once (``RowEchelon.of``, in the pivot order
that side's offline pick needs), and ``_readouts`` reads the registers for
the honest keys, the probe outcomes and the guesses. Every probe of a
register implies the same equation M·c = y, so the offline phase is closed
form over the echelon forms; table keys, at most MAX_TABLE_BITS wide,
enumerate all 2^r candidates instead.

``attack_success_rate`` runs affine trials TRIAL_BLOCK at a time, each block
from one draw call that lays out, trial by trial, what the per-trial calls
draw: R_A, R_B, the probe coins and the offline phase's free bits. Every
bound is a power of two at most 2^32, on which numpy's bounded draw
(Lemire's method) never rejects, so each value takes one 32-bit output and
the block yields the same values and final generator state. The block then
computes keys, probe outcomes, Eve's checks and both picks as arrays over
its trials; ``eve_offline`` is the one-trial case of the same solve. Table
keys stay per trial: ``rng.choice`` draws below the candidate set's size,
known only after the probes, and a bound that is not a power of two may
reject and redraw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .hashing import REDUCTION_POLY, gf_powers

MAX_TABLE_BITS = 12
T_FACTOR = 2  # online probes per randomness bit
TRIAL_BLOCK = 64  # affine attack trials per draw call; bounds peak memory


def nogo_bound(r: int) -> float:
    """Worst-case guaranteed guess rate of the offline phase."""
    return max(0.0, 1.0 / 3.0 - 2.0 * (8.0 / 9.0) ** r)


def _word_bounds(bits: int) -> list[int]:
    """Per-word draw bounds of a ``bits``-wide coin, low word first."""
    return [1 << min(32, bits - lo) for lo in range(0, bits, 32)]


def _draw_words(rng: np.random.Generator, bits: int, count: int) -> np.ndarray:
    """``count`` coins as rows of uint32 words, low word first, in one draw
    call; it yields the values of per-word scalar draws in row order."""
    bounds = _word_bounds(bits)
    return rng.integers(0, bounds, size=(count, len(bounds))).astype(np.uint32)


def _join_words(words: np.ndarray) -> list[int]:
    """Python ints from rows of little-endian words of any unsigned dtype."""
    cols = words.T.tolist()
    out = cols.pop()
    for col in reversed(cols):
        out = [hi << 8 * words.itemsize | lo for hi, lo in zip(out, col)]
    return out


def _int_words(values, bits: int) -> np.ndarray:
    """Python ints as rows of ``bits``-wide uint32 words, low word first."""
    width = -(-bits // 32)
    raw = b"".join(v.to_bytes(4 * width, "little") for v in values)
    return np.frombuffer(raw, dtype="<u4").reshape(len(values), width)


def _int_bits(values, bits: int) -> np.ndarray:
    """Python ints as rows of their ``bits`` low bits, lowest first."""
    return np.unpackbits(_int_words(values, bits).view(np.uint8), axis=1, count=bits,
                         bitorder="little")


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Rows of bits, lowest first, as uint32 words, low word first."""
    n = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (-(-n // 32) * 32,), dtype=np.uint8)
    padded[..., :n] = bits
    return np.packbits(padded, axis=-1, bitorder="little").view("<u4")


def _rand_bits(rng: np.random.Generator, bits: int) -> int:
    return _join_words(_draw_words(rng, bits, 1))[0]


def _parities(rows: tuple[int, ...], x: int) -> int:
    """Bit o of the result is the parity of ``rows[o] & x``."""
    out = 0
    for o, row in enumerate(rows):
        out |= ((row & x).bit_count() & 1) << o
    return out


def _parity_bits(row_words: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The vector form of ``_parities``: bit o of the last axis is the parity
    of ``row_words[o] & x``, for each x given as words on the last axis of
    ``words``; the leading axes (trials, probes) carry through."""
    folded = words[..., None, 0] & row_words[:, 0]
    for w in range(1, words.shape[-1]):
        folded ^= words[..., None, w] & row_words[:, w]
    return np.bitwise_count(folded) & 1


def _reduce_rows(rows, lowest: bool) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Gauss-Jordan elimination over GF(2) on each row's top (or lowest) bit.

    Returns {pivot: (row, combo)}, where no row holds another's pivot and
    combo masks the input rows that row is the xor of, and the combos of the
    input rows that reduce to 0. Those span the relations among the rows: y
    is in the image of M iff y & combo has even parity for each of them.
    """
    reduced: dict[int, tuple[int, int]] = {}
    null: list[int] = []
    for o, row in enumerate(rows):
        combo = 1 << o
        for p, (prow, pcombo) in reduced.items():
            if row >> p & 1:
                row, combo = row ^ prow, combo ^ pcombo
        if row:
            pivot = (row & -row if lowest else row).bit_length() - 1
            for p, (prow, pcombo) in reduced.items():
                if prow >> pivot & 1:
                    reduced[p] = (prow ^ row, pcombo ^ combo)
            reduced[pivot] = (row, combo)
        else:
            null.append(combo)
    return reduced, null


def _echelon_solve(ech: RowEchelon, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Complete ``x``, bits that are 0 on the pivots, to solutions of M·x = y,
    one per row of ``y``'s words: pivot bit p becomes the parity of
    combo_p & y xor that of row_p & x. Returns the solutions as words."""
    bits = _parity_bits(ech.combos, y)
    if x.any():
        bits ^= _parity_bits(ech.rows, _pack_bits(x))
    x[..., ech.cols] = bits
    return _pack_bits(x)


class RowEchelon(NamedTuple):
    """One side's row masks M as uint32 words, and M's reduced echelon form
    as word masks, one row per pivot column: the reduced rows (r bits) and
    their combos (m bits). ``null`` holds the relations among M's rows as
    m-bit words; they do not depend on the pivot order.

    ``lowest`` sets the pivot order, and with it the pick ``_echelon_solve``
    makes. On top bits, drawing the free columns uniformly gives a uniform
    solution. On lowest bits, a column that is no row combination's lowest
    bit can always be 0, so solving with no free bits set gives the smallest
    solution, the xor of the unit vectors at the pivots whose combo has odd
    parity with y.
    """

    words: np.ndarray
    cols: list[int]
    rows: np.ndarray
    combos: np.ndarray
    null: np.ndarray

    @classmethod
    def of(cls, rows: tuple[int, ...], r: int, lowest: bool) -> RowEchelon:
        reduced, null = _reduce_rows(rows, lowest)
        m = len(rows)
        return cls(_int_words(rows, r), list(reduced),
                   _int_words([row for row, _ in reduced.values()], r),
                   _int_words([combo for _, combo in reduced.values()], m), _int_words(null, m))


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
    system, and ``echelon_a``/``echelon_b`` are derived from them. The table
    kind stores the full lookup array instead.
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
    echelon_a: RowEchelon | None = field(default=None, init=False, repr=False)
    echelon_b: RowEchelon | None = field(default=None, init=False, repr=False)

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
            # each side pivots in the order its offline pick needs: the
            # uniform left pick on top bits, the smallest right pick on lowest
            object.__setattr__(self, "echelon_a", RowEchelon.of(self.rows_a, self.r, lowest=False))
            object.__setattr__(self, "echelon_b", RowEchelon.of(self.rows_b, self.r, lowest=True))
        elif self.table.shape != (2**self.r, 2**self.r):
            raise ValueError("table shape must be 2^r by 2^r")

    @property
    def is_affine(self) -> bool:
        return self.table is None

    def value(self, ra: int, rb: int) -> int:
        if self.table is not None:
            return int(self.table[ra, rb])
        return self.const ^ _parities(self.rows_a, ra) ^ _parities(self.rows_b, rb)


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
    # input bit j of the right coin is x^j, of the left coin x^(r+j)
    cols = [p >> shift for p in gf_powers(2 * r, a, 2 * r)]
    return _affine("affine_hash", r, m, cols[r:], cols[:r], b >> shift, a_seed=a, b_seed=b)


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


@dataclass(frozen=True)
class ClassicalKeyProtocol:
    """Both keys equal key_function(R_A, R_B); S is a published prefix."""

    key_function: KeyFunction
    s_bits: int = 0
    t_samples: int | None = None

    def __post_init__(self):
        if not 0 <= self.s_bits <= self.r:
            raise ValueError("prefix length out of range")
        if self.probes < 1:
            raise ValueError("the attack needs at least one probe per side")

    @property
    def r(self) -> int:
        return self.key_function.r

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

    def measure_probes(self, payload: QuantumPayload,
                       words: np.ndarray) -> tuple[list[int], QuantumPayload]:
        """``measure_payload`` for each row of counterpart coin words, in one pass."""
        kf, hidden = self.key_function, payload.hidden
        if kf.table is not None:
            coins = _join_words(words)
            outcomes = kf.table[hidden, coins] if payload.party == "A" else kf.table[coins, hidden]
            return outcomes.tolist(), payload
        bits = _readouts(kf, payload.party, _int_words([hidden], kf.r), words)
        return _join_words(_pack_bits(bits)), payload


def _readouts(kf: KeyFunction, party: str, hidden_words: np.ndarray,
              coin_words: np.ndarray) -> np.ndarray:
    """The vector form of ``measure_payload`` on an affine key, as bits:
    const ^ parities(hidden coin) ^ parities(counterpart coin), each coin
    under its own party's rows. Coins are words on the last axis; the
    leading axes broadcast."""
    own, other = (kf.echelon_a, kf.echelon_b) if party == "A" else (kf.echelon_b, kf.echelon_a)
    return (_int_bits([kf.const], kf.m) ^ _parity_bits(own.words, hidden_words)
            ^ _parity_bits(other.words, coin_words))


@dataclass
class AttackState:
    """Everything the interception phase logs, plus the offline results.

    Probe coins are kept as drawn, one row of uint32 words per probe.
    """

    s_a: int
    s_b: int
    alphas: tuple[int, ...]
    betas: tuple[int, ...]
    rb_words: np.ndarray
    ra_words: np.ndarray
    r_star_a: int | None = None
    r_star_b: int | None = None
    guess: int | None = None
    method: str = ""

    sampled_rb = property(lambda self: tuple(_join_words(self.rb_words)))
    sampled_ra = property(lambda self: tuple(_join_words(self.ra_words)))


def eve_online(proto: ClassicalKeyProtocol, s_a: int, s_b: int,
               payload_a: QuantumPayload, payload_b: QuantumPayload,
               rng: np.random.Generator):
    """Probe both transit registers with freshly sampled counterpart coins.

    Every probe outcome is deterministic given the sealed coins, so the
    registers pass through untouched and are handed back for delivery. All
    coins come from one draw, in per-probe order: a right coin, then a left.
    """
    words = _draw_words(rng, proto.r, 2 * proto.probes)
    rb_words, ra_words = words[0::2], words[1::2]
    alphas, payload_a = proto.measure_probes(payload_a, rb_words)
    betas, payload_b = proto.measure_probes(payload_b, ra_words)
    state = AttackState(s_a, s_b, tuple(alphas), tuple(betas), rb_words, ra_words)
    return state, payload_a, payload_b


def _probe_rhs(kf: KeyFunction, ech: RowEchelon, other: RowEchelon,
               outcomes: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The y = M·r, r the intercepted coins, that every probe outcome implies,
    as m-bit words, one row per trial; outcomes are bits (trials, probes, m)
    and ``words`` the counterpart coins. Raises unless each trial's probes
    give the same y and y is in the image of M."""
    ys = outcomes ^ _parity_bits(other.words, words)
    y = _pack_bits(ys[:, 0]) ^ _int_words([kf.const], kf.m)
    if not (ys == ys[:, :1]).all() or _parity_bits(ech.null, y).any():
        raise AssertionError("observations came from a real run")
    return y


def _affine_picks(kf: KeyFunction, y_a: np.ndarray, y_b: np.ndarray,
                  free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both offline picks as words, one row per trial: the solution of
    M_a·x = y_a with the drawn bits ``free`` on its free columns, and the
    smallest solution of M_b·x = y_b."""
    x_a = np.zeros(free.shape[:-1] + (kf.r,), dtype=np.uint8)
    x_a[..., [j for j in range(kf.r) if j not in kf.echelon_a.cols]] = free
    return (_echelon_solve(kf.echelon_a, y_a, x_a),
            _echelon_solve(kf.echelon_b, y_b, np.zeros_like(x_a)))


def eve_offline(proto: ClassicalKeyProtocol, state: AttackState, rng: np.random.Generator) -> int:
    """Intersect the logged observations into candidate sets and guess.

    The left candidate is drawn uniformly from its set, the right one is the
    lexicographically smallest member. Affine keys read both off the key
    function's echelon forms, as a block of one trial; table keys, which
    hold r <= MAX_TABLE_BITS, enumerate all 2^r candidates, keeping those
    whose table entry matches each probe in turn.
    """
    kf = proto.key_function
    if kf.is_affine:
        state.method = "affine"
        ech_a, ech_b = kf.echelon_a, kf.echelon_b
        if max(state.alphas + state.betas) >> kf.m:  # a y outside M's image
            raise AssertionError("observations came from a real run")
        alphas, betas = (_int_bits(out, kf.m)[None] for out in (state.alphas, state.betas))
        y_a = _probe_rhs(kf, ech_a, ech_b, alphas, state.rb_words[None])
        y_b = _probe_rhs(kf, ech_b, ech_a, betas, state.ra_words[None])
        free = rng.integers(0, 2, size=(1, kf.r - len(ech_a.cols)))
        picks = _affine_picks(kf, y_a, y_b, free)
        state.r_star_a, state.r_star_b = (_join_words(x)[0] for x in picks)
    else:
        state.method = "enumeration"
        gamma_a = gamma_b = np.arange(2**kf.r)
        for rb_t, a_t in zip(state.sampled_rb, state.alphas):
            gamma_a = gamma_a[kf.table[gamma_a, rb_t] == a_t]
        for ra_t, b_t in zip(state.sampled_ra, state.betas):
            gamma_b = gamma_b[kf.table[ra_t, gamma_b] == b_t]
        if gamma_a.size == 0 or gamma_b.size == 0:
            raise AssertionError("observations came from a real run")
        state.r_star_a = int(rng.choice(gamma_a))
        state.r_star_b = int(gamma_b[0])

    state.guess = kf.value(state.r_star_a, state.r_star_b)
    return state.guess


def _attack_block(proto: ClassicalKeyProtocol, count: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """``count`` trials of ``attack_success_rate``'s loop on an affine key:
    the honest keys and the guesses as m-bit words, and the offline picks
    r*_a and r*_b as r-bit words, one row per trial.

    One draw call yields, per trial, what the loop draws in turn: R_A's and
    R_B's words, the probe coins in ``eve_online``'s order and the free bits
    ``eve_offline`` draws (the module docstring says why that is exact).
    """
    kf = proto.key_function
    ech_a, ech_b = kf.echelon_a, kf.echelon_b
    bounds, probes = _word_bounds(kf.r), proto.probes
    w = len(bounds)
    layout = np.array(bounds * (2 + 2 * probes) + [2] * (kf.r - len(ech_a.cols)))
    draw = rng.integers(0, np.broadcast_to(layout, (count, layout.size))).astype(np.uint32)
    r_a, r_b, coins, free = np.split(draw, [w, 2 * w, (2 + 2 * probes) * w], axis=1)
    coins = coins.reshape(count, probes, 2, w)
    rb_words, ra_words = coins[:, :, 0], coins[:, :, 1]

    # the registers read with the real coins give the honest keys, with
    # Eve's the probe outcomes
    k_b, k_a = _readouts(kf, "A", r_a, r_b), _readouts(kf, "B", r_b, r_a)
    if (k_a != k_b).any():
        raise AssertionError("interception must not disturb the honest keys")
    alphas = _readouts(kf, "A", r_a[:, None], rb_words)
    betas = _readouts(kf, "B", r_b[:, None], ra_words)

    y_a = _probe_rhs(kf, ech_a, ech_b, alphas, rb_words)
    y_b = _probe_rhs(kf, ech_b, ech_a, betas, ra_words)
    r_star_a, r_star_b = _affine_picks(kf, y_a, y_b, free)
    guesses = _readouts(kf, "A", r_star_a, r_star_b)
    return _pack_bits(k_a), _pack_bits(guesses), r_star_a, r_star_b


@dataclass(frozen=True)
class NogoRate:
    rate: float
    stderr: float
    bound: float
    trials: int
    failures: int  # always 0; the offline_failures record and perfbench read it


def attack_success_rate(proto: ClassicalKeyProtocol, trials: int,
                        rng: np.random.Generator) -> NogoRate:
    """Full pipeline repeated over fresh runs; enforces the guaranteed floor.

    Interception happens in transit, before the parties measure, and the
    delivered registers are the very objects the attack handled. Affine keys
    run TRIAL_BLOCK trials at a time through ``_attack_block``, table keys
    one trial at a time, as the module docstring sets out.
    """
    hits = 0
    if proto.key_function.is_affine:
        for start in range(0, trials, TRIAL_BLOCK):
            keys, guesses, _, _ = _attack_block(proto, min(TRIAL_BLOCK, trials - start), rng)
            hits += int((guesses == keys).all(axis=1).sum())
    else:
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
            hits += int(eve_offline(proto, state, rng) == k_a)
    rate = hits / trials
    stderr = (rate * (1 - rate) / trials) ** 0.5
    bound = nogo_bound(proto.r)
    if rate < bound - 3 * stderr:
        raise AssertionError(
            "guess rate %.4f fell below the guaranteed floor %.4f" % (rate, bound)
        )
    return NogoRate(rate, stderr, bound, trials, 0)
