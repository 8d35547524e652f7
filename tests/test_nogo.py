from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moeqkd.nogo as nogo
from moeqkd.hashing import gf_mul
from moeqkd.nogo import (
    AttackState,
    ClassicalKeyProtocol,
    affine_hash_key_function,
    affine_key_function,
    attack_success_rate,
    eve_offline,
    eve_online,
    gamma_membership,
    nogo_bound,
    run_toy_protocol,
    table_key_function,
    xor_trunc_key_function,
)

CHI2_CRIT_31DOF = 61.098  # 0.999 quantile


def intercepted_run(proto, rng):
    """Full pipeline with interception in transit; returns everything logged."""
    r_a = proto.sample_randomness(rng)
    r_b = proto.sample_randomness(rng)
    pa = proto.prepare_payload("A", r_a)
    pb = proto.prepare_payload("B", r_b)
    state, pa, pb = eve_online(
        proto, proto.public_part(r_a), proto.public_part(r_b), pa, pb, rng
    )
    k_b, pa = proto.measure_payload(pa, r_b)
    k_a, pb = proto.measure_payload(pb, r_a)
    assert k_a == k_b
    return r_a, r_b, k_a, state


def members(kf, state, side):
    """The candidate set by its definition, over all 2^r coins."""
    return [c for c in range(2**kf.r) if gamma_membership(kf, state, side, c)]


def table_twin(kf):
    """The same affine map as a lookup table, so the attack enumerates it.

    Affine means f(x, y) = f(x, 0) ^ f(0, y) ^ f(0, 0), so 2^(r+1) calls of
    ``kf.value`` fill all 2^r x 2^r entries.
    """
    coins = range(2**kf.r)
    left = np.array([kf.value(x, 0) for x in coins], dtype=np.uint8)
    right = np.array([kf.value(0, y) for y in coins], dtype=np.uint8)
    table = left[:, None] ^ right[None, :] ^ np.uint8(kf.value(0, 0))
    assert all(table[x, y] == kf.value(x, y) for x, y in zip(coins[::3], coins[1::5]))
    return nogo.KeyFunction("table", kf.r, kf.m, table=table)


def test_honest_runs_reproduce_key_from_logged_randomness():
    rng = np.random.default_rng(40)
    protos = [
        ClassicalKeyProtocol(xor_trunc_key_function(8, 3), s_bits=2),
        ClassicalKeyProtocol(table_key_function(8, 2, rng)),
        ClassicalKeyProtocol(affine_hash_key_function(8, 4, rng)),
    ]
    for proto in protos:
        for _ in range(200):
            r_a, r_b, s_a, s_b, key = run_toy_protocol(proto, rng)
            assert key is not None
            assert key == proto.key_function.value(r_a, r_b)
            assert s_a == proto.public_part(r_a)
    # the xor family admits a direct algebraic check
    proto = protos[0]
    r_a, r_b, s_a, _, key = run_toy_protocol(proto, rng)
    assert key == (r_a ^ r_b) >> 5
    assert s_a == r_a >> 6


def test_payloads_pass_through_interception_untouched():
    rng = np.random.default_rng(41)
    proto = ClassicalKeyProtocol(table_key_function(8, 2, rng))
    for _ in range(200):
        r_a = proto.sample_randomness(rng)
        r_b = proto.sample_randomness(rng)
        pa = proto.prepare_payload("A", r_a)
        pb = proto.prepare_payload("B", r_b)
        state, pa2, pb2 = eve_online(proto, 0, 0, pa, pb, rng)
        assert pa2 is pa and pb2 is pb
        # honest parties measure the forwarded registers and still agree
        k_b, _ = proto.measure_payload(pa2, r_b)
        k_a, _ = proto.measure_payload(pb2, r_a)
        assert k_a == k_b == proto.key_function.value(r_a, r_b)


def test_online_observations_are_deterministic_replays():
    rng = np.random.default_rng(42)
    proto = ClassicalKeyProtocol(table_key_function(6, 2, rng))
    r_a, r_b, _, state = intercepted_run(proto, rng)
    assert len(state.alphas) == proto.probes == 12
    for rb_t, a_t in zip(state.sampled_rb, state.alphas):
        assert a_t == proto.key_function.value(r_a, rb_t)
    for ra_t, b_t in zip(state.sampled_ra, state.betas):
        assert b_t == proto.key_function.value(ra_t, r_b)


def test_candidate_sets_contain_the_real_coins():
    rng = np.random.default_rng(43)
    table_proto = ClassicalKeyProtocol(table_key_function(8, 2, rng))
    affine_proto = ClassicalKeyProtocol(affine_hash_key_function(8, 3, rng))
    for proto in (table_proto, affine_proto):
        for _ in range(30):
            r_a, r_b, key, state = intercepted_run(proto, rng)
            guess = eve_offline(proto, state, rng)
            gamma_a = members(proto.key_function, state, "a")
            gamma_b = members(proto.key_function, state, "b")
            assert r_a in gamma_a and r_b in gamma_b
            assert state.r_star_a in gamma_a
            assert state.r_star_b == gamma_b[0]
            assert guess == key


def test_full_rank_linear_map_pins_both_coins():
    rng = np.random.default_rng(44)
    r = 8
    # unit lower-triangular columns make the map invertible by construction
    cols = tuple((1 << j) | (int(rng.integers(0, 1 << j)) if j else 0) for j in range(r))
    proto = ClassicalKeyProtocol(affine_key_function(r, r, cols, cols))
    for _ in range(50):
        r_a, r_b, key, state = intercepted_run(proto, rng)
        guess = eve_offline(proto, state, rng)
        assert members(proto.key_function, state, "a") == [r_a]
        assert members(proto.key_function, state, "b") == [r_b]
        assert (state.r_star_a, state.r_star_b) == (r_a, r_b)
        assert guess == key
    res = attack_success_rate(proto, 50, rng)
    assert res.rate == 1.0


def test_constant_function_leaves_full_candidate_space():
    rng = np.random.default_rng(45)
    kf = affine_key_function(6, 2, [0] * 6, [0] * 6, const=3)
    proto = ClassicalKeyProtocol(kf)
    _, _, key, state = intercepted_run(proto, rng)
    guess = eve_offline(proto, state, rng)
    assert key == 3 and guess == 3
    assert members(kf, state, "a") == members(kf, state, "b") == list(range(64))
    res = attack_success_rate(proto, 50, rng)
    assert res.rate == 1.0


def test_attack_is_exact_for_affine_families():
    # constraints pin the key-determining projections, so the guess is certain
    rng = np.random.default_rng(46)
    res = attack_success_rate(ClassicalKeyProtocol(xor_trunc_key_function(8, 3)), 200, rng)
    assert res.rate == 1.0 and res.failures == 0
    res = attack_success_rate(ClassicalKeyProtocol(affine_hash_key_function(8, 4, rng)), 200, rng)
    assert res.rate == 1.0
    res = attack_success_rate(ClassicalKeyProtocol(affine_hash_key_function(16, 4, rng)), 100, rng)
    assert res.rate == 1.0


def test_attack_rate_table_regressions():
    rng = np.random.default_rng(47)
    res = attack_success_rate(ClassicalKeyProtocol(table_key_function(8, 2, rng)), 300, rng)
    assert res.rate == 1.0
    res = attack_success_rate(ClassicalKeyProtocol(table_key_function(10, 2, rng)), 2000, rng)
    assert res.rate == 1.0
    assert res.bound == 0.0  # vacuous floor at r = 10, empirical rate far above
    res = attack_success_rate(ClassicalKeyProtocol(table_key_function(12, 2, rng)), 100, rng)
    assert res.rate == 1.0


def test_one_bit_keys_clear_the_guessing_floor():
    rng = np.random.default_rng(48)
    res = attack_success_rate(ClassicalKeyProtocol(table_key_function(8, 1, rng)), 300, rng)
    assert res.rate >= 0.5


def test_r_star_a_uniform_over_candidate_set():
    # one probe of the truncated-xor family pins exactly the top bit, so the
    # candidate set has 32 members whatever the observations were
    rng = np.random.default_rng(49)
    proto = ClassicalKeyProtocol(xor_trunc_key_function(6, 1), t_samples=1)
    assert proto.probes == 1
    _, _, _, state = intercepted_run(proto, rng)
    gamma_a = members(proto.key_function, state, "a")
    assert len(gamma_a) == 32
    twin = replace(proto, key_function=table_twin(proto.key_function))
    for p, method in ((twin, "enumeration"), (proto, "affine")):
        counts = {}
        for _ in range(6400):
            eve_offline(p, state, rng)
            counts[state.r_star_a] = counts.get(state.r_star_a, 0) + 1
        assert state.method == method
        assert sorted(counts) == gamma_a
        chi2 = sum((c - 200) ** 2 / 200 for c in counts.values())
        assert chi2 <= CHI2_CRIT_31DOF


def test_lex_min_agrees_with_enumeration():
    rng = np.random.default_rng(50)
    for _ in range(20):
        cols_a = tuple(int(rng.integers(0, 4)) for _ in range(8))
        cols_b = tuple(int(rng.integers(0, 4)) for _ in range(8))
        kf = affine_key_function(8, 2, cols_a, cols_b, const=int(rng.integers(0, 4)))
        proto = ClassicalKeyProtocol(kf)
        _, _, key, state = intercepted_run(proto, rng)
        eve_offline(ClassicalKeyProtocol(table_twin(kf)), state, rng)
        assert state.method == "enumeration"
        by_enum = state.r_star_b
        eve_offline(proto, state, rng)
        assert state.method == "affine"
        assert state.r_star_b == by_enum == members(kf, state, "b")[0]
        assert state.guess == key


def test_key_function_validation():
    rng = np.random.default_rng(53)
    with pytest.raises(ValueError):
        table_key_function(13, 2, rng)
    with pytest.raises(ValueError):
        table_key_function(4, 9, rng)
    with pytest.raises(ValueError):
        affine_hash_key_function(20, 4, rng)  # no doubled-width field table
    with pytest.raises(ValueError):
        xor_trunc_key_function(8, 9)
    with pytest.raises(ValueError):
        xor_trunc_key_function(8, 0)
    with pytest.raises(ValueError):
        affine_key_function(4, 2, [0] * 3, [0] * 4)
    with pytest.raises(ValueError):
        affine_key_function(4, 2, [4, 1, 0, 0], [0, 2, 0, 0])  # column wider than m
    with pytest.raises(ValueError):
        affine_key_function(4, 2, [0] * 4, [0, 0, -1, 0])
    with pytest.raises(ValueError):
        affine_key_function(4, 2, [0] * 4, [0] * 4, const=4)
    with pytest.raises(ValueError):
        ClassicalKeyProtocol(xor_trunc_key_function(4, 2), s_bits=5)
    with pytest.raises(ValueError):
        ClassicalKeyProtocol(xor_trunc_key_function(4, 2), t_samples=0)


def affine_by_definition(cols_a, cols_b, const, ra, rb):
    """const xor the columns selected by the set bits of both inputs."""
    out = const
    for cols, x in ((cols_a, ra), (cols_b, rb)):
        for j, c in enumerate(cols):
            if (x >> j) & 1:
                out ^= c
    return out


@st.composite
def affine_cases(draw):
    r = draw(st.integers(1, 12))
    m = draw(st.integers(1, r))
    col = st.integers(0, 2**m - 1)
    coin = st.integers(0, 2**r - 1)
    cols_a = draw(st.lists(col, min_size=r, max_size=r))
    cols_b = draw(st.lists(col, min_size=r, max_size=r))
    return r, m, cols_a, cols_b, draw(col), draw(coin), draw(coin)


@settings(max_examples=300, deadline=None)
@given(affine_cases())
def test_values_match_definition_and_table_enumeration_picks_members(case):
    r, m, cols_a, cols_b, const, ra, rb = case
    f = lambda x, y: affine_by_definition(cols_a, cols_b, const, x, y)
    kfs = [affine_key_function(r, m, cols_a, cols_b, const)]
    if r <= 6:  # the same map as a lookup table
        table = np.array([[f(x, y) for y in range(2**r)] for x in range(2**r)], dtype=np.uint8)
        kfs.append(nogo.KeyFunction("table", r, m, table=table))
    for kf in kfs:
        assert kf.value(ra, rb) == f(ra, rb)
    if r <= 6:  # the enumeration filters the table down to the candidate sets
        kf = kfs[1]
        proto, rng = ClassicalKeyProtocol(kf), np.random.default_rng(ra)
        _, _, _, state = intercepted_run(proto, rng)
        eve_offline(proto, state, rng)
        assert state.method == "enumeration"
        assert state.r_star_b == members(kf, state, "b")[0]
        assert state.r_star_a in members(kf, state, "a")


def test_affine_hash_matches_field_arithmetic():
    rng = np.random.default_rng(55)
    kf = affine_hash_key_function(8, 4, rng)
    for _ in range(100):
        ra = int(rng.integers(0, 256))
        rb = int(rng.integers(0, 256))
        direct = (gf_mul(16, kf.a_seed, (ra << 8) | rb) ^ kf.b_seed) >> 12
        assert kf.value(ra, rb) == direct


@pytest.mark.parametrize("r", [8, 16, 64])
def test_affine_hash_rows_are_products_with_unit_inputs(r):
    # input bit j of the right coin is x^j and of the left coin x^(r+j); its
    # column is the top m bits of a*x^j, and row o collects bit o of each
    m, n = 4, 2 * r
    kf = affine_hash_key_function(r, m, np.random.default_rng(r))
    shift = n - m

    def rows(offset):
        cols = [gf_mul(n, kf.a_seed, 1 << (offset + j)) >> shift for j in range(r)]
        return tuple(sum((c >> o & 1) << j for j, c in enumerate(cols)) for o in range(m))

    assert kf.rows_a == rows(r) and kf.rows_b == rows(0)
    assert kf.const == kf.b_seed >> shift


def test_guaranteed_floor_values():
    assert nogo_bound(12) == 0.0
    assert nogo_bound(16) > 0.0
    assert abs(nogo_bound(64) - (1 / 3 - 2 * (8 / 9) ** 64)) <= 1e-15
    assert abs(nogo_bound(64) - 0.3322685321) <= 1e-9


def scalar_rand_bits(rng, bits):
    """Coin drawn one 32-bit word per call, low word first."""
    out = 0
    for lo in range(0, bits, 32):
        out |= int(rng.integers(0, 1 << min(32, bits - lo))) << lo
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_batched_coin_draw_matches_scalar_draws(seed):
    # the golden traces rest on numpy drawing an array of bounds element by
    # element; if a numpy release changes that, this fails before they do
    for bits in range(1, 131):
        ss = np.random.SeedSequence([seed, bits])
        batch, single, scalar = (np.random.default_rng(ss) for _ in range(3))
        coins = nogo._join_words(nogo._draw_words(batch, bits, 5))
        assert coins == [nogo._rand_bits(single, bits) for _ in range(5)]
        assert coins == [scalar_rand_bits(scalar, bits) for _ in range(5)]
        assert all(0 <= c < 1 << bits for c in coins)
        coin_flips = batch.integers(0, 2, size=9).tolist()
        assert coin_flips == [int(single.integers(0, 2)) for _ in range(9)]
        assert coin_flips == [int(scalar.integers(0, 2)) for _ in range(9)]


class IncrementalGf2:
    """Row-reduction oracle: rows added one at a time, pivots keyed by top bit."""

    def __init__(self, width):
        self.width = width
        self.pivots = {}  # col -> (mask, rhs bit)

    def _reduce(self, mask, b):
        while mask:
            top = mask.bit_length() - 1
            if top not in self.pivots:
                break
            pm, pb = self.pivots[top]
            mask ^= pm
            b ^= pb
        return mask, b

    def add(self, mask, b):
        mask, b = self._reduce(mask, b)
        if mask == 0:
            return b == 0
        self.pivots[mask.bit_length() - 1] = (mask, b)
        return True

    def solve(self, free_assignment):
        x = free_assignment
        for col in sorted(self.pivots):
            pm, pb = self.pivots[col]
            bit = pb ^ ((pm & x & ~(1 << col)).bit_count() & 1)
            x = (x & ~(1 << col)) | (bit << col)
        return x

    def sample_uniform(self, rng):
        free = 0
        for j in range(self.width):
            if j not in self.pivots:
                free |= int(rng.integers(0, 2)) << j
        return self.solve(free)

    def lex_min(self):
        """Greedy MSB-first: force each bit to 0 whenever still consistent."""
        for j in reversed(range(self.width)):
            mask, b = self._reduce(1 << j, 0)
            if mask:
                self.pivots[mask.bit_length() - 1] = (mask, b)
        return self.solve(0)


def oracle_system(kf, rows, other_rows, others, outcomes):
    system = IncrementalGf2(kf.r)
    for other, outcome in zip(others, outcomes):
        rhs = outcome ^ kf.const ^ nogo._parities(other_rows, other)
        for o, row in enumerate(rows):
            if not system.add(row, (rhs >> o) & 1):
                return None
    return system


@st.composite
def attack_cases(draw):
    r = draw(st.integers(1, 130))
    m = draw(st.integers(1, min(r, 8)))
    # columns from the span of at most m vectors: rank-deficient maps too
    basis = draw(st.lists(st.integers(0, 2**m - 1), min_size=0, max_size=m))
    probes = draw(st.integers(1, 2 * r))
    return r, m, basis, probes, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(attack_cases())
def test_closed_form_offline_matches_row_reduction(case):
    r, m, basis, probes, seed = case
    rng = np.random.default_rng(seed)

    def column():
        c = 0
        for v, pick in zip(basis, rng.integers(0, 2, size=len(basis))):
            c ^= v * int(pick)
        return c

    cols_a = [column() for _ in range(r)]
    cols_b = [column() for _ in range(r)]
    kf = affine_key_function(r, m, cols_a, cols_b, const=int(rng.integers(0, 2**m)))
    proto = ClassicalKeyProtocol(kf, t_samples=probes)
    _, _, key, state = intercepted_run(proto, rng)

    sys_a = oracle_system(kf, kf.rows_a, kf.rows_b, state.sampled_rb, state.alphas)
    sys_b = oracle_system(kf, kf.rows_b, kf.rows_a, state.sampled_ra, state.betas)
    assert sys_a is not None and sys_b is not None
    assert sorted(sys_a.pivots) == sorted(kf.echelon_a.cols)
    closed_rng, oracle_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    guess = eve_offline(proto, state, closed_rng)
    assert state.r_star_a == sys_a.sample_uniform(oracle_rng)
    assert state.r_star_b == sys_b.lex_min()
    assert closed_rng.integers(0, 2**32) == oracle_rng.integers(0, 2**32)
    assert gamma_membership(kf, state, "a", state.r_star_a)
    assert gamma_membership(kf, state, "b", state.r_star_b)
    assert guess == key


def rank2_key_function(rng):
    """m = 3 with column rank 2: even-parity columns make bit 2 = bit 0 ^ bit 1."""
    even = np.array([0, 3, 5, 6])
    cols_a = even[rng.integers(0, 4, size=10)].tolist()
    cols_b = even[rng.integers(0, 4, size=10)].tolist()
    kf = affine_key_function(10, 3, cols_a, cols_b, const=6)
    assert len(kf.echelon_a.cols) == len(kf.echelon_b.cols) == 2
    return kf


@pytest.mark.parametrize("method", ["affine", "enumeration"])
def test_tampered_observations_are_rejected(method):
    rng = np.random.default_rng(56)
    kf = rank2_key_function(rng)
    proto = ClassicalKeyProtocol(kf if method == "affine" else table_twin(kf))
    _, _, key, state = intercepted_run(proto, rng)
    tampered = [
        replace(state, alphas=(state.alphas[0] ^ 1,) + state.alphas[1:]),
        replace(state, betas=state.betas[:3] + (state.betas[3] ^ 4,) + state.betas[4:]),
        # the same shift on every probe, by an odd-parity vector: consistent
        # across probes, but outside the image of the key map
        replace(state, alphas=tuple(a ^ 1 for a in state.alphas)),
        replace(state, betas=tuple(b ^ 7 for b in state.betas)),
    ]
    for bad in tampered:
        with pytest.raises(AssertionError, match="real run"):
            eve_offline(proto, bad, rng)
    assert eve_offline(proto, state, rng) == key
    assert state.method == method


def per_trial_attack(proto, trials, rng):
    """``attack_success_rate``'s per-trial loop: (r*_a, r*_b, guess, key) per trial."""
    out = []
    for _ in range(trials):
        r_a, r_b, key, state = intercepted_run(proto, rng)
        guess = eve_offline(proto, state, rng)
        out.append((state.r_star_a, state.r_star_b, guess, key))
    return out


def blocked_attack(proto, trials, rng):
    """The same trials through ``_attack_block``, TRIAL_BLOCK at a time."""
    out = []
    for start in range(0, trials, nogo.TRIAL_BLOCK):
        keys, guesses, r_star_a, r_star_b = nogo._attack_block(
            proto, min(nogo.TRIAL_BLOCK, trials - start), rng)
        out += zip(*(nogo._join_words(c) for c in (r_star_a, r_star_b, guesses, keys)))
    return out


@st.composite
def block_cases(draw):
    r = draw(st.integers(1, 80))
    m = draw(st.integers(1, r))
    # columns from the span of at most m vectors: rank-deficient maps too
    basis = draw(st.lists(st.integers(0, 2**m - 1), min_size=0, max_size=m))
    const = draw(st.integers(0, 2**m - 1))
    probes = draw(st.one_of(st.none(), st.integers(1, 6)))
    return r, m, basis, const, probes, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 130))


@settings(max_examples=100, deadline=None)
@given(block_cases())
def test_attack_blocks_match_per_trial_calls(case):
    r, m, basis, const, probes, seed, trials = case
    rng = np.random.default_rng(seed)

    def column():
        c = 0
        for v, pick in zip(basis, rng.integers(0, 2, size=len(basis))):
            c ^= v * int(pick)
        return c

    cols_a = [column() for _ in range(r)]
    cols_b = [column() for _ in range(r)]
    proto = ClassicalKeyProtocol(affine_key_function(r, m, cols_a, cols_b, const), t_samples=probes)
    loop_rng, block_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    by_loop = per_trial_attack(proto, trials, loop_rng)
    by_block = blocked_attack(proto, trials, block_rng)
    assert by_block == by_loop
    assert all(guess == key for _, _, guess, key in by_block)
    assert block_rng.bit_generator.state == loop_rng.bit_generator.state
    res = attack_success_rate(proto, trials, np.random.default_rng(seed + 1))
    assert res.rate == 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 32), min_size=1, max_size=40), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_one_draw_call_is_the_scalar_draws(exponents, rows, seed):
    # the attack blocks rest on numpy drawing an array of power-of-two bounds
    # up to 2^32 element by element, with no rejection; if a numpy release
    # changes that, this fails before the golden rates do
    bounds = [1 << e for e in exponents]
    batch, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    values = batch.integers(0, np.broadcast_to(bounds, (rows, len(bounds))))
    assert values.ravel().tolist() == [int(scalar.integers(0, b)) for _ in range(rows) for b in bounds]
    assert batch.bit_generator.state == scalar.bit_generator.state


def block_outcomes(kf, trials, rng):
    """A block's left-side probe outcomes as bits, with the coins behind them."""
    coins = nogo._draw_words(rng, kf.r, trials * 4).reshape(trials, 4, -1)
    r_a = nogo._draw_words(rng, kf.r, trials)
    own = nogo._parity_bits(kf.echelon_a.words, r_a) ^ nogo._int_bits([kf.const], kf.m)
    return own[:, None] ^ nogo._parity_bits(kf.echelon_b.words, coins), coins, r_a


def test_block_checks_reject_tampered_trials():
    rng = np.random.default_rng(57)
    kf = rank2_key_function(rng)
    outcomes, coins, r_a = block_outcomes(kf, 9, rng)
    y = nogo._probe_rhs(kf, kf.echelon_a, kf.echelon_b, outcomes, coins)
    assert nogo._join_words(y) == [nogo._parities(kf.rows_a, x) for x in nogo._join_words(r_a)]
    inconsistent, outside = outcomes.copy(), outcomes.copy()
    inconsistent[4, 2, 1] ^= 1
    outside[7, :, 0] ^= 1  # every probe of one trial, by an odd-parity vector
    for bad in (inconsistent, outside):
        with pytest.raises(AssertionError, match="real run"):
            nogo._probe_rhs(kf, kf.echelon_a, kf.echelon_b, bad, coins)


def test_offline_rejects_outcomes_wider_than_the_key():
    rng = np.random.default_rng(58)
    proto = ClassicalKeyProtocol(rank2_key_function(rng))
    _, _, key, state = intercepted_run(proto, rng)
    for bad in (replace(state, alphas=tuple(a | 8 for a in state.alphas)),
                replace(state, betas=state.betas[:-1] + (state.betas[-1] | 16,))):
        with pytest.raises(AssertionError, match="real run"):
            eve_offline(proto, bad, rng)
    assert eve_offline(proto, state, rng) == key


def span_column(basis, picks):
    """The xor of the basis vectors that ``picks`` selects."""
    c = 0
    for v, pick in zip(basis, picks):
        c ^= v * pick
    return c


@st.composite
def readout_cases(draw):
    r = draw(st.integers(1, 80))
    m = draw(st.integers(1, min(r, 8)))
    # columns from the span of at most m vectors: rank-deficient maps too
    basis = draw(st.lists(st.integers(0, 2**m - 1), max_size=m))
    return r, m, basis, draw(st.integers(1, 20)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@example((80, 5, [3, 17, 30], 12, 80))  # three words per coin, rank 3 of 5
@given(readout_cases())
def test_readouts_match_key_values(case):
    r, m, basis, count, seed = case
    rng = np.random.default_rng(seed)
    cols_a, cols_b = ([span_column(basis, p) for p in side]
                      for side in rng.integers(0, 2, size=(2, r, len(basis))).tolist())
    kf = affine_key_function(r, m, cols_a, cols_b, const=int(rng.integers(0, 2**m)))
    hidden = nogo._draw_words(rng, r, 2)
    coins = nogo._draw_words(rng, r, 2 * count).reshape(2, count, -1)
    (ra, rb), others = nogo._join_words(hidden), [nogo._join_words(c) for c in coins]
    expected = {"A": [kf.value(ra, c) for c in others[0]],
                "B": [kf.value(c, rb) for c in others[1]]}
    for party, h, c in (("A", hidden[:1], coins[0]), ("B", hidden[1:], coins[1])):
        bits = nogo._readouts(kf, party, h, c)
        assert bits.shape == (count, m)
        assert nogo._join_words(nogo._pack_bits(bits)) == expected[party]
    # one hidden coin per row, as the block reads honest keys and guesses
    assert nogo._join_words(nogo._pack_bits(nogo._readouts(kf, "A", hidden[:1], hidden[1:]))) \
        == [kf.value(ra, rb)]
