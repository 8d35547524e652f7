"""Field arithmetic, exact universality counts, extraction, digest hashing."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeqkd import hashing as hx


def test_reduction_polynomials_are_irreducible():
    # independent check via sympy's GF(2) factorization machinery
    from sympy import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    for n, poly in hx.REDUCTION_POLY.items():
        assert poly >> n == 1, f"degree mismatch at n={n}"
        coeffs = [ZZ((poly >> i) & 1) for i in range(n, -1, -1)]
        assert gf_irreducible_p(coeffs, 2, ZZ), f"reducible polynomial at n={n}"


def test_gf_mul_known_values():
    # GF(4): x * x = x + 1
    assert hx.gf_mul(2, 0b10, 0b10) == 0b11
    # GF(2^8) with the 0x11B polynomial: {57} * {83} = {C1}
    assert hx.gf_mul(8, 0x57, 0x83) == 0xC1
    # multiplying by 1 is the identity; by 0 annihilates
    assert hx.gf_mul(8, 0xAB, 1) == 0xAB
    assert hx.gf_mul(8, 0xAB, 0) == 0


def clmul_reduce(n, a, b):
    """Reference product: carry-less multiply, then cancel the bits above
    x^(n-1) from the top down with shifted copies of the polynomial."""
    poly, p = hx.REDUCTION_POLY[n], 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            p ^= a << i
    for i in range(p.bit_length() - 1, n - 1, -1):
        if p >> i & 1:
            p ^= poly << (i - n)
    return p


@pytest.mark.parametrize("n", sorted(hx.REDUCTION_POLY))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_gf_mul_matches_carry_less_reference(n, data):
    element = st.integers(0, 2**n - 1)
    a, b = data.draw(element, label="a"), data.draw(element, label="b")
    assert hx.gf_mul(n, a, b) == clmul_reduce(n, a, b)
    # the doubling kernel's terms are the products with the unit elements
    powers = hx.gf_powers(n, a, n)
    assert powers == [hx.gf_mul(n, a, 1 << i) for i in range(n)]
    assert powers == [clmul_reduce(n, a, 1 << i) for i in range(n)]


def test_gf_powers_keep_doubling_and_check_their_inputs():
    # x^i for i < 2n: past x^(n-1) each term is the reduced previous one
    powers = hx.gf_powers(8, 1, 16)
    assert powers[:8] == [1 << i for i in range(8)]
    assert powers[8:] == [clmul_reduce(8, 1, 1 << i) for i in range(8, 16)]
    assert hx.gf_powers(128, 3, 0) == []
    with pytest.raises(ValueError, match="no reduction polynomial"):
        hx.gf_powers(33, 1, 4)
    with pytest.raises(ValueError, match="a=16"):
        hx.gf_powers(4, 16, 4)
    # gf_mul checks the field, then a, then b
    with pytest.raises(ValueError, match="no reduction polynomial"):
        hx.gf_mul(33, 1 << 40, 1 << 40)
    with pytest.raises(ValueError, match="a=16"):
        hx.gf_mul(4, 16, 16)
    with pytest.raises(ValueError, match="b=16"):
        hx.gf_mul(4, 15, 16)


def test_gf_field_axioms_randomized():
    rng = np.random.default_rng(101)
    for n in (3, 8, 17):
        top = 1 << n
        for _ in range(40):
            a, b, c = (int(v) for v in rng.integers(0, top, 3))
            assert hx.gf_mul(n, a, b) == hx.gf_mul(n, b, a)
            assert hx.gf_mul(n, a, hx.gf_mul(n, b, c)) == hx.gf_mul(n, hx.gf_mul(n, a, b), c)
            assert hx.gf_mul(n, a, b ^ c) == hx.gf_mul(n, a, b) ^ hx.gf_mul(n, a, c)


def test_gf_nonzero_elements_invertible():
    # a * x spans the field exactly once for a != 0 (needed for universality)
    for n in (2, 3, 4):
        for a in range(1, 1 << n):
            seen = {hx.gf_mul(n, a, x) for x in range(1 << n)}
            assert seen == set(range(1 << n))


def test_uh_eval_truncates_most_significant_bits():
    # with a = 1, b = 0 the hash is the plain top-bit projection of x
    for x in range(16):
        assert hx.uh_eval(4, 2, (1, 0), x) == x >> 2
    # the offset b shifts the output by its own top bits
    assert hx.uh_eval(4, 2, (1, 0b1000), 0) == 0b10
    with pytest.raises(ValueError):
        hx.uh_eval(4, 5, (1, 0), 0)
    with pytest.raises(ValueError):
        hx.uh_eval(4, 2, (1, 0), 16)


def test_uh_sample_seed_draws_elements_of_fields_up_to_62_bits():
    rng = np.random.default_rng(8)
    for n in (1, 17, 48):
        a, b = hx.uh_sample_seed(n, rng)
        assert 0 <= a < 1 << n and 0 <= b < 1 << n
    with pytest.raises(ValueError):
        hx.uh_sample_seed(63, rng)
    with pytest.raises(ValueError, match="62 bits"):  # a field, but wider than one draw
        hx.uh_sample_seed(64, rng)


def test_collision_probability_matches_full_brute_force():
    # enumerate the whole (a, b) seed space at n <= 3 and compare
    for n in (2, 3):
        for ell in range(1, n + 1):
            for x in range(1 << n):
                for y in range(x + 1, 1 << n):
                    hits = sum(
                        hx.uh_eval(n, ell, (a, b), x) == hx.uh_eval(n, ell, (a, b), y)
                        for a in range(1 << n)
                        for b in range(1 << n)
                    )
                    frac = hx.uh_collision_probability(n, ell, x, y)
                    assert frac == Fraction(hits, 1 << (2 * n))
                    assert frac == Fraction(1, 1 << ell)


def test_collision_probability_spec_point():
    # n=4, ell=2: every distinct pair collides under exactly 64 of the 256 seeds
    hits = sum(
        hx.uh_eval(4, 2, (a, b), 3) == hx.uh_eval(4, 2, (a, b), 12)
        for a in range(16)
        for b in range(16)
    )
    assert hits == 64
    assert hx.uh_collision_probability(4, 2, 3, 12) == Fraction(1, 4)


def test_collision_probability_exact_all_pairs_small_n():
    for n in (4, 5):
        pairs = 0
        for ell in range(1, n + 1):
            for x in range(1 << n):
                for y in range(x + 1, 1 << n):
                    assert hx.uh_collision_probability(n, ell, x, y) == Fraction(1, 1 << ell)
                    pairs += 1
        assert pairs == n * comb(1 << n, 2)


def test_gf_mul_table_matches_gf_mul():
    for n in range(1, hx.MAX_DISTANCE_BITS + 1):
        table = hx.gf_mul_table(n)
        assert table.shape == (1 << n, 1 << n)
        expected = [[hx.gf_mul(n, a, z) for z in range(1 << n)] for a in range(1 << n)]
        assert table.tolist() == expected
        assert hx.gf_mul_table(n) is table
        with pytest.raises(ValueError):
            table[1, 1] = 0
    assert hx.gf_mul_table(3)[5, 6] == hx.gf_mul(3, 5, 6)
    with pytest.raises(ValueError):
        hx.gf_mul_table(hx.MAX_DISTANCE_BITS + 1)
    with pytest.raises(ValueError):
        hx.gf_mul_table(33)


def test_product_column_above_the_table_matches_gf_mul():
    # n = 9..16 counts collisions from one column a*z, built by the same step
    rng = np.random.default_rng(1616)
    for n in range(hx.MAX_DISTANCE_BITS + 1, hx.MAX_COLLISION_BITS + 1):
        for z in [1, (1 << n) - 1] + [int(v) for v in rng.integers(2, 1 << n, 3)]:
            column = hx._products_with_all_a(n, z)
            assert column.shape == (1 << n,)
            sample = [0, 1, (1 << n) - 1] + [int(a) for a in rng.integers(0, 1 << n, 200)]
            assert [int(column[a]) for a in sample] == [hx.gf_mul(n, a, z) for a in sample]
        x, y = (int(v) for v in rng.choice(1 << n, 2, replace=False))
        for ell in (1, n // 2, n):
            assert hx.uh_collision_probability(n, ell, x, y) == Fraction(1, 1 << ell)


def test_collision_probability_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hx.uh_collision_probability(4, 1, 5, 5)
    with pytest.raises(ValueError):
        hx.uh_collision_probability(12, 3, 7, 7)
    with pytest.raises(ValueError):
        hx.uh_collision_probability(17, 1, 0, 1)
    for n in (4, 12):
        for ell in (0, n + 1):
            with pytest.raises(ValueError):
                hx.uh_collision_probability(n, ell, 0, 1)
    with pytest.raises(ValueError):
        hx.uh_collision_probability(4, 1, 0, 16)


def test_extractor_spec_validation():
    hx.ExtractorSpec(8, 2, 8.0, 2 ** -3)
    with pytest.raises(ValueError):
        hx.ExtractorSpec(8, 2, 7.9, 2 ** -3)  # needs 2 + 6 = 8 bits
    with pytest.raises(ValueError):
        hx.ExtractorSpec(8, 9, 20.0, 0.125)
    with pytest.raises(ValueError):
        hx.ExtractorSpec(8, 2, 8.0, 1.5)


def _flat_source(n, support):
    probs = np.zeros(1 << n)
    probs[list(support)] = 1.0 / len(support)
    states = [np.eye(1)] * (1 << n)
    return probs, states


def test_extractor_distance_flat_sources_meet_bound():
    # uniform-on-subset sources with min-entropy k: distance <= 2^-((k-ell)/2)
    rng = np.random.default_rng(7)
    n = 6
    for k in (3, 4, 5):
        for ell in range(1, k - 1):
            eps = 2.0 ** (-(k - ell) / 2.0)
            spec = hx.ExtractorSpec(n, ell, float(k), eps)
            support = rng.choice(1 << n, size=1 << k, replace=False)
            probs, states = _flat_source(n, support)
            d = hx.extractor_distance(spec, probs, states)
            assert d <= eps + 1e-12, (k, ell, d, eps)


def test_extractor_distance_with_classical_side_information():
    # Eve learns the top source bit; conditional min-entropy is n - 1
    n, ell = 5, 2
    k = n - 1
    eps = 2.0 ** (-(k - ell) / 2.0)
    spec = hx.ExtractorSpec(n, ell, float(k), eps)
    probs = np.full(1 << n, 1.0 / (1 << n))
    states = []
    for x in range(1 << n):
        e = np.zeros((2, 2), dtype=complex)
        e[x >> (n - 1), x >> (n - 1)] = 1.0
        states.append(e)
    d = hx.extractor_distance(spec, probs, states)
    assert d <= eps + 1e-12
    assert d > 0.0


def test_extractor_distance_rejects_bad_inputs():
    spec = hx.ExtractorSpec(4, 1, 4.0, 2 ** -1.5)
    with pytest.raises(ValueError):
        hx.extractor_distance(spec, np.ones(16), [np.eye(1)] * 16)
    big = hx.ExtractorSpec(10, 1, 10.0, 2 ** -4)
    with pytest.raises(ValueError):
        hx.extractor_distance(big, np.full(1 << 10, 2.0 ** -10), [np.eye(1)] * (1 << 10))
    uniform = np.full(16, 1.0 / 16)
    qubit = np.eye(2) / 2
    bad_states = [
        [np.eye(1)] * 17,  # one state too many
        [np.eye(1)] * 15,  # one state too few
        [np.eye(1)] * 15 + [qubit],  # unequal shapes
        [np.ones((2, 3))] * 16,  # not square
        [np.ones(2)] * 16,  # not a matrix
    ]
    for states in bad_states:
        with pytest.raises(ValueError):
            hx.extractor_distance(spec, uniform, states)
    # states that ignore x leave only the a = 0 seed biased: 1/16 * 1/2
    assert hx.extractor_distance(spec, uniform, [qubit] * 16) == pytest.approx(1 / 32)


def test_cr_hash_basics():
    key = b"\x01" * 16
    d1 = hx.cr_hash(key, 12345, 16, 16)
    assert d1 == hx.cr_hash(key, 12345, 16, 16)
    assert 0 <= d1 < (1 << 16)
    assert d1 != hx.cr_hash(b"\x02" * 16, 12345, 16, 16)
    # different widths are genuinely different truncations of one digest
    assert hx.cr_hash(key, 7, 8, 4) == hx.cr_hash(key, 7, 8, 8) >> 4
    with pytest.raises(ValueError):
        hx.cr_hash(key, 256, 8, 4)


def test_hash_family_interfaces():
    rng = np.random.default_rng(13)
    cr = hx.CrHashFamily(4, 16)
    m = cr.sample(rng)
    assert 0 <= m.digest(9) < (1 << 16)
