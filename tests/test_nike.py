import numpy as np
import pytest

from moeqkd.hashing import uh_eval
from moeqkd.nike import (
    IDENTITY_A,
    IDENTITY_B,
    TOY_DH_SECRET_BITS,
    BasisHidden,
    BrokenNike,
    IdealNike,
    NoExactRoute,
    ToyDhNike,
    ZSample,
    discrete_log,
    enumerate_z,
    recover_theta,
    sample_z,
    theta_of_public,
)


def nike_correctness_rate(scheme, trials: int, rng: np.random.Generator) -> float:
    """Fraction of fresh runs where both directions derive the same non-None key."""
    if trials < 1:
        raise ValueError("trials must be positive")
    good = 0
    for _ in range(trials):
        pp = scheme.setup(rng)
        sk_a, pk_a = scheme.gen(pp, IDENTITY_A, rng)
        sk_b, pk_b = scheme.gen(pp, IDENTITY_B, rng)
        ka = scheme.sdk(IDENTITY_B, pk_b, IDENTITY_A, sk_a)
        kb = scheme.sdk(IDENTITY_A, pk_a, IDENTITY_B, sk_b)
        if ka is not None and ka == kb:
            good += 1
    return good / trials


ALL_SCHEMES = [lambda n: IdealNike(n), lambda n: ToyDhNike(n), lambda n: BrokenNike(n)]


@pytest.mark.parametrize("make", ALL_SCHEMES)
def test_correctness_rate_is_one(make):
    scheme = make(4)
    rng = np.random.default_rng(7)
    assert nike_correctness_rate(scheme, 200, rng) == 1.0


@pytest.mark.parametrize("make", ALL_SCHEMES)
def test_same_identity_yields_no_key(make):
    scheme = make(3)
    rng = np.random.default_rng(8)
    pp = scheme.setup(rng)
    sk, pk = scheme.gen(pp, IDENTITY_A, rng)
    assert scheme.sdk(IDENTITY_A, pk, IDENTITY_A, sk) is None


@pytest.mark.parametrize("make", ALL_SCHEMES)
def test_derivation_is_deterministic(make):
    scheme = make(4)
    rng = np.random.default_rng(9)
    pp = scheme.setup(rng)
    sk_a, pk_a = scheme.gen(pp, IDENTITY_A, rng)
    sk_b, pk_b = scheme.gen(pp, IDENTITY_B, rng)
    first = scheme.sdk(IDENTITY_B, pk_b, IDENTITY_A, sk_a)
    for _ in range(5):
        assert scheme.sdk(IDENTITY_B, pk_b, IDENTITY_A, sk_a) == first
    assert scheme.sdk(IDENTITY_A, pk_a, IDENTITY_B, sk_b) == first
    assert first is not None and len(first) == 4


@pytest.mark.parametrize("make", ALL_SCHEMES)
def test_sample_z_reproducible_from_seed(make):
    a = sample_z(make(2), np.random.default_rng(12345))
    b = sample_z(make(2), np.random.default_rng(12345))
    assert a == b and isinstance(a, ZSample)


def test_ideal_theta_uniform_chi_square():
    scheme = IdealNike(2)
    rng = np.random.default_rng(31)
    counts = [0, 0, 0, 0]
    trials = 4000
    for _ in range(trials):
        z = sample_z(scheme, rng)
        counts[z.theta[0] * 2 + z.theta[1]] += 1
    expected = trials / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 16.27  # df=3 at the 0.001 level


def test_ideal_public_tuple_is_opaque():
    scheme = IdealNike(2)
    rng = np.random.default_rng(32)
    z = sample_z(scheme, rng)
    pp, pk_a, pk_b = z.p
    assert pp[0] == "ideal" and isinstance(pp[2], str)
    assert isinstance(pk_a, str) and isinstance(pk_b, str)
    # a second instance holding no master secret cannot derive from the same publics
    other = IdealNike(2)
    sk_fake = (pp, pk_a)
    with pytest.raises(ValueError, match="unknown public parameters"):
        other.sdk(IDENTITY_B, pk_b, IDENTITY_A, sk_fake)


def test_ideal_masters_stay_within_cap():
    scheme = IdealNike(3)
    rng = np.random.default_rng(33)
    first = scheme.setup(rng)
    for _ in range(10_000):
        pp = scheme.setup(rng)
        assert len(scheme._masters) <= IdealNike.MAX_MASTERS
    sk_a, pk_a = scheme.gen(pp, IDENTITY_A, rng)
    sk_b, pk_b = scheme.gen(pp, IDENTITY_B, rng)
    theta = scheme.sdk(IDENTITY_B, pk_b, IDENTITY_A, sk_a)
    assert theta is not None and theta == scheme.sdk(IDENTITY_A, pk_a, IDENTITY_B, sk_b)
    with pytest.raises(ValueError, match="unknown public parameters"):
        scheme.gen(first, IDENTITY_A, rng)
    # a secret key made under an evicted handle fails the same way in sdk
    with pytest.raises(ValueError, match="unknown public parameters"):
        scheme.sdk(IDENTITY_B, pk_b, IDENTITY_A, (first, pk_a))


def test_ideal_setup_draw_is_the_two_token_draws():
    # setup takes handle and master from one 48-value draw; numpy must give
    # the 16-value handle draw followed by the 32-value master draw
    for seed in range(200):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        scheme = IdealNike(2)
        handle = scheme.setup(rng)[2]
        assert handle == oracle.integers(0, 256, size=16).astype(np.uint8).tobytes().hex()
        assert scheme._masters == {handle: oracle.integers(0, 256, size=32).astype(np.uint8).tobytes()}
        assert rng.bit_generator.state == oracle.bit_generator.state


def test_toydh_theta_recomputable_from_logged_randomness():
    scheme = ToyDhNike(3)
    seed = 555
    z = sample_z(scheme, np.random.default_rng(seed))
    # replay the same draws by hand
    rng = np.random.default_rng(seed)
    pp = scheme.setup(rng)
    (_, x_a), pk_a = scheme.gen(pp, IDENTITY_A, rng)
    (_, x_b), pk_b = scheme.gen(pp, IDENTITY_B, rng)
    _, n, prime, g, a, b = pp
    assert pk_a == pow(g, x_a, prime) and pk_b == pow(g, x_b, prime)
    secret = pow(g, x_a * x_b, prime)
    manual = uh_eval(TOY_DH_SECRET_BITS, n, (a, b), secret)
    assert z.theta == tuple(int(c) for c in format(manual, f"0{n}b"))


def test_discrete_log_known_values():
    assert discrete_log(101, 2, pow(2, 13, 101)) == 13
    assert discrete_log(101, 2, 2) == 1
    with pytest.raises(ValueError):
        discrete_log(101, 2, 0)
    with pytest.raises(ValueError):
        discrete_log(1 << 21, 3, 5)


def test_break_toy_dh_round_trip():
    scheme = ToyDhNike(2)
    rng = np.random.default_rng(64)
    for _ in range(100):
        z = sample_z(scheme, rng)
        assert recover_theta(z.p) == z.theta


def test_break_toy_dh_rejects_foreign_tuples():
    rng = np.random.default_rng(65)
    z = sample_z(IdealNike(2), rng)
    with pytest.raises(ValueError):
        recover_theta(z.p)
    with pytest.raises(ValueError, match="prime too large"):
        recover_theta((("toydh", 2, (1 << 20) + 7, 3, 1, 0), 3, 9))


def test_ideal_tuples_refuse_recovery_before_any_draw():
    rng = np.random.default_rng(68)
    for n in (1, 4):
        p = sample_z(IdealNike(n), rng).p
        state = rng.bit_generator.state
        for read in (theta_of_public, recover_theta):
            with pytest.raises(BasisHidden, match="basis"):
                read(p)
        assert rng.bit_generator.state == state


def test_broken_scheme_exposes_theta():
    scheme = BrokenNike(3)
    rng = np.random.default_rng(66)
    z = sample_z(scheme, rng)
    assert theta_of_public(z.p) == recover_theta(z.p) == z.theta
    with pytest.raises(BasisHidden):
        theta_of_public(sample_z(IdealNike(2), rng).p)
    with pytest.raises(BasisHidden):
        theta_of_public(sample_z(ToyDhNike(2), rng).p)


def test_enumerate_z_ideal():
    rng = np.random.default_rng(70)
    entries = enumerate_z(IdealNike(2), rng)
    assert len(entries) == 4
    assert abs(sum(w for _, w in entries) - 1.0) < 1e-12
    thetas = {z.theta for z, _ in entries}
    assert thetas == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # theta varies while the public tuple stays fixed
    assert len({z.p for z, _ in entries}) == 1


def test_enumerate_z_broken():
    rng = np.random.default_rng(71)
    entries = enumerate_z(BrokenNike(2), rng)
    assert len(entries) == 4
    for z, w in entries:
        assert w == 0.25
        assert theta_of_public(z.p) == z.theta
    assert len({z.p for z, _ in entries}) == 4


def test_enumerate_z_limits():
    rng = np.random.default_rng(72)
    with pytest.raises(NoExactRoute, match="scheme 'toydh' is not enumerable"):
        enumerate_z(ToyDhNike(2), rng)
    with pytest.raises(NoExactRoute, match="enumeration is limited to n <= 4"):
        enumerate_z(IdealNike(5), rng)


def test_key_length_bounds():
    with pytest.raises(ValueError):
        IdealNike(0)
    with pytest.raises(ValueError):
        ToyDhNike(18)
    with pytest.raises(ValueError):
        BrokenNike(21)
