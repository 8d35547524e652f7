from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeqkd.game import (
    GameResult,
    _averaged_agreement_m1,
    Strategy,
    basis_reading_strategy,
    decomposition_terms,
    distinguisher_advantage,
    exact_pwin,
    honest_strategy,
    intercept_resend_strategy,
    random_strategy,
    sampled_pwin,
    verify_fixed_theta_bound,
    verify_random_theta_bound,
)
from moeqkd.nike import BrokenNike, IdealNike, ToyDhNike
from moeqkd.quantum import (
    epr_block_state,
    haar_state,
    int_to_bits,
    random_density_operator,
    random_povm,
    theta_basis_state,
    theta_unitary,
)


def test_exact_honest_quarter():
    res = exact_pwin(IdealNike(2), honest_strategy(2), 2)
    assert abs(res.pwin - 0.25) <= 1e-9
    assert abs(res.agree_rate - 1.0) <= 1e-9


def test_exact_intercept_resend_quarter():
    res = exact_pwin(IdealNike(2), intercept_resend_strategy(2), 2)
    assert abs(res.pwin - 0.25) <= 1e-9
    assert abs(res.agree_rate - 0.25) <= 1e-9


def test_exact_basis_reading_wins_against_broken_scheme():
    res = exact_pwin(BrokenNike(2), basis_reading_strategy(2), 2)
    assert abs(res.pwin - 1.0) <= 1e-9
    assert abs(res.agree_rate - 1.0) <= 1e-9


def test_basis_reading_cannot_run_blind():
    with pytest.raises(ValueError):
        exact_pwin(IdealNike(2), basis_reading_strategy(2), 2)


def test_exact_builtins_at_n4_stay_at_two_to_minus_n():
    for make in (honest_strategy, intercept_resend_strategy):
        res = exact_pwin(IdealNike(4), make(4), 4)
        assert abs(res.pwin - 2.0**-4) <= 1e-9


def test_exact_requires_enumerable_scheme():
    with pytest.raises(ValueError):
        exact_pwin(ToyDhNike(2), honest_strategy(2), 2)


def test_sampled_matches_exact_honest():
    res = sampled_pwin(IdealNike(2), honest_strategy(2), 2, 3000, np.random.default_rng(2))
    assert abs(res.pwin - 0.25) <= 3 * res.stderr
    assert res.agree_rate == 1.0


def test_sampled_intercept_at_n4():
    res = sampled_pwin(IdealNike(4), intercept_resend_strategy(4), 4, 4000, np.random.default_rng(3))
    assert abs(res.pwin - 1 / 16) <= 3 * res.stderr + 1e-12


def test_sampled_broken_scheme_basis_reading():
    res = sampled_pwin(BrokenNike(2), basis_reading_strategy(2), 2, 500, np.random.default_rng(4))
    assert res.pwin == 1.0 and res.agree_rate == 1.0


def test_win_is_subevent_of_agreement_for_random_strategies():
    rng = np.random.default_rng(5)
    for _ in range(5):
        strat = random_strategy(2, int(rng.integers(0, 3)), rng)
        res = exact_pwin(IdealNike(2), strat, 2)
        assert res.pwin <= res.agree_rate + 1e-12
        samp = sampled_pwin(IdealNike(2), strat, 2, 300, rng)
        assert samp.pwin <= samp.agree_rate


def test_sampled_rejects_non_psd_povm():
    # sums to the identity, but the first element has eigenvalue -0.5
    bad = [np.diag([1.5, 0.0]).astype(np.complex128), np.diag([-0.5, 1.0]).astype(np.complex128)]
    psi = np.kron(epr_block_state(1), [1.0, 0.0])
    strat = Strategy("non_psd", 1, 1, lambda p: psi, lambda theta: bad)
    with pytest.raises(ValueError, match="positive semidefinite"):
        sampled_pwin(IdealNike(1), strat, 1, 20, np.random.default_rng(0))


def test_sampled_rejects_unnormalized_prep():
    strat = replace(honest_strategy(1), prep=lambda p: 2 * epr_block_state(1))
    with pytest.raises(ValueError, match="not normalized"):
        sampled_pwin(IdealNike(1), strat, 1, 20, np.random.default_rng(0))


def test_sampled_builds_each_povm_once_per_theta():
    calls = []
    base = intercept_resend_strategy(2)

    def counting_povm(theta):
        calls.append(theta)
        return base.charlie_povm(theta)

    sampled_pwin(IdealNike(2), replace(base, charlie_povm=counting_povm), 2, 200,
                 np.random.default_rng(6))
    assert len(calls) == len(set(calls)) <= 2**2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.sampled_from([1, 2, 4, 8, 16]), st.integers(0, 2**32 - 1))
def test_agreement_diagonal_matches_joint_contraction_bitwise(n, c_dim, seed):
    # exact_pwin contracts only the diagonal; its values stay those of the joint einsum
    rng = np.random.default_rng(seed)
    d = 2**n
    theta = tuple(int(b) for b in rng.integers(0, 2, size=n))
    uc = theta_unitary(theta).conj()
    t = haar_state(d * d * c_dim, rng).reshape(d, d, c_dim)
    joint = np.einsum("ai,bj,ijc->abc", uc, uc, t)
    diag = np.einsum("ki,kj,ijc->kc", uc, uc, t)
    assert np.array_equal(diag, np.einsum("kkc->kc", joint))


def test_game_result_rejects_win_above_agreement():
    with pytest.raises(ValueError):
        GameResult(pwin=0.5, agree_rate=0.25)


def test_charlie_register_cap():
    with pytest.raises(ValueError):
        Strategy("too_big", 2, 5, lambda p: None, lambda t: [])


def test_random_theta_bound_on_epr_is_zero():
    for n, s in [(2, 1), (2, 2), (3, 1)]:
        psi = epr_block_state(n)
        value, bound, ok = verify_random_theta_bound(np.outer(psi, psi.conj()), s)
        assert ok and abs(value) <= 1e-9
        assert abs(bound - 2.0 ** -(n // s)) <= 1e-15


def test_random_theta_bound_on_maximally_mixed():
    value, bound, ok = verify_random_theta_bound(np.eye(16) / 16, 1)
    assert ok and bound == 0.25
    # per pair: agreement mass 1/2 of which half survives the entangled-part cut
    assert abs(value - 1 / 16) <= 1e-12


def test_averaged_agreement_operator_is_cached_read_only():
    avg = _averaged_agreement_m1(2, 1)
    assert _averaged_agreement_m1(2, 1) is avg
    with pytest.raises(ValueError, match="read-only"):
        avg[0, 0] = 1.0


def test_random_theta_bound_is_tight():
    # E_theta tr(P_theta M1 rho) is linear in rho, so the worst state is the top
    # eigenvector of the averaged operator; its value meets the ceiling to an ulp
    for n in range(1, 5):
        for s in [s for s in range(1, n + 1) if n % s == 0]:
            vals, vecs = np.linalg.eigh(_averaged_agreement_m1(n, s))
            worst = np.outer(vecs[:, -1], vecs[:, -1].conj())
            value, bound, ok = verify_random_theta_bound(worst, s)
            assert abs(vals[-1] - bound) <= np.spacing(bound), (n, s, vals[-1], bound)
            assert ok and abs(value - vals[-1]) <= 1e-12


def test_random_theta_bound_random_states():
    rng = np.random.default_rng(6)
    for n, s in [(2, 1), (2, 2), (3, 1), (3, 3)]:
        for _ in range(25):
            rho = random_density_operator(4**n, rng)
            value, bound, ok = verify_random_theta_bound(rho, s)
            assert ok, (n, s, value, bound)


def test_fixed_theta_bound_random_instances():
    rng = np.random.default_rng(7)
    for n, s, e_dim in [(1, 1, 2), (2, 1, 4), (2, 2, 2), (3, 3, 2)]:
        for _ in range(15):
            rho = random_density_operator(4**n * e_dim, rng)
            povm = random_povm(e_dim, 2**n, rng)
            theta = tuple(int(b) for b in rng.integers(0, 2, size=n))
            value, bound, ok = verify_fixed_theta_bound(rho, povm, theta, s)
            assert ok, (n, s, value, bound)
            assert abs(bound - np.sqrt((n / s) / 2**s)) <= 1e-15


def test_fixed_theta_bound_single_key_povm():
    # all POVM mass on one key: the sum collapses to a single agreement term
    rng = np.random.default_rng(8)
    n, s = 2, 1
    e_dim = 2
    povm = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
    povm[3] = np.eye(2, dtype=complex)
    rho = random_density_operator(4**n * e_dim, rng)
    value, bound, ok = verify_fixed_theta_bound(rho, povm, (0, 1), s)
    assert ok and 0 <= value <= 1


def test_fixed_theta_bound_rejects_bad_povm():
    rho = random_density_operator(8, np.random.default_rng(9))
    bad = [np.eye(2, dtype=complex)] * 2
    with pytest.raises(ValueError):
        verify_fixed_theta_bound(rho, bad, (0,), 1)


def test_decomposition_honest_state():
    n = 2
    psi = epr_block_state(n)
    povm = [np.array([[0.25]], dtype=complex) for _ in range(4)]
    for theta in [(0, 0), (0, 1), (1, 1)]:
        t1, t2, t3 = decomposition_terms(psi, None, theta, 1, povm)
        assert abs(t2) <= 1e-9  # entangled part carries no weight
        assert abs(t3) <= 1e-9  # outcomes always agree
        assert abs(t1 - 0.25) <= 1e-9


def test_decomposition_intercept_state():
    strat = intercept_resend_strategy(2)
    psi = strat.prep(None)
    theta = (1, 0)
    t1, t2, t3 = decomposition_terms(psi, None, theta, 1, strat.charlie_povm)
    # agreement is rare for this state, so the resampled branch dominates
    assert t3 > t1 and t3 > t2
    assert t3 <= 0.25 + 1e-9


def test_decomposition_random_states_sum_check():
    rng = np.random.default_rng(10)
    for n in (2, 3):
        for _ in range(5):
            strat = random_strategy(n, 1, rng)
            theta = tuple(int(b) for b in rng.integers(0, 2, size=n))
            psi = strat.prep(None)
            # internal assertions cover the sum identity and both term caps
            t1, t2, t3 = decomposition_terms(psi, None, theta, n, strat.charlie_povm)
            assert min(t1, t2, t3) >= -1e-12


def test_distinguisher_flat_for_blind_preparations():
    rng = np.random.default_rng(11)
    assert distinguisher_advantage(IdealNike(2), honest_strategy(2), 2, 1500, rng) <= 0.05
    assert distinguisher_advantage(ToyDhNike(2), honest_strategy(2), 2, 1500, rng) <= 0.05


def test_distinguisher_sees_broken_scheme():
    rng = np.random.default_rng(12)
    adv = distinguisher_advantage(BrokenNike(2), basis_reading_strategy(2), 2, 2000, rng)
    # expected bias 2^-n (1 - 2^-n) = 3/16
    assert adv >= 0.1
