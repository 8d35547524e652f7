import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moeqkd import entropy
from moeqkd.entropy import (
    ChainRuleResult,
    CqEnsemble,
    GuessBracket,
    _ascend,
    _dual_from_povm,
    _feasible_dual,
    _pgm,
    _positive_part_dual,
    _primal_value,
    _psd_pinv_sqrt,
    _repair_povm,
    _verify_certificates,
    chain_rule_check,
    helstrom_binary,
    hmin,
    pguess,
)
from moeqkd.harness import rng_substream
from moeqkd.quantum import assert_povm, haar_state, random_density_operator

KET0 = np.array([1.0, 0.0], dtype=np.complex128)
KETP = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2)


def proj(v):
    return np.outer(v, v.conj())


def test_orthogonal_states_are_perfectly_distinguishable():
    ens = CqEnsemble([0, 1], np.array([0.3, 0.7]), [proj(KET0), proj(np.array([0, 1], dtype=complex))])
    b = pguess(ens)
    assert b.converged
    assert b.lower >= 1.0 - 1e-9
    assert b.upper <= 1.0 + 1e-9


def test_identical_states_reduce_to_prior_maximum():
    rho = random_density_operator(4, np.random.default_rng(5))
    ens = CqEnsemble(["a", "b", "c"], np.array([0.5, 0.2, 0.3]), [rho, rho, rho])
    b = pguess(ens)
    assert b.converged
    assert abs(b.lower - 0.5) <= 1e-6
    assert abs(b.upper - 0.5) <= 1e-6


def test_trivial_side_information_gives_max_prob():
    one = np.array([[1.0]], dtype=complex)
    ens = CqEnsemble([0, 1, 2], np.array([0.2, 0.45, 0.35]), [one, one, one])
    b = pguess(ens)
    assert b.converged
    assert abs(b.upper - 0.45) <= 1e-6 and abs(b.lower - 0.45) <= 1e-6


def test_zero_plus_pair_matches_closed_form():
    # equal priors over |0> and |+>: optimum is (1 + 1/sqrt(2)) / 2
    expected = 0.8535533905932737
    ens = CqEnsemble([0, 1], np.array([0.5, 0.5]), [proj(KET0), proj(KETP)])
    b = pguess(ens)
    assert b.converged and b.gap <= 1e-6
    assert b.lower <= expected + 1e-9
    assert b.upper >= expected - 1e-9
    assert abs(0.5 * (b.lower + b.upper) - expected) <= 1e-6
    assert abs(helstrom_binary(0.5, proj(KET0), 0.5, proj(KETP)) - expected) <= 1e-12


def test_bracket_contains_helstrom_on_random_binary_ensembles():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = int(rng.integers(2, 9))
        p0 = float(rng.uniform(0.05, 0.95))
        rho0 = random_density_operator(d, rng)
        rho1 = random_density_operator(d, rng)
        h = helstrom_binary(p0, rho0, 1.0 - p0, rho1)
        b = pguess(CqEnsemble([0, 1], np.array([p0, 1.0 - p0]), [rho0, rho1]))
        assert b.converged and b.gap <= 1e-6
        assert b.lower <= h + 1e-9
        assert b.upper >= h - 1e-9


def test_certificates_reverify_outside_the_solver():
    rng = np.random.default_rng(23)
    states = [random_density_operator(8, rng, rank=2) for _ in range(4)]
    probs = rng.uniform(0.1, 1.0, size=4)
    probs /= probs.sum()
    ens = CqEnsemble(list(range(4)), probs, states)
    b = pguess(ens)
    assert b.converged and b.gap <= 1e-6
    assert_povm(b.povm, 8)
    for p, rho in zip(ens.probs, ens.states):
        gap_eigs = np.linalg.eigvalsh(b.sigma - p * rho)
        assert gap_eigs.min() >= -1e-9
    assert abs(np.trace(b.sigma).real - b.upper) <= 1e-12
    val = sum(np.trace(p * rho @ e).real for p, rho, e in zip(ens.probs, ens.states, b.povm))
    assert abs(val - b.lower) <= 1e-12
    # the true optimum is at least the largest prior
    assert b.upper >= ens.probs.max() - 1e-9


def test_certificate_check_rejects_a_dual_changed_above_the_diagonal():
    # eigvalsh reads the lower triangle only, so this sigma - p_x rho_x has the
    # eigenvalues of the valid certificate it was made from
    ens = CqEnsemble([0, 1], np.array([0.5, 0.5]), [proj(KET0), proj(KETP)])
    b = pguess(ens)
    sigma = b.sigma + 0.3 * np.triu(np.ones((2, 2)), 1)
    with pytest.raises(ValueError, match="not hermitian"):
        _verify_certificates(ens.weighted(), b.povm, sigma)


def test_certificate_check_rejects_a_lowered_dual():
    ens = CqEnsemble([0, 1], np.array([0.5, 0.5]), [proj(KET0), proj(KETP)])
    b = pguess(ens)
    assert _verify_certificates(ens.weighted(), b.povm, b.sigma) == (b.lower, b.upper)
    # sigma has eigenvalues 1/4 and 0.60, so only sigma - p_x rho_x goes negative
    with pytest.raises(ValueError, match="not positive semidefinite"):
        _verify_certificates(ens.weighted(), b.povm, b.sigma - 0.1 * np.eye(2))


def test_certificate_check_rejects_a_povm_short_of_the_identity():
    ens = CqEnsemble([0, 1], np.array([0.5, 0.5]), [proj(KET0), proj(KETP)])
    b = pguess(ens)
    with pytest.raises(ValueError, match="does not sum to the identity"):
        _verify_certificates(ens.weighted(), [0.9 * e for e in b.povm], b.sigma)


def test_pure_state_ensembles_across_sizes():
    rng = np.random.default_rng(37)
    for n_states, d in [(2, 2), (3, 4), (5, 8), (4, 16)]:
        states = [proj(haar_state(d, rng)) for _ in range(n_states)]
        probs = np.full(n_states, 1.0 / n_states)
        b = pguess(CqEnsemble(list(range(n_states)), probs, states))
        assert b.converged and b.gap <= 1e-6
        assert probs.max() - 1e-9 <= b.upper <= 1.0 + 1e-9


def test_single_label_is_certain():
    b = pguess(CqEnsemble(["only"], np.array([1.0]), [np.eye(2) / 2]))
    assert b.lower == b.upper == 1.0


def test_hmin_uniform_classical():
    # four orthogonal flags: guessing is certain, H_min(X|B) = 0;
    # trivial side information: H_min(X) = 2
    flags = [proj(np.eye(4, dtype=complex)[i]) for i in range(4)]
    lo, hi = hmin(CqEnsemble(list(range(4)), np.full(4, 0.25), flags))
    assert abs(lo) <= 1e-6 and abs(hi) <= 1e-6
    one = np.array([[1.0]], dtype=complex)
    lo, hi = hmin(CqEnsemble(list(range(4)), np.full(4, 0.25), [one] * 4))
    assert abs(lo - 2.0) <= 1e-6 and abs(hi - 2.0) <= 1e-6


def test_helstrom_input_validation():
    with pytest.raises(ValueError):
        helstrom_binary(0.6, np.eye(2) / 2, 0.6, np.eye(2) / 2)


def test_ensemble_validation():
    rho = np.eye(2) / 2
    with pytest.raises(ValueError):
        CqEnsemble([0, 1], np.array([0.5, 0.6]), [rho, rho])
    with pytest.raises(ValueError):
        CqEnsemble([0, 1], np.array([1.5, -0.5]), [rho, rho])
    with pytest.raises(ValueError):
        CqEnsemble([0, 0], np.array([0.5, 0.5]), [rho, rho])
    with pytest.raises(ValueError):
        CqEnsemble([0, 1], np.array([0.5, 0.5]), [rho, np.eye(2)])
    with pytest.raises(ValueError):
        CqEnsemble([0, 1], np.array([0.5, 0.5]), [rho, np.array([[1.0, 0.8], [0.8, 0.0]])])
    with pytest.raises(ValueError):
        CqEnsemble([0], np.array([1.0]), [np.eye(128) / 128])


def test_zero_probability_labels_are_dropped():
    rho0 = proj(KET0)
    rho1 = proj(np.array([0, 1], dtype=complex))
    ens = CqEnsemble([0, 1, 2], np.array([0.5, 0.0, 0.5]), [rho0, rho0, rho1])
    assert ens.labels == [0, 2]
    assert pguess(ens).lower >= 1.0 - 1e-9


def test_trace_out_last_factor_matches_manual_reduction():
    rng = np.random.default_rng(41)
    rho = random_density_operator(6, rng)
    ens = CqEnsemble([0], np.array([1.0]), [rho])
    red = ens.trace_out_last_factor(2, 3)
    manual = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            manual[i, j] = sum(rho[3 * i + k, 3 * j + k] for k in range(3))
    assert np.abs(red.states[0] - manual).max() <= 1e-12


def test_chain_rule_on_classical_leak():
    # X is two uniform bits; Z holds the first bit, B carries nothing
    labels, probs, states = [], [], []
    for x in range(4):
        labels.append(x)
        probs.append(0.25)
        z = np.zeros((2, 2), dtype=complex)
        z[x >> 1, x >> 1] = 1.0
        states.append(np.kron(np.eye(2) / 2, z))
    res = chain_rule_check(CqEnsemble(labels, np.array(probs), states), z_dim=2)
    assert res.decided and res.holds
    # this instance saturates the budget: H(A|BZ) = 1 = H(A|B) - log2(2)
    assert abs(res.lhs_bits[0] - 1.0) <= 1e-6
    assert abs(res.rhs_bits[0] - 2.0) <= 1e-6


def test_chain_rule_on_random_instances():
    rng = np.random.default_rng(53)
    for _ in range(10):
        n_labels = int(rng.integers(2, 5))
        probs = rng.uniform(0.1, 1.0, size=n_labels)
        probs /= probs.sum()
        states = [random_density_operator(8, rng, rank=2) for _ in range(n_labels)]
        res = chain_rule_check(CqEnsemble(list(range(n_labels)), probs, states), z_dim=2)
        assert res.holds  # the inequality is universal; decided may be tight
        if not res.decided:
            # brackets overlapped only because the instance sits on the boundary
            assert res.lhs_bits[1] >= res.rhs_bits[0] - 1.0 - 1e-6


@pytest.mark.parametrize("lhs, holds, decided", [((0.2, 0.4), False, True),
                                                  ((0.5, 1.5), True, False)])
def test_chain_rule_reports_refuted_and_undecided_brackets(monkeypatch, lhs, holds, decided):
    # stand-in brackets reach the returns no honest ensemble does: with
    # H(A|B) = 2 and a one-bit budget, [0.2, 0.4] refutes the chain rule
    # and [0.5, 1.5] straddles its threshold
    brackets = iter([lhs, (2.0, 2.0)])
    monkeypatch.setattr(entropy, "hmin", lambda ensemble: next(brackets))
    ens = CqEnsemble([0, 1], np.array([0.5, 0.5]), [np.eye(4) / 4] * 2)
    res = chain_rule_check(ens, z_dim=2)
    assert (res.holds, res.decided) == (holds, decided)
    assert (res.lhs_bits, res.rhs_bits) == (lhs, (2.0, 2.0))


def test_chain_rule_rejects_bad_factorization():
    one = np.array([[1.0]], dtype=complex)
    ens = CqEnsemble([0], np.array([1.0]), [np.eye(3) / 3])
    with pytest.raises(ValueError):
        chain_rule_check(ens, z_dim=2)
    with pytest.raises(ValueError):
        chain_rule_check(CqEnsemble([0], np.array([1.0]), [one]), z_dim=0)


def list_ascend(weighted, povm, steps):
    """The fixed-point ascent on k-element lists, one label at a time: the
    reference that the stacked ``_ascend`` must match bit for bit."""
    best = _primal_value(weighted, povm)
    stall = 0
    done = 0
    for done in range(1, steps + 1):
        g = np.zeros_like(weighted[0])
        for w, e in zip(weighted, povm):
            g = g + w @ e @ w
        root = _psd_pinv_sqrt(0.5 * (g + g.conj().T))
        nxt = [root @ (w @ e @ w) @ root for w, e in zip(weighted, povm)]
        defect = np.eye(g.shape[0]) - np.sum(nxt, axis=0)
        nxt = [e + defect / len(nxt) for e in nxt]
        val = _primal_value(weighted, nxt)
        if val >= best - 1e-15:
            povm = nxt
        if val - best < 1e-14:
            stall += 1
            if stall >= 25:
                break
        else:
            stall = 0
        best = max(best, val)
    return povm, done


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(1, 8), st.booleans(), st.integers(1, 80),
       st.integers(0, 2**32 - 1))
def test_stacked_ascent_matches_list_reference_bitwise(k, d, pure, steps, seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(k))
    states = [random_density_operator(d, rng, rank=1 if pure else d) for _ in range(k)]
    weighted = CqEnsemble(list(range(k)), probs, states).weighted()
    seed_povm = _pgm(weighted)
    ref, ref_done = list_ascend(weighted, seed_povm, steps)
    got, done = _ascend(weighted, seed_povm, steps)
    assert done == ref_done
    assert got.tobytes() == np.asarray(ref).tobytes()
    # the repaired iterate and its shifted dual, as pguess goes on to build them
    ref, got = _repair_povm(ref), _repair_povm(got)
    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
    assert _dual_from_povm(weighted, got).tobytes() == _dual_from_povm(weighted, ref).tobytes()


def test_ascent_route_meets_helstrom_on_two_labels():
    # pguess answers two labels in closed form; the ascent that serves more
    # labels is checked here against the same optimum
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = int(rng.integers(2, 9))
        p0 = float(rng.uniform(0.05, 0.95))
        rho0 = random_density_operator(d, rng)
        rho1 = random_density_operator(d, rng)
        weighted = [p0 * rho0, (1.0 - p0) * rho1]
        povm, _ = _ascend(weighted, _pgm(weighted), 2400)
        povm = _repair_povm(povm)
        sigma = _feasible_dual(weighted, _dual_from_povm(weighted, povm))
        lower, upper = _verify_certificates(weighted, povm, sigma)
        h = helstrom_binary(p0, rho0, 1.0 - p0, rho1)
        assert lower <= h + 1e-12 and upper >= h - 1e-12
        assert h - lower <= 1e-6 and upper - h <= 1e-6


def _zero_eigenspace_pair():
    # Delta = U diag(0, 1/4, -1/4, 0) U^dagger has a two-dimensional kernel
    rng = np.random.default_rng(61)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rho0 = u @ np.diag([0.5, 0.5, 0.0, 0.0]) @ u.conj().T
    rho1 = u @ np.diag([0.5, 0.0, 0.5, 0.0]) @ u.conj().T
    return [0.5, 0.5], [rho0, rho1]


TWO_LABEL_EDGES = {
    "identical": lambda: ([0.3, 0.7], [random_density_operator(3, np.random.default_rng(59))] * 2),
    "orthogonal": lambda: ([0.3, 0.7], [proj(KET0), proj(np.array([0, 1], dtype=complex))]),
    "equal_priors": lambda: ([0.5, 0.5], [random_density_operator(4, np.random.default_rng(60))
                                          for _ in range(2)]),
    "zero_eigenspace": _zero_eigenspace_pair,
    "dim_one": lambda: ([0.4, 0.6], [np.eye(1, dtype=complex)] * 2),
}


@pytest.mark.parametrize("case", sorted(TWO_LABEL_EDGES))
def test_two_label_closed_form_edge_cases(case):
    probs, states = TWO_LABEL_EDGES[case]()
    ens = CqEnsemble([0, 1], np.array(probs), states)
    b = pguess(ens)
    assert (b.lower, b.upper) == _verify_certificates(ens.weighted(), b.povm, b.sigma)
    assert b.converged and b.iterations == 0
    assert 0.0 <= b.gap <= 1e-12
    h = helstrom_binary(probs[0], states[0], probs[1], states[1])
    assert b.lower <= h + 1e-12 and b.upper >= h - 1e-12


def test_positive_part_dual_is_feasible_for_any_povm():
    rng = np.random.default_rng(67)
    for _ in range(20):
        k, d = int(rng.integers(2, 6)), int(rng.integers(1, 7))
        probs = rng.dirichlet(np.ones(k))
        weighted = [p * random_density_operator(d, rng) for p in probs]
        # a feasible but far from optimal POVM
        povm = _repair_povm([random_density_operator(d, rng) for _ in range(k)])
        sigma = _positive_part_dual(weighted, povm)
        for w in weighted:
            assert np.linalg.eigvalsh(sigma - w).min() >= -1e-12


@pytest.mark.parametrize("seed,draw", [(3962368100, 0), (4130329836, 3)])
def test_four_label_ensembles_past_the_first_bracket_meet_the_gap(seed, draw):
    # the entropy experiment's four-label draws at these seeds, where the
    # shifted dual alone leaves gaps of 3.7e-6 and 1.2e-6 after 2,400 steps
    rng = rng_substream(seed, 1)
    for _ in range(draw + 1):
        probs = rng.dirichlet(np.ones(4))
        states = [random_density_operator(4, rng) for _ in range(4)]
    ens = CqEnsemble(list(range(4)), probs, states)
    b = pguess(ens)
    assert b.iterations > 400
    assert b.converged and b.gap <= 1e-6
    assert (b.lower, b.upper) == _verify_certificates(ens.weighted(), b.povm, b.sigma)
