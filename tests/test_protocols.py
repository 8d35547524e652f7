import json
from itertools import product
from math import log2

import numpy as np
import pytest

from moeqkd import harness, protocols
from moeqkd.entropy import CqEnsemble, pguess
from moeqkd.hashing import CrHash, CrHashFamily, uh_eval
from moeqkd.nike import BrokenNike, IdealNike, NoExactRoute, ToyDhNike
from moeqkd.protocols import (
    AdversaryChannel,
    Transcript,
    _passive_distance,
    _swap_distance,
    entangling_relay_adversary,
    everlasting_distance_report,
    extract_bits,
    identity_adversary,
    measure_resend_adversary,
    run_niqkd,
    run_two_round,
    swap_epr_attack,
    weak_security_report,
)
from moeqkd.quantum import theta_basis_state

# exact regression values, first derived by exhaustive enumeration here
SWAP_IDEAL_PGUESS = 0.369638347648
SWAP_IDEAL_HMIN = 1.435813659854
PASSIVE_DIST_N1 = 0.353515625  # = 181/512
PASSIVE_DIST_N2 = 0.188882356422255
SWAP_DIST_N1 = 0.312362409094


class FailingNike:
    """Scheme whose key derivation always refuses; used for bot-propagation."""

    name = "failing"

    def __init__(self, n):
        self.n = n

    def setup(self, rng):
        return ("failing", self.n)

    def gen(self, pp, identity, rng):
        return (pp, identity), identity

    def sdk(self, their_id, their_pk, my_id, my_sk):
        return None


def all_schemes(n):
    return [IdealNike(n), ToyDhNike(n), BrokenNike(n)]


def test_honest_run_agrees_on_all_schemes():
    rng = np.random.default_rng(11)
    for scheme in all_schemes(2):
        for _ in range(40):
            tx = run_niqkd(scheme, 2, None, rng)
            assert tx.theta_a == tx.theta_b
            assert tx.k_a is not None
            assert tx.k_a == tx.k_b


def test_honest_run_wide_register_pure_path():
    rng = np.random.default_rng(12)
    tx = run_niqkd(IdealNike(6), 6, None, rng)
    assert tx.k_a == tx.k_b
    assert len(tx.k_a) == 6


def test_honest_run_deterministic_per_seed():
    a = run_niqkd(ToyDhNike(2), 2, None, np.random.default_rng(99))
    b = run_niqkd(ToyDhNike(2), 2, None, np.random.default_rng(99))
    assert a.to_json() == b.to_json()


def test_identity_adversary_never_disturbs():
    rng = np.random.default_rng(13)
    for _ in range(40):
        tx = run_niqkd(IdealNike(2), 2, identity_adversary(2), rng)
        assert tx.k_a == tx.k_b


def test_run_size_caps():
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError):
        run_niqkd(IdealNike(5), 5, identity_adversary(5), rng)
    with pytest.raises(ValueError):
        run_niqkd(IdealNike(11), 11, None, rng)
    with pytest.raises(ValueError):
        run_niqkd(IdealNike(3), 2, None, rng)


def test_swap_attack_decoder_recovers_both_keys():
    rng = np.random.default_rng(15)
    adv = swap_epr_attack(2)
    agree = 0
    for _ in range(400):
        tx = run_niqkd(ToyDhNike(2), 2, adv, rng)
        guess_a, guess_b = adv.decoder(tx, rng)
        assert guess_a == tx.k_a
        assert guess_b == tx.k_b
        agree += int(tx.k_a == tx.k_b)
    # keys are independent uniform, so agreement sits near 1/4
    sigma = (0.25 * 0.75 / 400) ** 0.5
    assert abs(agree / 400 - 0.25) <= 3 * sigma


def test_weak_report_passive_is_two_bits_exact():
    rng = np.random.default_rng(16)
    rep = weak_security_report(IdealNike(2), 2, None, rng)
    assert abs(rep.agree_rate - 1.0) <= 1e-12
    assert abs(rep.hmin_lower - 2.0) <= 1e-6
    assert abs(rep.hmin_upper - 2.0) <= 1e-6


def test_weak_report_swap_ideal_regression():
    rng = np.random.default_rng(17)
    rep = weak_security_report(IdealNike(2), 2, swap_epr_attack(2), rng)
    assert abs(rep.agree_rate - 0.25) <= 1e-12
    assert abs(rep.bracket.lower - SWAP_IDEAL_PGUESS) <= 1e-6
    assert abs(rep.bracket.upper - SWAP_IDEAL_PGUESS) <= 1e-6
    assert abs(rep.hmin_lower - SWAP_IDEAL_HMIN) <= 1e-5
    assert abs(rep.hmin_upper - SWAP_IDEAL_HMIN) <= 1e-5


def test_weak_report_swap_ideal_matches_collapse_picture():
    # independent route: Eve holds |a>_theta (x) |b>_theta with theta hidden,
    # (a, b) uniform; the key is a on agreement, redrawn uniform otherwise
    n = 2
    blocks = [np.zeros((16, 16), dtype=np.complex128) for _ in range(4)]
    for t_a, t_b in product((0, 1), repeat=2):
        theta = (t_a, t_b)
        for a in range(4):
            for b in range(4):
                v = np.kron(theta_basis_state(a, theta), theta_basis_state(b, theta))
                sig = np.outer(v, v.conj()) / (4 * 16)
                if a == b:
                    blocks[a] += sig
                else:
                    for k in range(4):
                        blocks[k] += sig / 4
    probs = np.array([np.trace(b).real for b in blocks])
    states = [b / p for b, p in zip(blocks, probs)]
    bracket = pguess(CqEnsemble(list(range(4)), probs, states))
    assert abs(bracket.lower - SWAP_IDEAL_PGUESS) <= 1e-6
    assert abs(bracket.upper - SWAP_IDEAL_PGUESS) <= 1e-6

    rng = np.random.default_rng(18)
    rep = weak_security_report(IdealNike(n), n, swap_epr_attack(n), rng)
    assert abs(rep.bracket.upper - bracket.upper) <= 2e-6


def test_weak_report_swap_broken_hits_closed_form():
    # theta is public here, so Eve reads the key off her registers whenever
    # the parties agree: pguess = 1/4 * 1 + 3/4 * 1/4 = 7/16 exactly
    rng = np.random.default_rng(19)
    rep = weak_security_report(BrokenNike(2), 2, swap_epr_attack(2), rng)
    assert abs(rep.bracket.lower - 7 / 16) <= 1e-6
    assert abs(rep.bracket.upper - 7 / 16) <= 1e-6
    assert abs(rep.hmin_lower - log2(16 / 7)) <= 1e-5
    # the shipped decoder should achieve the SDP optimum empirically
    cfg = harness.RunConfig("niqkd", seed=19, scheme="broken", adversary="swap_epr",
                            n=2, trials=600)
    rows = {r.metric: r for r in harness.run(cfg)}
    sigma = (7 / 16 * 9 / 16 / 600) ** 0.5
    assert abs(rows["eve_guess_rate"].value - 7 / 16) <= 4 * sigma


ADVERSARIES = {"swap_epr": swap_epr_attack, "entangling_relay": entangling_relay_adversary,
               "measure_resend": measure_resend_adversary}
SCHEMES = {"ideal": IdealNike, "broken": BrokenNike}


def closed_forms():
    """(scheme, adversary, n) -> exact (pguess, agree_rate).

    Against the swap channel the parties agree with probability 2^-n, and a
    disagreeing key is redrawn uniformly, so any guess wins it with 2^-n. On
    agreement the adversary wins cos^2n(pi/8) when theta is hidden (the
    optimal value of the BB84 monogamy game) and 1 when the broken scheme
    publishes it. The relay and measure channels give 3/4 and 1/2 with
    either scheme, and agreement (3/4)^n.
    """
    from sympy import Rational, cos, pi, simplify, sqrt

    forms = {}
    for n in (1, 2):
        agree = Rational(1, 2**n)
        hidden = agree * cos(pi / 8) ** (2 * n) + (1 - agree) * agree
        forms["ideal", "swap_epr", n] = (hidden, agree)
        forms["broken", "swap_epr", n] = (agree + (1 - agree) * agree, agree)
        for scheme, adversary in product(SCHEMES, ("entangling_relay", "measure_resend")):
            forms[scheme, adversary, n] = (Rational(3, 4) if n == 1 else Rational(1, 2),
                                           Rational(3, 4) ** n)
    quoted = {("ideal", 1): (4 + sqrt(2)) / 8, ("ideal", 2): (9 + 2 * sqrt(2)) / 32,
              ("broken", 1): Rational(3, 4), ("broken", 2): Rational(7, 16)}
    for (scheme, n), value in quoted.items():
        assert simplify(forms[scheme, "swap_epr", n][0] - value) == 0
    return forms


def test_weak_reports_match_closed_forms():
    forms = closed_forms()
    assert len(forms) == 12
    for (scheme, adversary, n), (pguess, agree) in forms.items():
        rep = weak_security_report(SCHEMES[scheme](n), n, ADVERSARIES[adversary](n),
                                   np.random.default_rng(20))
        value = float(pguess.evalf(30))
        case = (scheme, adversary, n)
        assert rep.bracket.lower - 1e-12 <= value <= rep.bracket.upper + 1e-12, case
        assert abs(rep.agree_rate - float(agree)) <= 1e-12, case
    # criterion 08's value: 5 - log2(9 + 2*sqrt(2)) bits
    assert abs(-log2(float(forms["ideal", "swap_epr", 2][0].evalf(30)))
               - (5 - log2(9 + 2 * 2**0.5))) <= 1e-14


def test_weak_report_measure_resend_closed_form():
    # stored computational-basis outcomes pin the key exactly on the pairs
    # measured in the matching basis: per pair, agreement (1 + 1/2)/2 = 3/4;
    # pguess = avg_theta P(agree|theta) P(right|theta) + P(disagree)/4
    #        = 25/64 + 7/64 = 1/2 exactly
    rng = np.random.default_rng(20)
    rep = weak_security_report(IdealNike(2), 2, measure_resend_adversary(2), rng)
    assert abs(rep.agree_rate - 9 / 16) <= 1e-12
    assert abs(rep.hmin_lower - 1.0) <= 1e-6
    assert abs(rep.hmin_upper - 1.0) <= 1e-6


def test_weak_report_entangling_relay_same_profile():
    rng = np.random.default_rng(21)
    rep = weak_security_report(IdealNike(2), 2, entangling_relay_adversary(2), rng)
    assert abs(rep.agree_rate - 9 / 16) <= 1e-12
    assert abs(rep.hmin_lower - 1.0) <= 1e-6
    assert abs(rep.hmin_upper - 1.0) <= 1e-6


def test_weak_ensemble_disagreement_part_is_key_independent():
    # rebuild the swap ensemble and strip the agreement component; what is
    # left must not depend on the key label at all
    n = 2
    rng = np.random.default_rng(22)
    rep = weak_security_report(IdealNike(n), n, swap_epr_attack(n), rng)
    agree_part = [np.zeros((16, 16), dtype=np.complex128) for _ in range(4)]
    for t_a, t_b in product((0, 1), repeat=2):
        theta = (t_a, t_b)
        for k in range(4):
            v = np.kron(theta_basis_state(k, theta), theta_basis_state(k, theta))
            agree_part[k] += np.outer(v, v.conj()) / (4 * 16)
    rest = [
        rep.ensemble.states[k] * rep.ensemble.probs[k] - agree_part[k]
        for k in range(4)
    ]
    for k in range(1, 4):
        assert np.max(np.abs(rest[k] - rest[0])) <= 1e-10


def test_weak_report_decoder_errors_propagate(monkeypatch):
    # a failing decoder must stop the run, not shorten its guess rate
    swap = swap_epr_attack(1)
    calls = []

    def flaky(tx, rng):
        calls.append(tx)
        if len(calls) == 3:
            raise ValueError("decoder failed")
        return swap.decoder(tx, rng)

    adv = AdversaryChannel("flaky_swap", swap.e_qubits, swap.act, flaky)
    monkeypatch.setitem(harness.BUILTIN_ADVERSARIES, "swap_epr", lambda n: adv)
    cfg = dict(experiment="niqkd", seed=24, adversary="swap_epr", n=1, trials=10)
    with pytest.raises(ValueError, match="decoder failed"):
        harness.run(harness.RunConfig(scheme="broken", **cfg))
    # the opaque-handle scheme skips the decoder phase outright
    calls.clear()
    rows = harness.run(harness.RunConfig(scheme="ideal", **cfg))
    assert "eve_guess_rate" not in {r.metric for r in rows} and not calls


def test_weak_report_rejects_oversized_adversary(monkeypatch):
    rng = np.random.default_rng(23)
    with pytest.raises(NoExactRoute, match="E register too large"):
        weak_security_report(IdealNike(3), 3, swap_epr_attack(3), rng)
    with pytest.raises(NoExactRoute, match="enumeration is limited to n <= 4"):
        weak_security_report(IdealNike(5), 5, None, rng)
    with pytest.raises(NoExactRoute, match="'toydh' is not enumerable"):
        weak_security_report(ToyDhNike(1), 1, None, rng)
    # the dimension is refused before the (p, theta) law is enumerated
    calls = []
    monkeypatch.setattr(protocols, "enumerate_z", lambda *args: calls.append(args))
    with pytest.raises(NoExactRoute, match="ensemble dimension exceeds the SDP cap"):
        weak_security_report(BrokenNike(4), 4, entangling_relay_adversary(4), rng)
    assert not calls


def test_two_round_honest_all_schemes():
    rng = np.random.default_rng(24)
    for scheme in all_schemes(2):
        for _ in range(40):
            tx = run_two_round(scheme, 2, 1, None, rng)
            assert tx.kstar_a is not None
            assert tx.kstar_a == tx.kstar_b
            assert tx.round2["ell"] == 1
    # sub-instances are independent runs with swapped roles
    assert tx.subs[0].k_a is not None and tx.subs[1].k_a is not None


def test_two_round_deterministic_per_seed():
    a = run_two_round(IdealNike(2), 2, 2, None, np.random.default_rng(77))
    b = run_two_round(IdealNike(2), 2, 2, None, np.random.default_rng(77))
    assert a.to_json() == b.to_json()


def test_two_round_digest_cap_respects_key_width():
    assert extract_bits(2, 1) == 1
    assert extract_bits(2, 4) == 4
    assert extract_bits(2, 16) == 4
    rng = np.random.default_rng(25)
    tx = run_two_round(IdealNike(2), 2, 16, None, rng)
    assert tx.round2["m"] == 16
    assert tx.round2["ell"] == 4
    assert 0 <= tx.kstar_a < 16


def test_two_round_swap_forces_bot_outside_collisions():
    rng = np.random.default_rng(26)
    m = 4
    adv = (swap_epr_attack(2), None)
    disagreeing = 0
    both_bot = 0
    for _ in range(400):
        tx = run_two_round(ToyDhNike(2), 2, m, adv, rng)
        if tx.subs[0].k_a == tx.subs[0].k_b:
            continue
        disagreeing += 1
        both_bot += int(tx.kstar_a is None and tx.kstar_b is None)
    assert disagreeing > 250  # sub-0 keys collide only 2^-n of the time
    rate = both_bot / disagreeing
    floor = 1 - 2 * 2.0**-m
    sigma = (floor * (1 - floor) / disagreeing) ** 0.5
    assert rate >= floor - 3 * sigma


def test_two_round_gate_postcondition():
    rng = np.random.default_rng(27)
    adv = (swap_epr_attack(2), None)
    seen_bot = False
    for _ in range(60):
        tx = run_two_round(ToyDhNike(2), 2, 4, adv, rng)
        if tx.kstar_a is None:
            seen_bot = True
            continue
        h_b = CrHash(tx.round2["hash_b"], 4, 4)
        ka_int = sum(b << (3 - i) for i, b in enumerate(tx.k_a))
        assert h_b.digest(ka_int) == tx.round2["digest_b"]
    assert seen_bot


def test_two_round_verifiability_honest_and_gated():
    # disagreement beyond digest collisions cannot survive m = 16
    for adversary, m, trials in (("none", 4, 60), ("swap_epr_sub0", 16, 200),
                                 ("entangling_relay", 16, 200)):
        cfg = harness.RunConfig("two-round", seed=28, scheme="ideal", adversary=adversary,
                                n=2, m=m, trials=trials)
        rows = {r.metric: r for r in harness.run(cfg)}
        assert rows["verify_mismatch_rate"].value == 0.0


def test_two_round_bot_propagation_on_failed_exchange():
    rng = np.random.default_rng(29)
    tx = run_two_round(FailingNike(2), 2, 1, None, rng)
    assert tx.k_a is None and tx.k_b is None
    assert tx.kstar_a is None and tx.kstar_b is None
    assert tx.round2 is None
    one_round = run_niqkd(FailingNike(2), 2, None, rng)
    assert one_round.theta_a is None and one_round.k_a is None


def test_passive_distance_regression_pins():
    assert abs(_passive_distance(1, 1) - PASSIVE_DIST_N1) <= 1e-9
    assert abs(_passive_distance(2, 1) - PASSIVE_DIST_N2) <= 1e-9


def test_passive_distance_matches_brute_force():
    # second route: enumerate every (digest pair, seed, key) outcome with the
    # seed's xor-offset kept in view instead of argued away
    bits, size = 2, 4
    dist = 0.0
    for f_a in range(16):
        for f_b in range(16):
            for a in range(4):
                for b in range(4):
                    real = np.zeros((2, 2, 2))
                    unif = np.zeros((2, 2, 2))
                    for key in range(size):
                        d_a = (f_a >> key) & 1
                        d_b = (f_b >> key) & 1
                        y = uh_eval(bits, 1, (a, b), key)
                        real[d_a, d_b, y] += 0.25
                        unif[d_a, d_b, :] += 0.125
                    dist += 0.5 * np.abs(real - unif).sum() / (16 * 16 * 16)
    assert abs(dist - _passive_distance(1, 1)) <= 1e-12


def test_digest_model_matches_keyed_hash_family():
    # the exact routes treat each digest as a uniform random function of the
    # key; the shipped keyed family should populate all 16 truth tables evenly
    rng = np.random.default_rng(30)
    family = CrHashFamily(2, 1)
    counts = np.zeros(16)
    trials = 8000
    for _ in range(trials):
        h = family.sample(rng)
        idx = sum(h.digest(x) << x for x in range(4))
        counts[idx] += 1
    chi2 = ((counts - trials / 16) ** 2 / (trials / 16)).sum()
    assert chi2 <= 37.70  # chi-square 0.999 quantile, 15 dof


def test_everlasting_report_passive_pins_and_extractor_bound():
    d_a, d_b = everlasting_distance_report(IdealNike(2), 2, 1, None)
    assert d_a == d_b
    assert abs(d_a - PASSIVE_DIST_N2) <= 1e-9
    assert d_a <= 0.5  # extractor epsilon at m = 1
    d1, _ = everlasting_distance_report(BrokenNike(1), 1, 1, None)
    assert abs(d1 - PASSIVE_DIST_N1) <= 1e-9


def test_everlasting_report_swap_route():
    d_a, d_b = everlasting_distance_report(IdealNike(1), 1, 1, (swap_epr_attack(1), None))
    assert abs(d_a - d_b) <= 1e-12  # role symmetry of the construction
    assert abs(d_a - SWAP_DIST_N1) <= 1e-9
    assert d_a <= 0.5


def test_swap_distance_is_pinned_bit_for_bit():
    # the benchmark pins these floats as everlasting_dist_a / _b
    assert _swap_distance(1, 1) == (0.3123624090939296, 0.3123624090939332)


def test_everlasting_report_route_errors():
    passive = "exact passive route limited to n <= 2, m = 1"
    with pytest.raises(NoExactRoute, match=passive):
        everlasting_distance_report(IdealNike(2), 2, 2, None)
    with pytest.raises(NoExactRoute, match=passive):
        everlasting_distance_report(IdealNike(3), 3, 1, None)
    with pytest.raises(NoExactRoute, match="assumes an opaque public tuple"):
        everlasting_distance_report(ToyDhNike(1), 1, 1, (swap_epr_attack(1), None))
    for adversary in ((identity_adversary(1), None), entangling_relay_adversary(1),
                      (None, swap_epr_attack(1))):
        with pytest.raises(NoExactRoute, match="no exact route for this adversary"):
            everlasting_distance_report(IdealNike(1), 1, 1, adversary)
    with pytest.raises(NoExactRoute, match="exact swap route limited to n = 1, m = 1"):
        everlasting_distance_report(IdealNike(2), 2, 1, (swap_epr_attack(2), None))
    with pytest.raises(NoExactRoute, match="exact swap route limited to n = 1, m = 1"):
        _swap_distance(2, 1)


def test_transcript_json_roundtrip():
    rng = np.random.default_rng(34)
    tx = run_two_round(ToyDhNike(2), 2, 4, (swap_epr_attack(2), None), rng)
    payload = json.loads(tx.to_json())
    assert payload["scheme"] == "toydh"
    assert payload["n"] == 2
    assert len(payload["subs"]) == 2
    sub0 = payload["subs"][0]
    assert len(sub0["theta_a"]) == 2
    rho = sub0["rho_e"]
    assert len(rho["re"]) == 16 and len(rho["im"]) == 16
    bytes.fromhex(payload["round2"]["hash_a"])
    assert json.loads(Transcript(**{"scheme": "x", "n": 1}).to_json())["k_a"] is None
