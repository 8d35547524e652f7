"""Tripartite basis-agreement game: exact win probability and bound checks.

Setting: a sampler publishes a tuple p and hides a basis string theta of
length n derivable from p only by the two key holders. A strategy prepares
one pure state on registers A (n qubits), B (n qubits), C (at most 4
qubits), Alice and Bob measure A and B in the theta basis, and the C-holder
outputs a key guess from a POVM that may depend on theta but not on p. The
game is won when all three keys coincide.

Register order is A then B then C throughout. Exact evaluation enumerates
the (p, theta) distribution, so it is limited to schemes exposing an exact
enumeration; Monte-Carlo evaluation works for every scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .nike import enumerate_z, sample_z, theta_of_public
from .quantum import (
    ATOL_NORM,
    agreement_projector,
    assert_density_operator,
    block_projectors,
    draw_index,
    epr_block_state,
    haar_state,
    int_to_bits,
    partial_trace,
    random_povm,
    theta_amplitudes,
    theta_unitary,
)
from .entropy import assert_povm

MAX_CHARLIE_QUBITS = 4


@dataclass(frozen=True)
class Strategy:
    """Pure-state preparation plus a theta-indexed guessing POVM for C.

    prep maps the public tuple to a normalized vector on A, B, C; the POVM
    returned for a basis string has one element per key in {0,1}^n, indexed
    by integer value. Mixed preparations are modeled by purifying into C.
    """

    name: str
    n: int
    c_qubits: int
    prep: Callable[[tuple], np.ndarray]
    charlie_povm: Callable[[tuple[int, ...]], list[np.ndarray]]

    def __post_init__(self):
        if self.c_qubits < 0 or self.c_qubits > MAX_CHARLIE_QUBITS:
            raise ValueError("C register must hold between 0 and 4 qubits")


@dataclass(frozen=True)
class GameResult:
    pwin: float
    agree_rate: float
    stderr: float | None = None
    trials: int | None = None

    def __post_init__(self):
        if not -1e-9 <= self.pwin <= self.agree_rate + 1e-9:
            raise ValueError("winning is a sub-event of agreement")
        if self.agree_rate > 1 + 1e-9:
            raise ValueError("agreement rate above 1")


def honest_strategy(n: int) -> Strategy:
    """A and B share maximally entangled pairs; C guesses uniformly."""
    psi = epr_block_state(n)

    def prep(p):
        return psi

    def povm(theta):
        return [np.array([[1.0 / 2**n]], dtype=np.complex128) for _ in range(2**n)]

    return Strategy("honest", n, 0, prep, povm)


def intercept_resend_strategy(n: int) -> Strategy:
    """C keeps the halves meant for Bob and measures them in the theta basis.

    Bob receives a substitute uncorrelated with the kept halves; any such
    payload agrees with Alice's outcome with probability exactly 2^-n, so a
    fixed all-zeros product state stands in for it.
    """
    if n > MAX_CHARLIE_QUBITS:
        raise ValueError("kept register exceeds the C cap")
    dim = 2**n
    psi = np.zeros((dim, dim, dim), dtype=np.complex128)
    for x in range(dim):
        psi[x, 0, x] = 1.0 / np.sqrt(dim)
    psi = psi.reshape(-1)

    def prep(p):
        return psi

    def povm(theta):
        u = theta_unitary(theta)
        return [np.outer(u[:, k], u[:, k].conj()) for k in range(dim)]

    return Strategy("intercept_resend", n, n, prep, povm)


def basis_reading_strategy(n: int) -> Strategy:
    """Reads theta straight from the public tuple and aligns A = B = |0..0>
    in that basis; C outputs the all-zeros key. Only works against schemes
    whose public tuple exposes theta; raises otherwise."""

    def prep(p):
        theta = theta_of_public(p)
        if len(theta) != n:
            raise ValueError("basis length mismatch")
        u = theta_unitary(theta)[:, 0]
        return np.kron(u, u)

    def povm(theta):
        out = [np.zeros((1, 1), dtype=np.complex128) for _ in range(2**n)]
        out[0] = np.eye(1, dtype=np.complex128)
        return out

    return Strategy("basis_reading", n, 0, prep, povm)


def random_strategy(n: int, c_qubits: int, rng: np.random.Generator) -> Strategy:
    """Haar-random preparation and a fresh random POVM per theta, frozen at
    construction so repeated queries are consistent."""
    psi = haar_state(2 ** (2 * n + c_qubits), rng)
    povms = {}
    for t in range(2**n):
        theta = int_to_bits(t, n)
        povms[theta] = random_povm(2**c_qubits, 2**n, rng)

    return Strategy("random", n, c_qubits, lambda p: psi, lambda theta: povms[theta])


BUILTIN_STRATEGIES = {
    "honest": honest_strategy,
    "intercept_resend": intercept_resend_strategy,
    "basis_reading": basis_reading_strategy,
}


def _checked_prep(strategy: Strategy, p: tuple) -> np.ndarray:
    psi = np.asarray(strategy.prep(p), dtype=np.complex128)
    if abs(np.linalg.norm(psi) - 1.0) > ATOL_NORM:
        raise ValueError("preparation not normalized")
    return psi


def _povm_stack(strategy: Strategy, theta: tuple[int, ...], c_dim: int) -> np.ndarray:
    """C's POVM for theta, checked, as one (2^n, c_dim, c_dim) array."""
    povm = strategy.charlie_povm(theta)
    assert_povm(povm, c_dim)
    return np.stack([np.asarray(e, dtype=np.complex128) for e in povm])


def exact_pwin(scheme, strategy: Strategy, n: int) -> GameResult:
    """Win and agreement probabilities by exact expectation over (p, theta)."""
    if strategy.n != n:
        raise ValueError("strategy length mismatch")
    entries = enumerate_z(scheme, np.random.default_rng(0))
    d = 2**n
    c_dim = 2**strategy.c_qubits
    pwin = 0.0
    agree = 0.0
    for z, weight in entries:
        psi = _checked_prep(strategy, z.p)
        q = _povm_stack(strategy, z.theta, c_dim)
        uc = theta_unitary(z.theta).conj()
        # row k: <kk|_theta psi. Only the agreement diagonal of the joint
        # contraction, summed in the same order, so it keeps that rounding.
        v = np.einsum("ki,kj,ijc->kc", uc, uc, psi.reshape(d, d, c_dim))
        pwin += weight * float(np.einsum("kc,kcd,kd->", v.conj(), q, v).real)
        agree += weight * float((np.abs(v) ** 2).sum())
    return GameResult(pwin=pwin, agree_rate=agree)


def sampled_pwin(scheme, strategy: Strategy, n: int, trials: int, rng: np.random.Generator) -> GameResult:
    """Monte-Carlo run of the full game; stderr is the binomial estimate."""
    if strategy.n != n:
        raise ValueError("strategy length mismatch")
    c_dim = 2**strategy.c_qubits
    stacks: dict[tuple[int, ...], np.ndarray] = {}
    wins = 0
    agrees = 0
    for _ in range(trials):
        z = sample_z(scheme, rng)
        psi = _checked_prep(strategy, z.p)
        amp = theta_amplitudes(psi, z.theta, c_dim).reshape(4**n, c_dim)
        probs = (np.abs(amp) ** 2).sum(axis=1)
        x = draw_index(probs / probs.sum(), rng)
        ka, kb = divmod(x, 2**n)
        if z.theta not in stacks:
            stacks[z.theta] = _povm_stack(strategy, z.theta, c_dim)
        probs = np.einsum("c,kcd,d->k", amp[x].conj(), stacks[z.theta], amp[x]).real
        probs = np.clip(probs, 0.0, None)  # rounding only: the stack passed assert_povm
        kc = draw_index(probs / probs.sum(), rng)
        if ka == kb:
            agrees += 1
            if ka == kc:
                wins += 1
    pwin = wins / trials
    stderr = float(np.sqrt(max(pwin * (1 - pwin), 1e-12) / trials))
    return GameResult(pwin=pwin, agree_rate=agrees / trials, stderr=stderr, trials=trials)


@cache
def _averaged_agreement_m1(n: int, s: int) -> np.ndarray:
    """E_theta P_theta M1, cached per (n, s) and returned read-only."""
    _, m1 = block_projectors(n, s)
    acc = np.zeros_like(m1)
    for t in range(2**n):
        acc += agreement_projector(int_to_bits(t, n)) @ m1
    avg = acc / 2**n
    avg.flags.writeable = False
    return avg


def verify_random_theta_bound(rho_ab: np.ndarray, s: int) -> tuple[float, float, bool]:
    """E_theta tr(P_theta M1 rho) against the 2^(-n/s) ceiling, which is tight: the
    averaged operator's top eigenvector meets it to an ulp for n <= 4 (arXiv:1210.4359)."""
    qubits = assert_density_operator(rho_ab)
    if qubits % 2:
        raise ValueError("state must cover matched A and B registers")
    n = qubits // 2
    if n % s:
        raise ValueError("block size must divide n")
    value = float(np.trace(_averaged_agreement_m1(n, s) @ rho_ab).real)
    bound = 2.0 ** -(n // s)
    return value, bound, value <= bound + 1e-9


def verify_fixed_theta_bound(
    rho_abe: np.ndarray,
    povm_on_e: Sequence[np.ndarray],
    theta: tuple[int, ...],
    s: int,
) -> tuple[float, float, bool]:
    """sum_x tr((|xx><xx|_theta ⊗ Q_x) (M0 ⊗ I) rho) against sqrt((n/s)/2^s)."""
    n = len(theta)
    if n % s:
        raise ValueError("block size must divide n")
    total_qubits = assert_density_operator(rho_abe)
    e_dim = rho_abe.shape[0] // 4**n
    if e_dim * 4**n != rho_abe.shape[0] or e_dim > 8:
        raise ValueError("environment dimension out of range")
    if len(povm_on_e) != 2**n:
        raise ValueError("one POVM element per key required")
    assert_povm(povm_on_e, e_dim)
    m0, _ = block_projectors(n, s)
    rho4 = rho_abe.reshape(4**n, e_dim, 4**n, e_dim)
    rho_m = np.einsum("xy,yazb->xazb", m0, rho4)
    u = theta_unitary(theta)
    w = np.einsum("ix,jx->xij", u, u, order="C").reshape(2**n, 4**n)  # row x: |xx>_theta
    q = np.stack([np.asarray(e, dtype=np.complex128) for e in povm_on_e])
    value = float(np.einsum("xi,xj,xkl,jlik->", w, w.conj(), q, rho_m).real)
    bound = float(np.sqrt((n / s) / 2**s))
    return value, bound, value <= bound + 1e-9


def decomposition_terms(
    rho_abc: np.ndarray,
    p: tuple,
    theta: tuple[int, ...],
    s: int,
    charlie_povm,
) -> tuple[float, float, float]:
    """Split Pr(C guesses the resampled key) into three certified pieces.

    The key equals the common measurement outcome when A and B agree and is
    redrawn uniformly when they disagree. The split follows the agreement
    projector through M0 and M1: term1 (agreement through M0) is capped by
    sqrt((n/s)/2^s), term3 (the disagreement redraw) by 2^-n, and the three
    terms must add up to the directly evaluated probability. The direct value
    is computed twice, once from full operators and once from the explicit
    conditional states on C, and both routes must agree.
    """
    n = len(theta)
    if n % s:
        raise ValueError("block size must divide n")
    rho = np.asarray(rho_abc, dtype=np.complex128)
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    assert_density_operator(rho)
    c_dim = rho.shape[0] // 4**n
    if c_dim * 4**n != rho.shape[0]:
        raise ValueError("state does not factor into AB and C")
    povm = charlie_povm(theta) if callable(charlie_povm) else list(charlie_povm)
    if len(povm) != 2**n:
        raise ValueError("one POVM element per key required")
    assert_povm(povm, c_dim)
    q = np.stack([np.asarray(e, dtype=np.complex128) for e in povm])

    m0, m1 = block_projectors(n, s)
    rho4 = rho.reshape(4**n, c_dim, 4**n, c_dim)
    u = theta_unitary(theta)
    w = np.einsum("ix,jx->xij", u, u, order="C").reshape(2**n, 4**n)  # row x: |xx>_theta

    rho_m0 = np.einsum("xy,yazb->xazb", m0, rho4)
    rho_m1 = np.einsum("xy,yazb->xazb", m1, rho4)
    t1 = float(np.einsum("xi,xj,xkl,jlik->", w, w.conj(), q, rho_m0).real)
    t2 = float(np.einsum("xi,xj,xkl,jlik->", w, w.conj(), q, rho_m1).real)
    agree_mass = float(np.einsum("xi,xj,jaib,ba->", w, w.conj(), rho4, np.eye(c_dim)).real)
    t3 = float((1.0 - agree_mass) / 2**n)

    # route 1: direct trace with full operators
    direct = t3
    for x in range(2**n):
        op = np.kron(np.outer(w[x], w[x].conj()), q[x])
        direct += float(np.sum(op * rho.T).real)
    # route 2: explicit conditional states on C
    rho_c = partial_trace(rho, [4**n, c_dim], [1])
    v = np.einsum("xi,iajb,xj->xab", w.conj(), rho4, w)
    leak = rho_c - v.sum(axis=0)
    direct2 = float(sum(np.trace((v[x] + leak / 2**n) @ q[x]).real for x in range(2**n)))

    bound1 = float(np.sqrt((n / s) / 2**s))
    if t1 > bound1 + 1e-9:
        raise ValueError(f"agreement-through-M0 term {t1} exceeds {bound1}")
    if t3 > 2.0**-n + 1e-9:
        raise ValueError(f"disagreement term {t3} exceeds {2.0 ** -n}")
    if abs((t1 + t2 + t3) - direct) > 1e-9:
        raise ValueError("decomposition does not add up to the direct value")
    if abs(direct - direct2) > 1e-9:
        raise ValueError("operator and conditional-state routes disagree")
    return t1, t2, t3


def distinguisher_advantage(
    scheme, strategy: Strategy, n: int, trials: int, rng: np.random.Generator, s: int = 1
) -> float:
    """Empirical bias of the reduction from winning the game to telling the
    real basis string from a uniform one.

    Each trial prepares the strategy state from the real public tuple, runs
    the two-outcome {M0, M1} measurement on A and B, and on the second
    outcome measures A and B in the candidate basis, outputting the
    agreement bit. The candidate is the real theta in one world and a fresh
    uniform string in the other; the advantage is the difference of output
    means over common samples.
    """
    if strategy.n != n:
        raise ValueError("strategy length mismatch")
    m0, m1 = block_projectors(n, s)
    c_dim = 2**strategy.c_qubits
    hits = [0, 0]
    for _ in range(trials):
        z = sample_z(scheme, rng)
        theta_star = tuple(int(b) for b in rng.integers(0, 2, size=n))
        psi = np.asarray(strategy.prep(z.p), dtype=np.complex128)
        t = psi.reshape(4**n, c_dim)
        prob1 = float(np.einsum("ac,ab,bc->", t.conj(), m1, t).real)
        outcome = 1 if rng.random() < prob1 else 0
        proj = m1 if outcome else m0
        post = np.einsum("ab,bc->ac", proj, t).reshape(-1)
        post = post / np.linalg.norm(post)
        for world, candidate in enumerate((theta_star, z.theta)):
            if outcome == 1:
                amp = theta_amplitudes(post, candidate, c_dim).reshape(4**n, c_dim)
                probs = (np.abs(amp) ** 2).sum(axis=1)
                ka, kb = divmod(draw_index(probs / probs.sum(), rng), 2**n)
                if ka == kb:
                    hits[world] += 1
    return abs(hits[1] - hits[0]) / trials
