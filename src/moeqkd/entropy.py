"""Guessing probability and conditional min-entropy with certified brackets.

The central object is a classical-quantum ensemble: a label X distributed
with probabilities p_x, and a side-information operator rho_x per label. The
guessing probability p_guess(X|B) is the optimum of a semidefinite program;
we return a two-sided bracket whose certificates (an explicitly feasible POVM
for the lower end, an explicitly dual-feasible operator for the upper end)
are re-verified with plain numpy, so no solver is trusted: the POVM by
``quantum.assert_povm``, each sigma - p_x rho_x and the ensemble's states by
``quantum.assert_psd``, all at ``quantum.ATOL_EIG``.

Two labels have the Helstrom optimum in closed form: with
Delta = p_0 rho_0 - p_1 rho_1, the projector onto Delta's positive part and
the dual sigma = p_1 rho_1 + Delta_+ meet up to rounding. More labels run a
fixed-point ascent over one (k, d, d) stack of POVM elements, seeded by the
pretty-good measurement. When its first bracket misses DEFAULT_GAP, a longer
ascent runs and the dual also tries sigma_0 + sum_x (p_x rho_x - sigma_0)_+;
the ascent takes at most ITERATION_CAP steps in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import Hashable, Sequence

import numpy as np

from .quantum import assert_povm, assert_psd, partial_trace, trace_norm_hermitian

MAX_DIM = 64
DEFAULT_GAP = 1e-6
ITERATION_CAP = 100_000


@dataclass
class CqEnsemble:
    """Classical label with quantum side information; zero-weight labels are dropped."""

    labels: list[Hashable]
    probs: np.ndarray
    states: list[np.ndarray]

    def __post_init__(self) -> None:
        if not (len(self.labels) == len(self.probs) == len(self.states)):
            raise ValueError("labels, probs, states must align")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        probs = np.asarray(self.probs, dtype=float)
        if probs.min() < -1e-12:
            raise ValueError("negative probability")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        keep = [i for i, p in enumerate(probs) if p > 0.0]
        if not keep:
            raise ValueError("empty ensemble")
        self.labels = [self.labels[i] for i in keep]
        self.probs = probs[keep]
        dim = np.asarray(self.states[keep[0]]).shape[0]
        if dim > MAX_DIM:
            raise ValueError(f"side information dimension {dim} exceeds cap {MAX_DIM}")
        states = [np.asarray(self.states[i], dtype=np.complex128) for i in keep]
        if any(rho.shape != (dim, dim) for rho in states):
            raise ValueError("states must share one dimension")
        if any(abs(np.trace(rho).real - 1.0) > 1e-8 for rho in states):
            raise ValueError("state trace != 1")
        assert_psd(states, "state")
        self.states = states

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    def weighted(self) -> list[np.ndarray]:
        return [p * rho for p, rho in zip(self.probs, self.states)]

    def trace_out_last_factor(self, keep_dim: int, drop_dim: int) -> "CqEnsemble":
        """Same ensemble with the trailing tensor factor of each state removed."""
        if keep_dim * drop_dim != self.dim:
            raise ValueError("factor dimensions do not multiply to the state dimension")
        reduced = [partial_trace(rho, [keep_dim, drop_dim], [0]) for rho in self.states]
        return CqEnsemble(list(self.labels), self.probs.copy(), reduced)


@dataclass
class GuessBracket:
    """Certified two-sided estimate of a guessing probability."""

    lower: float
    upper: float
    povm: list[np.ndarray]
    sigma: np.ndarray
    converged: bool
    iterations: int

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def _psd_pinv_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    cut = max(vals.max(), 0.0) * 1e-13
    inv = np.where(vals > cut, 1.0 / np.sqrt(np.maximum(vals, cut)), 0.0)
    return (vecs * inv) @ vecs.conj().T


def _pgm(weighted: list[np.ndarray]) -> list[np.ndarray]:
    """Pretty-good measurement, padded to a complete POVM off the support."""
    avg = np.sum(weighted, axis=0)
    root = _psd_pinv_sqrt(avg)
    povm = [root @ w @ root for w in weighted]
    defect = np.eye(avg.shape[0]) - np.sum(povm, axis=0)
    return [e + defect / len(povm) for e in povm]


def _positive_part(h: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T


def _repair_povm(povm: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Clip negative eigenvalues, then renormalize symmetrically to sum to I."""
    clipped = [_positive_part(0.5 * (np.asarray(e) + np.asarray(e).conj().T)) for e in povm]
    total = np.sum(clipped, axis=0)
    # the total is close to I by construction, so the inverse root is benign
    root = _psd_pinv_sqrt(total + 1e-14 * np.eye(total.shape[0]))
    return [root @ e @ root for e in clipped]


def _primal_value(weighted: Sequence[np.ndarray], povm: Sequence[np.ndarray]) -> float:
    return float(sum(np.trace(w @ e).real for w, e in zip(weighted, povm)))


def _iterate_dual(weighted: Sequence[np.ndarray], povm: Sequence[np.ndarray]) -> np.ndarray:
    """Hermitian part of sum_x w_x E_x, the dual point a primal iterate suggests."""
    sigma = np.zeros_like(weighted[0])
    for w, e in zip(weighted, povm):
        sigma = sigma + w @ e
    return 0.5 * (sigma + sigma.conj().T)


def _dual_from_povm(weighted: Sequence[np.ndarray], povm: Sequence[np.ndarray]) -> np.ndarray:
    """Dual-feasible certificate built from a primal iterate by an identity shift."""
    sigma = _iterate_dual(weighted, povm)
    shift = max(float(np.linalg.eigvalsh(w - sigma).max()) for w in weighted)
    if shift > 0.0:
        sigma = sigma + shift * np.eye(sigma.shape[0])
    return sigma


def _positive_part_dual(weighted: Sequence[np.ndarray], povm: Sequence[np.ndarray]) -> np.ndarray:
    """sigma_0 + sum_x (w_x - sigma_0)_+ for the iterate's sigma_0.

    Feasible by construction: sigma - w_y >= (w_y - sigma_0)_- >= 0 for every y.
    """
    base = _iterate_dual(weighted, povm)
    sigma = base
    for w in weighted:
        sigma = sigma + _positive_part(w - base)
    return sigma


def _ascend(weighted: Sequence[np.ndarray], povm: Sequence[np.ndarray], steps: int) -> tuple[np.ndarray, int]:
    """Fixed-point ascent for the discrimination value, stopping when stalled.

    Works on (k, d, d) stacks. The gradient and the primal value are running
    sums over labels in label order, as the per-label loop added them;
    ``np.sum(axis=0)`` would add pairwise when d = 1 and round differently.
    """
    w = np.asarray(weighted)
    povm = np.asarray(povm)
    eye = np.eye(w.shape[1])
    best = _primal_value(w, povm)
    stall = 0
    done = 0
    for done in range(1, steps + 1):
        wew = w @ povm @ w
        g = wew[0]
        for term in wew[1:]:
            g = g + term
        root = _psd_pinv_sqrt(0.5 * (g + g.conj().T))
        nxt = root @ wew @ root
        nxt = nxt + (eye - np.sum(nxt, axis=0)) / len(nxt)
        val = float(sum(np.trace(w @ nxt, axis1=1, axis2=2).real))
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


def _feasible_dual(weighted: Sequence[np.ndarray], sigma: np.ndarray) -> np.ndarray:
    shift = max(float(np.linalg.eigvalsh(w - sigma).max()) for w in weighted)
    if shift > 0.0:
        sigma = sigma + (shift + 1e-14) * np.eye(sigma.shape[0])
    return sigma


def _verify_certificates(
    weighted: Sequence[np.ndarray], povm: Sequence[np.ndarray], sigma: np.ndarray
) -> tuple[float, float]:
    """Recompute both bracket ends from the certificates alone."""
    assert_povm(povm, weighted[0].shape[0])
    assert_psd(sigma - np.asarray(weighted), "dual certificate sigma - p_x rho_x")
    lower = _primal_value(weighted, povm)
    upper = float(np.trace(sigma).real)
    return lower, upper


def _helstrom_certificates(weighted: Sequence[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """Optimal POVM and dual for two labels from one eigendecomposition of w_0 - w_1."""
    w0, w1 = weighted
    delta = w0 - w1
    vals, vecs = np.linalg.eigh(0.5 * (delta + delta.conj().T))
    plus = vecs[:, vals > 0.0]
    proj = plus @ plus.conj().T
    povm = [proj, np.eye(delta.shape[0]) - proj]
    # sigma - w_0 = Delta_- and sigma - w_1 = Delta_+, both PSD up to rounding
    sigma = w1 + (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
    return povm, _feasible_dual(weighted, sigma)


def pguess(ensemble: CqEnsemble) -> GuessBracket:
    """Certified bracket on the optimal guessing probability of the label.

    Two labels: Helstrom's projector onto the positive part of
    Delta = p_0 rho_0 - p_1 rho_1 and the dual p_1 rho_1 + Delta_+, with no
    iterations. More labels: a feasible POVM seeded by the pretty-good
    measurement and improved by a stacked fixed-point ascent, with the
    iterate made dual-feasible by an identity shift. When that bracket is
    wider than ``DEFAULT_GAP``, a longer ascent runs and the smaller-trace
    dual of the shifted and the positive-part candidates is kept. Every
    certificate is re-verified in numpy.
    """
    weighted = ensemble.weighted()
    dim = ensemble.dim
    if len(weighted) == 1:
        e = [np.eye(dim, dtype=np.complex128)]
        return GuessBracket(1.0, 1.0, e, weighted[0], True, 0)
    if len(weighted) == 2:
        povm, sigma = _helstrom_certificates(weighted)
        lower, upper = _verify_certificates(weighted, povm, sigma)
        return GuessBracket(lower, upper, povm, sigma, upper - lower <= DEFAULT_GAP, 0)

    povm = _pgm(weighted)
    iters_used = 0
    # cheap route first: ascent plus the shifted-iterate dual certificate
    povm, used = _ascend(weighted, povm, min(400, ITERATION_CAP))
    iters_used += used
    povm = _repair_povm(povm)
    sigma = _feasible_dual(weighted, _dual_from_povm(weighted, povm))
    lower, upper = _verify_certificates(weighted, povm, sigma)

    if upper - lower > DEFAULT_GAP:
        # longer ascent, kept only where it improves either certificate
        raw, used = _ascend(weighted, povm, min(2000, ITERATION_CAP - iters_used))
        iters_used += used
        raw = _repair_povm(raw)
        if _primal_value(weighted, raw) > _primal_value(weighted, povm):
            povm = raw
        candidates = (_dual_from_povm(weighted, povm), _positive_part_dual(weighted, povm))
        # min keeps the first of equal traces, so a tie keeps the earlier dual
        sigma = min([sigma, *(_feasible_dual(weighted, c) for c in candidates)],
                    key=lambda s: float(np.trace(s).real))
        lower, upper = _verify_certificates(weighted, povm, sigma)

    return GuessBracket(lower, upper, povm, sigma, upper - lower <= DEFAULT_GAP, iters_used)


def hmin(ensemble: CqEnsemble) -> tuple[float, float]:
    """Bracket [lower, upper] on H_min(X|B) = -log2 p_guess."""
    b = pguess(ensemble)
    return -log2(b.upper), -log2(b.lower)


def helstrom_binary(p0: float, rho0: np.ndarray, p1: float, rho1: np.ndarray) -> float:
    """Closed-form optimal guessing probability for two hypotheses."""
    if abs(p0 + p1 - 1.0) > 1e-10 or min(p0, p1) < 0:
        raise ValueError("priors must be a distribution over two labels")
    diff = p0 * np.asarray(rho0, dtype=np.complex128) - p1 * np.asarray(rho1, dtype=np.complex128)
    return 0.5 * (1.0 + trace_norm_hermitian(diff))


@dataclass
class ChainRuleResult:
    """Outcome of a certified chain-rule comparison H(A|BZ) >= H(A|B) - log2|Z|."""

    holds: bool
    decided: bool
    lhs_bits: tuple[float, float]
    rhs_bits: tuple[float, float]
    z_dim: int


def chain_rule_check(ensemble_bz: CqEnsemble, z_dim: int) -> ChainRuleResult:
    """Certified check that conditioning on a |Z|-dimensional extra register
    costs at most log2|Z| bits of min-entropy.

    The ensemble's states live on B tensor Z with Z the trailing factor.
    Returns decided=False when the two brackets are too wide to separate.
    """
    if z_dim < 1 or ensemble_bz.dim % z_dim != 0:
        raise ValueError("z_dim must divide the side-information dimension")
    b_dim = ensemble_bz.dim // z_dim
    lhs = hmin(ensemble_bz)
    reduced = ensemble_bz.trace_out_last_factor(b_dim, z_dim)
    rhs = hmin(reduced)
    budget = log2(z_dim)
    slack = 1e-9
    if lhs[0] >= rhs[1] - budget - slack:
        return ChainRuleResult(True, True, lhs, rhs, z_dim)
    if lhs[1] < rhs[0] - budget - slack:
        return ChainRuleResult(False, True, lhs, rhs, z_dim)
    return ChainRuleResult(True, False, lhs, rhs, z_dim)
