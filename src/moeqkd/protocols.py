"""One-round and two-round entanglement-based key distribution with
pluggable attackers, plus the exact security experiments for both.

One-round flow: the parties derive a shared basis string theta from the key
exchange, Alice prepares n maximally entangled pairs, keeps one half of each
and sends the other to Bob; both measure in the theta basis. An attacker may
transform the in-transit register, keeping a private register E; classical
messages are authenticated and never altered.

Two-round flow: two independent one-round instances with the sender role
swapped, then one classical message each way carrying a fresh extractor seed,
a hash descriptor, and a digest of the concatenated raw key. Each party
releases an extracted key only if the peer's digest matches its own raw key.

The security experiments are exact where enumeration is feasible: the
weak-security report builds the literal classical-quantum ensemble of the
(resampled) key against E, and the everlasting-distance report computes
trace distances from closed-form conditional ensembles. Digest functions are
modeled as uniform random functions of their key for the exact averages; a
sampling cross-check against the real keyed digests lives in the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from math import log2
from typing import Callable

import numpy as np

from .entropy import MAX_DIM, CqEnsemble, GuessBracket, pguess
from .hashing import CrHashFamily, gf_mul_table, uh_eval, uh_sample_seed
from .nike import (
    IDENTITY_A,
    IDENTITY_B,
    BrokenNike,
    IdealNike,
    NoExactRoute,
    break_toy_dh,
    enumerate_z,
    theta_of_public,
)
from .quantum import (
    bits_to_int,
    epr_block_state,
    measure_in_theta_basis,
    partial_trace,
    theta_unitary,
)

MAX_EVE_QUBITS = 4


@dataclass(frozen=True)
class AdversaryChannel:
    """Transformation of the in-transit register.

    act(public, psi, rng) receives the pure state on (kept, transit) and
    returns a state on (kept, delivered, E) — a vector when the action is an
    isometry, a density matrix when it involves measurement. e_qubits fixes
    the width of E. decoder, when present, is the later unbounded phase:
    it maps a finished transcript to guesses for both measured keys.
    """

    name: str
    e_qubits: int
    act: Callable[[tuple, np.ndarray, np.random.Generator], np.ndarray]
    decoder: Callable[[Transcript, np.random.Generator], tuple] | None = None


@dataclass
class Transcript:
    """Everything observable from one protocol run, JSON-exportable."""

    scheme: str
    n: int
    pp: tuple | None = None
    pk_a: object = None
    pk_b: object = None
    theta_a: tuple | None = None
    theta_b: tuple | None = None
    k_a: tuple | None = None
    k_b: tuple | None = None
    rho_e: np.ndarray | None = None
    subs: tuple | None = None
    round2: dict | None = None
    kstar_a: int | None = None
    kstar_b: int | None = None

    def to_json(self) -> str:
        def enc(x):
            if isinstance(x, np.ndarray):
                return {"re": x.real.tolist(), "im": x.imag.tolist()}
            if isinstance(x, bytes):
                return x.hex()
            if isinstance(x, Transcript):
                return enc(x.__dict__)
            if isinstance(x, dict):
                return {k: enc(v) for k, v in x.items()}
            if isinstance(x, (tuple, list)):
                return [enc(v) for v in x]
            return x

        payload = {k: enc(v) for k, v in self.__dict__.items()}
        return json.dumps(payload, sort_keys=True)


def identity_adversary(n: int) -> AdversaryChannel:
    """Relays the transit register untouched and keeps nothing."""
    return AdversaryChannel("identity", 0, lambda public, psi, rng: psi)


def entangling_relay_adversary(n: int) -> AdversaryChannel:
    """Copies each transit qubit coherently into E, then delivers the original."""

    def act(public, psi, rng):
        t = psi.reshape(2**n, 2**n)
        out = np.zeros((2**n, 2**n, 2**n), dtype=np.complex128)
        for e in range(2**n):
            out[:, e, e] = t[:, e]
        return out.reshape(-1)

    return AdversaryChannel("entangling_relay", n, act)


def measure_resend_adversary(n: int) -> AdversaryChannel:
    """Measures the transit register in the computational basis, records the
    outcome classically in E, and forwards the collapsed register."""

    relay = entangling_relay_adversary(n).act

    def act(public, psi, rng):
        v = relay(public, psi, rng)
        rho = np.outer(v, v.conj())
        r = rho.reshape(4**n, 2**n, 4**n, 2**n)
        r = r * np.eye(2**n)[None, :, None, :]  # kill coherence in the record
        return r.reshape(8**n, 8**n)

    return AdversaryChannel("measure_resend", n, act)


def swap_epr_attack(n: int) -> AdversaryChannel:
    """Keeps the whole transit register and delivers halves of fresh pairs.

    E holds the kept register and the partner halves of the delivered pairs,
    so the later unbounded phase can read off both measured keys once it has
    brute-forced theta from the public tuple.
    """

    def act(public, psi, rng):
        t = psi.reshape(2**n, 2**n)
        fresh = epr_block_state(n).reshape(2**n, 2**n)
        # registers: kept A, delivered B, E = (original transit, fresh partners)
        out = np.einsum("at,bf->abtf", t, fresh)
        return out.reshape(-1)

    def decoder(transcript: Transcript, rng: np.random.Generator) -> tuple:
        p = (transcript.pp, transcript.pk_a, transcript.pk_b)
        if transcript.pp[0] == "broken":
            theta = theta_of_public(p)
        else:
            theta = break_toy_dh(p)
        bits, _ = measure_in_theta_basis(
            transcript.rho_e, list(range(2 * n)), theta + theta, rng
        )
        return bits[:n], bits[n:]

    return AdversaryChannel("swap_epr", 2 * n, act, decoder)


BUILTIN_ADVERSARIES = {
    "none": lambda n: None,
    "identity": identity_adversary,
    "entangling_relay": entangling_relay_adversary,
    "measure_resend": measure_resend_adversary,
    "swap_epr": swap_epr_attack,
}


def run_niqkd(scheme, n: int, adversary: AdversaryChannel | None, rng: np.random.Generator) -> Transcript:
    """One full protocol run; keys stay None when key exchange fails."""
    if scheme.n != n:
        raise ValueError("scheme length mismatch")
    # adversary runs force a 3n-or-wider register, honest runs stay pure
    if adversary is not None and n > 4:
        raise ValueError("adversarial runs limited to n <= 4")
    if n > 10:
        raise ValueError("honest runs limited to n <= 10")
    pp = scheme.setup(rng)
    sk_a, pk_a = scheme.gen(pp, IDENTITY_A, rng)
    sk_b, pk_b = scheme.gen(pp, IDENTITY_B, rng)
    theta_a = scheme.sdk(IDENTITY_B, pk_b, IDENTITY_A, sk_a)
    theta_b = scheme.sdk(IDENTITY_A, pk_a, IDENTITY_B, sk_b)
    tx = Transcript(scheme=scheme.name, n=n, pp=pp, pk_a=pk_a, pk_b=pk_b,
                    theta_a=theta_a, theta_b=theta_b)
    if theta_a is None or theta_b is None:
        return tx

    state = epr_block_state(n)
    e_qubits = 0
    if adversary is not None:
        state = adversary.act((pp, pk_a, pk_b), state, rng)
        e_qubits = adversary.e_qubits
    bits_a, state = measure_in_theta_basis(state, list(range(n)), theta_a, rng)
    bits_b, state = measure_in_theta_basis(state, list(range(n, 2 * n)), theta_b, rng)
    tx.k_a, tx.k_b = bits_a, bits_b
    if e_qubits:
        if state.ndim == 1:
            v = state.reshape(4**n, 2**e_qubits)
            tx.rho_e = np.einsum("ac,ad->cd", v, v.conj())
        else:
            tx.rho_e = partial_trace(state, [4**n, 2**e_qubits], [1])
    return tx


def extract_bits(n: int, m: int) -> int:
    """Output width of the final extraction: the digest width, capped by the
    raw key length (the source is only 2n bits)."""
    return min(m, 2 * n)


def run_two_round(scheme, n: int, m: int, adversary, rng: np.random.Generator) -> Transcript:
    """Two role-swapped one-round instances plus one authenticated classical
    message each way; adversary may be one channel (applied to both transits)
    or a pair (sub0, sub1) with None entries."""
    if isinstance(adversary, (tuple, list)):
        adv0, adv1 = adversary
    else:
        adv0 = adv1 = adversary
    sub0 = run_niqkd(scheme, n, adv0, rng)
    sub1_raw = run_niqkd(scheme, n, adv1, rng)
    # roles swap in the second instance: its preparer/sender is Bob
    sub1 = Transcript(scheme=sub1_raw.scheme, n=n, pp=sub1_raw.pp,
                      pk_a=sub1_raw.pk_b, pk_b=sub1_raw.pk_a,
                      theta_a=sub1_raw.theta_b, theta_b=sub1_raw.theta_a,
                      k_a=sub1_raw.k_b, k_b=sub1_raw.k_a, rho_e=sub1_raw.rho_e)
    tx = Transcript(scheme=scheme.name, n=n, subs=(sub0, sub1))
    if None in (sub0.k_a, sub0.k_b, sub1.k_a, sub1.k_b):
        return tx

    key_a = sub0.k_a + sub1.k_a
    key_b = sub0.k_b + sub1.k_b
    tx.k_a, tx.k_b = key_a, key_b
    ka_int, kb_int = bits_to_int(key_a), bits_to_int(key_b)

    family = CrHashFamily(2 * n, m)
    h_a = family.sample(rng)
    h_b = family.sample(rng)
    seed_a = uh_sample_seed(2 * n, rng)
    seed_b = uh_sample_seed(2 * n, rng)
    digest_a = h_a.digest(ka_int)
    digest_b = h_b.digest(kb_int)
    ell = extract_bits(n, m)
    seed = (seed_a[0] ^ seed_b[0], seed_a[1] ^ seed_b[1])
    tx.round2 = {
        "seed_a": seed_a, "seed_b": seed_b,
        "hash_a": h_a.key, "hash_b": h_b.key,
        "digest_a": digest_a, "digest_b": digest_b,
        "m": m, "ell": ell,
    }
    if h_b.digest(ka_int) == digest_b:
        tx.kstar_a = uh_eval(2 * n, ell, seed, ka_int)
    if h_a.digest(kb_int) == digest_a:
        tx.kstar_b = uh_eval(2 * n, ell, seed, kb_int)
    return tx


@dataclass(frozen=True)
class WeakSecReport:
    hmin_lower: float
    hmin_upper: float
    bracket: GuessBracket
    agree_rate: float
    ensemble: CqEnsemble | None = None


def _conditional_blocks(state: np.ndarray, n: int, e_dim: int, theta: tuple[int, ...]) -> np.ndarray:
    """sigma[a, b] = <ab|_theta state |ab>_theta as operators on E."""
    u = theta_unitary(theta)  # symmetric: row a is |a>_theta
    if state.ndim == 1:
        t = state.reshape(2**n, 2**n, e_dim)
        amp = np.einsum("ai,bj,ijc->abc", u.conj(), u.conj(), t)
        return np.einsum("abc,abd->abcd", amp, amp.conj())
    r = state.reshape(2**n, 2**n, e_dim, 2**n, 2**n, e_dim)
    return np.einsum("ai,bj,ijckld,ak,bl->abcd", u.conj(), u.conj(), r, u, u)


def weak_security_report(
    scheme, n: int, adversary: AdversaryChannel | None, rng: np.random.Generator
) -> WeakSecReport:
    """Exact ensemble of the final key against E, with the key redrawn
    uniformly whenever the two measured keys disagree.

    Works for schemes with an exact (p, theta) enumeration. When the public
    tuple itself reveals theta, E is extended by a classical theta register.
    No protocol trial runs here; ``harness._niqkd`` scores the adversary's
    decoder in its own trial loop.
    """
    e_qubits = adversary.e_qubits if adversary is not None else 0
    if e_qubits > MAX_EVE_QUBITS:
        raise NoExactRoute("E register too large for the exact path")
    reveal_theta = isinstance(scheme, BrokenNike)
    e_dim = 2**e_qubits
    full_dim = e_dim * (2**n if reveal_theta else 1)
    if full_dim > MAX_DIM:
        raise NoExactRoute("ensemble dimension exceeds the SDP cap")
    entries = enumerate_z(scheme, rng)

    blocks = [np.zeros((full_dim, full_dim), dtype=np.complex128) for _ in range(2**n)]
    agree = 0.0
    psi0 = epr_block_state(n)
    for z, w in entries:
        state = adversary.act(z.p, psi0, rng) if adversary is not None else psi0
        sigma = _conditional_blocks(state, n, e_dim, z.theta)
        diag = np.einsum("kkcd->kcd", sigma)
        agree += w * float(np.einsum("kcc->", diag).real)
        rest = np.einsum("abcd->cd", sigma) - diag.sum(axis=0)
        for k in range(2**n):
            contrib = diag[k] + rest / 2**n
            if reveal_theta:
                t_idx = bits_to_int(z.theta)
                wide = np.zeros((full_dim, full_dim), dtype=np.complex128)
                lo = t_idx * e_dim
                wide[lo:lo + e_dim, lo:lo + e_dim] = contrib
                contrib = wide
            blocks[k] += w * contrib

    probs = np.array([float(np.trace(b).real) for b in blocks])
    states = [b / p for b, p in zip(blocks, probs)]
    ens = CqEnsemble(list(range(2**n)), probs, states)
    bracket = pguess(ens)

    return WeakSecReport(
        hmin_lower=-log2(bracket.upper),
        hmin_upper=-log2(bracket.lower),
        bracket=bracket,
        agree_rate=agree,
        ensemble=ens,
    )


def _passive_distance(n: int, m: int) -> float:
    """Exact trace distance for an attacker who only reads the classical flow.

    Both raw keys equal a uniform 2n-bit K. The view is (digest functions,
    digests, seeds); given the view, K is uniform on the joint digest
    preimage S, and the extracted bit string is top(a*K) xor top(b). The
    distance reduces to an average over (S, a) of |count/|S| - 2^-ell| terms;
    subsets S are weighted by the random-function law of the digest pair.
    """
    bits = 2 * n
    ell = extract_bits(n, m)
    size = 2**bits
    if size > 16 or m != 1:
        raise NoExactRoute("exact passive route limited to n <= 2, m = 1")
    tab = gf_mul_table(bits) >> (bits - ell)  # tab[a, x] in {0, 1} since ell = 1
    masks = np.arange(2**size, dtype=np.uint64)
    member = ((masks[:, None] >> np.arange(size, dtype=np.uint64)[None, :]) & 1).astype(np.float64)
    sizes = member.sum(axis=1)
    # P(S): every point beyond the true key joins independently with 2^-2m
    q = 2.0 ** (-2 * m)
    weights = (sizes / size) * q ** (sizes - 1) * (1 - q) ** (size - sizes)
    counts = member @ tab.T.astype(np.float64)  # [S, a] -> ones among S
    with np.errstate(invalid="ignore"):
        dev = np.abs(counts / sizes[:, None] - 0.5)
    dev[sizes == 0] = 0.0
    # b shifts the output uniformly and the viewer knows b, so it drops out
    return float((weights * dev.mean(axis=1)).sum())


def _swap_distance(n: int, m: int) -> tuple[float, float]:
    """Exact trace distances when the first sub-instance transit is swapped
    for fresh pairs; feasible by full enumeration only at n = 1, m = 1.

    A configuration is (f_a, f_b, d_a, d_b, s): both digest functions, both
    digests and the extractor seed s = (a, b). For each one, side and output
    y, an accumulator sums the hidden (theta, ka0, kb0, k1) terms on E.
    Configurations are taken one f_a block at a time. Each term writes 2 bits
    of a (row, side) signature, 0 when gated out and 1 + kstar otherwise; the
    terms are added in order once per distinct signature, one stacked eigvalsh
    gives the trace norms, and they are summed in configuration order.
    """
    if n != 1 or m != 1:
        raise NoExactRoute("exact swap route limited to n = 1, m = 1")
    bits = 2  # raw key width
    ell = extract_bits(n, m)
    size = 2**bits
    n_funcs = 2**size  # all digest functions {0,1}^2 -> {0,1}
    products = gf_mul_table(bits)

    # Eve's quantum side: |ka0>_theta (x) |kb0>_theta, dim 4
    omega = np.zeros((2, 2, 2, 4, 4), dtype=np.complex128)
    for theta in (0, 1):
        u = theta_unitary((theta,))
        for ka0 in (0, 1):
            for kb0 in (0, 1):
                v = np.kron(u[:, ka0], u[:, kb0])
                omega[theta, ka0, kb0] = np.outer(v, v.conj())

    def f_eval(f, x):
        return (f >> x) & 1

    # one row per (f_b, d_a, d_b, a, b), in the order the distances sum them
    f_b, d_a, d_b, seed_a, seed_b = (
        idx.ravel() for idx in np.indices((n_funcs, 2, 2, size, size))
    )
    terms = list(product((0, 1), repeat=4))  # (theta, ka0, kb0, k1)
    shifts = 2 * np.arange(len(terms))

    dist = [0.0, 0.0]
    hidden_prob = 0.5 * 0.125 * (1 / n_funcs) ** 2 * (1 / 16)  # theta, keys, f_a, f_b, s
    for f_a in range(n_funcs):
        sig = np.zeros((f_b.size, 2), dtype=np.int64)  # [row, side]
        for i, (theta, ka0, kb0, k1) in enumerate(terms):
            key_a = (ka0 << 1) | k1
            key_b = (kb0 << 1) | k1
            seen = (f_eval(f_a, key_a) == d_a) & (f_eval(f_b, key_b) == d_b)
            gate_a = seen & (f_eval(f_b, key_a) == d_b)
            gate_b = seen & (f_eval(f_a, key_b) == d_a)
            for side, (gate, key) in enumerate(((gate_a, key_a), (gate_b, key_b))):
                live = np.flatnonzero(gate)
                kstar = (products[seed_a[live], key] ^ seed_b[live]) >> (bits - ell)
                sig[live, side] |= (1 + kstar) << shifts[i]
        uniq, inverse = np.unique(sig, return_inverse=True)
        codes = (uniq[:, None] >> shifts) & 3
        # acc[u, y] is the operator on E for output y of signature u
        acc = np.zeros((uniq.size, 2, 4, 4), dtype=np.complex128)
        for i, (theta, ka0, kb0, _) in enumerate(terms):
            # ungated accumulators: the final output None matches the resampled None
            live = np.flatnonzero(codes[:, i])
            w = hidden_prob * omega[theta, ka0, kb0]
            acc[live, codes[live, i] - 1] += w
            for y in (0, 1):
                acc[live, y] -= w / 2
        norms = np.abs(np.linalg.eigvalsh(acc)).sum(axis=-1)[inverse.reshape(sig.shape)]
        for side in range(2):  # cumsum adds one by one, in (row, y) order
            dist[side] = float(np.cumsum(np.r_[dist[side], 0.5 * norms[:, side].ravel()])[-1])
    return dist[0], dist[1]


def everlasting_distance_report(scheme, n: int, m: int, adversary) -> tuple[float, float]:
    """Exact trace distance between (view, extracted key) and (view, fresh
    uniform key), for Alice's and Bob's outputs; the None branches coincide
    by construction and cancel.

    Supported exactly: no adversary (any scheme, n <= 2, m = 1) and the
    swap attack on the first sub-instance (IdealNike, n = 1, m = 1). Any
    other configuration raises NoExactRoute, and the harness omits its rows.
    """
    if adversary is None:
        d = _passive_distance(n, m)
        return d, d
    sub0, sub1 = adversary if isinstance(adversary, (tuple, list)) else (adversary, adversary)
    if sub1 is not None or sub0 is None or sub0.name != "swap_epr":
        raise NoExactRoute("no exact route for this adversary")
    if not isinstance(scheme, IdealNike):
        raise NoExactRoute("exact swap route assumes an opaque public tuple")
    return _swap_distance(n, m)
