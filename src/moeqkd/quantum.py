"""Dense linear algebra for small multi-qubit registers.

Conventions used across the package:

* Qubit order is big-endian: qubit 0 is the most significant bit of a basis
  index, so ``|x1 x2 ... xn>`` lives at integer index ``x1*2^(n-1)+...+xn``.
* Pure states are 1-d complex arrays, density operators 2-d complex arrays.
* Composite registers are laid out sender-first: register A occupies the
  leading qubits, then B, then any adversary register.
* A basis choice ("theta") is a tuple of bits, one per qubit; bit 1 means the
  Hadamard-rotated basis on that qubit, bit 0 the computational basis.
  ``theta_unitary`` (H^theta; column x is |x>_theta) is the one theta-basis
  kernel: basis vectors, projectors and ``theta_amplitudes`` read from it.
  ``theta_amplitudes`` contracts one register at a time by matrix products
  for the Monte-Carlo callers; the exact callers contract both registers in
  one einsum of their own, whose rounding their pinned outputs depend on.
  Frames on at most ``CACHED_FRAME_QUBITS`` (4) qubits, every trial loop's
  size, are built once per theta and returned read-only (73 KiB for all 31
  of them); larger frames are built fresh on each call.
* ``measure_in_theta_basis`` rotates one qubit at a time, by one ``np.dot``
  with H on a reshaped view: the product ``np.tensordot`` would run, so the
  protocol transcripts keep their exact bits. The measured register is
  brought forward by one ``transpose``, whose permutation is computed once
  per (qubit count, measured qubits, rank). A state of at most
  ``CACHED_STATE_AMPLITUDES`` (256) entries, 4 KiB, has its outcome law
  cached, keyed on (shape, the complex128 bytes, qubits, theta): the cdf
  over outcomes, and each collapsed state once that outcome is first drawn,
  returned read-only. Each call still runs every check, then takes its one
  ``rng.random()`` for the search of the cdf. Two LRU caches of 256 entries
  bound the memory at 5 MiB (a law keeps at most 12 KiB, a collapsed state
  8 KiB, keys included). Larger states run the same functions uncached.
  ``epr_block_state`` on at most 4 pairs is built once per n, read-only.
* Every weighted draw goes through ``draw_index`` (the measurement through its
  two halves, the cdf cached), which returns the index
  ``rng.choice(len(p), p=p)`` returns and leaves the generator in the same
  state, at about half its cost. The equality rests on numpy's implementation of
  ``Generator.choice``; ``pyproject`` requires numpy >= 2.0 for it, and a
  test checks it.
* ``assert_psd`` is the package's one hermitian-and-PSD verdict, at ATOL_EIG;
  ``assert_state`` (a pure state or a density operator) and ``assert_povm``
  (which returns the checked (k, d, d) stack) call it, and so does ``entropy``.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Sequence

import numpy as np

# Tolerance tiers. Structural identities hold to machine precision; anything
# routed through an eigensolver gets the looser tier.
ATOL_STRUCT = 1e-12
ATOL_EIG = 1e-9
ATOL_NORM = 1e-10

# Dimension guard: dense operators on more than 13 qubits would silently chew
# through memory, so refuse them.
MAX_DENSITY_QUBITS = 13

# theta frames up to this width are cached; a cached 13-qubit frame would pin 1 GiB
CACHED_FRAME_QUBITS = 4

# measured states (and EPR blocks) of at most this many entries are cached
CACHED_STATE_AMPLITUDES = 1 << 8

# Generator.choice rejects a p whose sum is further than this from 1
_P_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
_IDENTITY = np.eye(2, dtype=np.complex128)

_BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


def int_to_bits(x: int, n: int) -> tuple[int, ...]:
    """Big-endian bit tuple of x, n bits wide."""
    if x < 0 or x >> n:
        raise ValueError(f"{x} does not fit in {n} bits")
    return tuple((x >> (n - 1 - i)) & 1 for i in range(n))


def bits_to_int(bits: Sequence[int]) -> int:
    """Integer value of a big-endian bit sequence."""
    out = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"not a bit: {b!r}")
        out = (out << 1) | b
    return out


def n_qubits_of(dim: int) -> int:
    """Number of qubits for a power-of-two dimension."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def assert_psd(ops: np.ndarray, what: str) -> None:
    """Raise unless each matrix over the last two axes is hermitian (allclose at
    ATOL_EIG) with no eigenvalue below -ATOL_EIG; one stacked call for each."""
    ops = np.asarray(ops)
    if not np.allclose(ops, ops.conj().swapaxes(-1, -2), atol=ATOL_EIG):
        raise ValueError(f"{what} not hermitian")
    low = float(np.linalg.eigvalsh(ops).min())
    if low < -ATOL_EIG:
        raise ValueError(f"{what} not positive semidefinite (smallest eigenvalue {low!r})")


def assert_state(state: np.ndarray) -> int:
    """Validate a pure state (unit norm, any size) or a density operator (unit
    trace, PSD, at most MAX_DENSITY_QUBITS); returns the qubit count."""
    state = np.asarray(state)
    if state.ndim == 1:
        if abs(np.linalg.norm(state) - 1.0) > ATOL_NORM:
            raise ValueError("pure state not normalized")
        return n_qubits_of(state.shape[0])
    if state.ndim != 2 or state.shape[0] != state.shape[1]:
        raise ValueError("density operator must be square")
    n = n_qubits_of(state.shape[0])
    if n > MAX_DENSITY_QUBITS:
        raise ValueError(f"density operator on {n} qubits exceeds the {MAX_DENSITY_QUBITS}-qubit cap")
    tr = complex(np.trace(state))
    if abs(tr - 1.0) > ATOL_NORM:
        raise ValueError(f"density operator trace {tr} != 1")
    assert_psd(state, "density operator")
    return n


def assert_povm(povm: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """The elements as one (k, dim, dim) complex stack, a copy; raises unless
    each is hermitian and PSD (``assert_psd``) and they sum to the identity."""
    stack = np.array(povm, dtype=np.complex128)
    if stack.shape[1:] != (dim, dim):
        raise ValueError("POVM element shape mismatch")
    assert_psd(stack, "POVM element")
    if np.abs(stack.sum(axis=0) - np.eye(dim)).max() > 1e-7:
        raise ValueError("POVM does not sum to the identity")
    return stack


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of all factors, left factor most significant."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(factors[0], dtype=np.complex128)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=np.complex128))
    return out


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all tensor factors except ``keep`` (indices into ``dims``).

    Works for arbitrary factor dimensions; the kept factors stay in their
    original relative order.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    dims = list(int(d) for d in dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(f"operator shape {rho.shape} does not match dims {dims}")
    keep = sorted(set(int(q) for q in keep))
    if keep and (keep[0] < 0 or keep[-1] >= len(dims)):
        raise ValueError("keep index out of range")
    drop = [q for q in range(len(dims)) if q not in keep]
    t = rho.reshape(dims + dims)
    k = len(dims)
    for q in sorted(drop, reverse=True):
        t = np.trace(t, axis1=q, axis2=k + q)
        k -= 1
    d_keep = int(np.prod([dims[q] for q in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def trace_norm_hermitian(a: np.ndarray) -> float:
    """Trace norm of a hermitian matrix via its eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def operator_union_bound_witness(projectors: Sequence[np.ndarray]) -> float:
    """Smallest eigenvalue of sum_i(I x..x (I-P_i) x..x I) - (I - tensor_i P_i).

    A nonnegative witness (up to tolerance) certifies the operator union bound
    for this tuple of projectors.
    """
    projs = [np.asarray(p, dtype=np.complex128) for p in projectors]
    dims = [p.shape[0] for p in projs]
    lhs = np.eye(int(np.prod(dims))) - tensor(*projs)
    rhs = np.zeros_like(lhs)
    for i, p in enumerate(projs):
        left = np.eye(int(np.prod(dims[:i])))
        right = np.eye(int(np.prod(dims[i + 1:])))
        rhs = rhs + tensor(left, np.eye(dims[i]) - p, right)
    return float(np.linalg.eigvalsh(rhs - lhs).min())


def theta_unitary(theta: Sequence[int]) -> np.ndarray:
    """H^theta as a 2^n x 2^n matrix: column x is |x>_theta. It is real and
    symmetric, so row x is |x>_theta as well. For n <= CACHED_FRAME_QUBITS
    the one cached, read-only frame is returned; callers must not write to it."""
    if len(theta) > MAX_DENSITY_QUBITS:
        raise ValueError("theta unitary too large")
    for tb in theta:
        if tb not in (0, 1):
            raise ValueError(f"not a bit: {tb!r}")
    if len(theta) <= CACHED_FRAME_QUBITS:
        # one key per theta, whatever int-like type its bits come as
        return _cached_frame(tuple(1 if tb else 0 for tb in theta))
    return _kron_frame(theta)


def _kron_frame(theta: Sequence[int]) -> np.ndarray:
    u = np.ones((1, 1), dtype=np.complex128)
    for tb in theta:
        u = np.kron(u, HADAMARD if tb else _IDENTITY)
    return u


@cache
def _cached_frame(theta: tuple[int, ...]) -> np.ndarray:
    """H^theta for validated bits, cached per theta and returned read-only."""
    u = _kron_frame(theta)
    u.flags.writeable = False
    return u


def theta_basis_state(x: int | Sequence[int], theta: Sequence[int]) -> np.ndarray:
    """The basis vector |x>_theta: column x of theta_unitary(theta)."""
    n = len(theta)
    bits = int_to_bits(x, n) if isinstance(x, (int, np.integer)) else tuple(x)
    if len(bits) != n:
        raise ValueError("x and theta length mismatch")
    return theta_unitary(theta)[:, bits_to_int(bits)]


def theta_amplitudes(psi: np.ndarray, theta: Sequence[int], e_dim: int) -> np.ndarray:
    """amp[a, b] = <ab|_theta psi on the trailing e_dim register, for psi on
    two n-qubit registers read in the theta basis; ||amp[a, b]||^2 = Pr(a, b).

    Contracts one register at a time with two matrix products, 2 d^3 e_dim
    multiply-adds for d = 2^n. This order rounds differently from the joint
    contraction einsum("ai,bj,ijc->abc"), whose rounding the pinned exact
    values depend on. So only the sampled game and the distinguisher read
    amplitudes from here; ``exact_pwin`` takes the agreement diagonal of the
    joint einsum and the weak-security blocks take the joint einsum inline.
    """
    d = 1 << len(theta)
    uc = theta_unitary(theta).conj()
    t = np.asarray(psi, dtype=np.complex128).reshape(d, d * e_dim)
    return uc @ (uc @ t).reshape(d, d, e_dim)


def bell_state(kind: str) -> np.ndarray:
    """One of the four Bell vectors phi+/phi-/psi+/psi- on two qubits."""
    if kind not in _BELL_KINDS:
        raise ValueError(f"unknown Bell state {kind!r}")
    v = np.zeros(4, dtype=np.complex128)
    s = 1.0 if kind.endswith("+") else -1.0
    if kind.startswith("phi"):
        v[0b00], v[0b11] = 1.0, s
    else:
        v[0b01], v[0b10] = 1.0, s
    return v / np.sqrt(2.0)


def epr_block_state(n: int) -> np.ndarray:
    """n maximally entangled pairs, pair i on qubits (i, n+i): sum_x |x>|x> / 2^(n/2).
    For 4^n <= CACHED_STATE_AMPLITUDES the one cached, read-only vector is
    returned; callers must not write to it."""
    if n < 1:
        raise ValueError("need at least one pair")
    if 4**n <= CACHED_STATE_AMPLITUDES:
        return _cached_epr(n)
    return _epr(n)


@cache
def _cached_epr(n: int) -> np.ndarray:
    v = _epr(n)
    v.flags.writeable = False
    return v


def _epr(n: int) -> np.ndarray:
    d = 1 << n
    v = np.zeros(d * d, dtype=np.complex128)
    v[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return v


def embed_operator(op: np.ndarray, positions: Sequence[int], n_qubits: int) -> np.ndarray:
    """Place a k-qubit operator onto the ordered qubit list ``positions``.

    positions[j] names the global qubit that plays the role of the operator's
    j-th qubit; remaining qubits get the identity.
    """
    op = np.asarray(op, dtype=np.complex128)
    positions = [int(q) for q in positions]
    k = n_qubits_of(op.shape[0])
    if op.shape != (1 << k, 1 << k):
        raise ValueError("operator must be square with power-of-two dimension")
    if len(positions) != k or len(set(positions)) != k:
        raise ValueError("positions must be k distinct qubit indices")
    if any(q < 0 or q >= n_qubits for q in positions):
        raise ValueError("position out of range")
    if n_qubits > MAX_DENSITY_QUBITS:
        raise ValueError("embedding would exceed the dense-operator cap")
    rest = [q for q in range(n_qubits) if q not in positions]
    full = np.kron(op, np.eye(1 << (n_qubits - k), dtype=np.complex128))
    # full's tensor factors are ordered positions + rest; permute into natural order
    order = positions + rest
    perm = list(np.argsort(order))
    t = full.reshape((2,) * (2 * n_qubits))
    t = t.transpose(perm + [n_qubits + p for p in perm])
    return t.reshape(1 << n_qubits, 1 << n_qubits)


def agreement_projector(theta: Sequence[int]) -> np.ndarray:
    """Projector sum_x |xx><xx|_theta on 2n qubits, A-register first then B."""
    n = len(theta)
    if 2 * n > MAX_DENSITY_QUBITS:
        raise ValueError("agreement projector too large")
    d = 1 << n
    p = np.zeros((d * d, d * d), dtype=np.complex128)
    idx = np.arange(d) * d + np.arange(d)
    p[idx, idx] = 1.0
    u = theta_unitary(theta)
    w = np.kron(u, u)
    return w @ p @ w.conj().T


def block_projectors(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The block test pair (M0, M1) on 2n qubits, A-register first then B.

    M1 projects every size-s pair block outside its maximally entangled
    subspace; M0 is its complement. Pair block j covers A-qubits
    [j*s, (j+1)*s) and the matching B-qubits.
    """
    if n < 1 or s < 1:
        raise ValueError("n and s must be positive")
    if n % s:
        raise ValueError(f"block size {s} does not divide {n}")
    if 2 * n > MAX_DENSITY_QUBITS:
        raise ValueError("block projectors too large")
    epr = epr_block_state(s)
    outside = np.eye(1 << (2 * s), dtype=np.complex128) - np.outer(epr, epr.conj())
    m1 = np.eye(1 << (2 * n), dtype=np.complex128)
    for j in range(n // s):
        pos = list(range(j * s, (j + 1) * s)) + list(range(n + j * s, n + (j + 1) * s))
        m1 = m1 @ embed_operator(outside, pos, 2 * n)
    m0 = np.eye(1 << (2 * n), dtype=np.complex128) - m1
    return m0, m1


def _rotate_theta(state: np.ndarray, n: int, qubits: Sequence[int], theta: Sequence[int]) -> np.ndarray:
    """H on every qubit whose theta bit is 1: one np.dot with H on the (2, rest)
    layout np.tensordot builds, so it rounds as a per-qubit tensordot; a
    density operator's columns get np.dot(., H^dagger) on the (rest, 2) layout."""
    for q, tb in zip(qubits, theta):
        if not tb:
            continue
        t = state.reshape(1 << q, 2, -1).transpose(1, 0, 2).reshape(2, -1)
        t = np.dot(HADAMARD, t).reshape(2, 1 << q, -1).transpose(1, 0, 2)
        if state.ndim == 2:
            t = t.reshape(1 << (n + q), 2, -1).transpose(0, 2, 1).reshape(-1, 2)
            t = np.dot(t, HADAMARD.conj().T).reshape(1 << (n + q), -1, 2).transpose(0, 2, 1)
        state = t.reshape(state.shape)
    return state


def _cdf(p: np.ndarray) -> np.ndarray:
    """Normalized cumulative sum of p; like ``rng.choice``, a ``p`` whose sum
    is NaN or off 1 by more than sqrt(float64 eps) raises ``ValueError``."""
    cdf = np.cumsum(p)
    if not abs(cdf[-1] - 1.0) <= _P_SUM_ATOL:
        raise ValueError(f"probabilities sum to {cdf[-1]!r}, not 1")
    cdf /= cdf[-1]
    return cdf


def _search(cdf: np.ndarray, rng: np.random.Generator) -> int:
    return int(cdf.searchsorted(rng.random(), side="right"))


def draw_index(p: np.ndarray, rng: np.random.Generator) -> int:
    """The index ``rng.choice(len(p), p=p)`` draws, from the one ``rng.random()``
    it takes, so the generator ends in the same state. ``p`` is nonnegative and
    checked by ``_cdf`` before anything is drawn."""
    return _search(_cdf(p), rng)


@lru_cache(maxsize=1024)  # bounded: any subset of up to 13 qubits may be measured
def _measure_layout(n: int, qubits: tuple[int, ...], ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(perm, inverse) bringing the measured qubits forward, the rest following
    in order; a density operator permutes its column qubits the same way.
    Qubits are range-checked here, on a cache miss only."""
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for a {n}-qubit state")
    perm = list(qubits) + [q for q in range(n) if q not in qubits]
    if ndim == 2:
        perm += [n + q for q in perm]
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    return tuple(perm), tuple(inverse)


def _outcome_law(state: np.ndarray, qubits: tuple[int, ...], theta: tuple[int, ...]) -> tuple:
    """(cdf, probs, block) for measuring a checked state: the outcome law and
    the state rotated into the computational frame, measured register first."""
    n, r = n_qubits_of(state.shape[0]), len(qubits)
    perm, _ = _measure_layout(n, qubits, state.ndim)
    t = _rotate_theta(state, n, qubits, theta).reshape((2,) * len(perm)).transpose(perm)
    if state.ndim == 1:
        block = t.reshape(1 << r, -1)
        probs = np.maximum((np.abs(block) ** 2).sum(axis=1).real, 0.0)
    else:
        block = t.reshape(1 << r, 1 << (n - r), 1 << r, 1 << (n - r))
        probs = np.maximum(np.einsum("xixi->x", block).real, 0.0)
    probs = probs / probs.sum()
    return _cdf(probs), probs, block


def _outcome(law: tuple, shape: tuple[int, ...], qubits: tuple[int, ...], theta: tuple[int, ...],
             x: int) -> tuple[tuple[int, ...], np.ndarray]:
    """(bits, state) of outcome x: the block collapsed onto x, renormalized and
    rotated back (H is self-inverse, so the same rotation undoes)."""
    _, probs, block = law
    n = n_qubits_of(shape[0])
    post = np.zeros_like(block)
    if len(shape) == 1:
        post[x] = block[x] / np.sqrt(probs[x])
    else:
        post[x, :, x, :] = block[x, :, x, :] / probs[x]
    _, inverse = _measure_layout(n, qubits, len(shape))
    t = post.reshape((2,) * len(inverse)).transpose(inverse).reshape(shape)
    return int_to_bits(x, len(qubits)), _rotate_theta(t, n, qubits, theta)


# Keys hold a state's bytes (at most 4 KiB); a law adds a block of the same
# size and two float arrays of at most 2 KiB, an outcome its 4 KiB state.
@lru_cache(maxsize=256)
def _cached_law(shape: tuple[int, ...], data: bytes, qubits: tuple[int, ...],
                theta: tuple[int, ...]) -> tuple:
    return _outcome_law(np.frombuffer(data, dtype=np.complex128).reshape(shape), qubits, theta)


@lru_cache(maxsize=256)
def _cached_outcome(shape: tuple[int, ...], data: bytes, qubits: tuple[int, ...], theta: tuple[int, ...],
                    x: int) -> tuple[tuple[int, ...], np.ndarray]:
    bits, post = _outcome(_cached_law(shape, data, qubits, theta), shape, qubits, theta, x)
    post.flags.writeable = False
    return bits, post


def measure_in_theta_basis(
    state: np.ndarray,
    qubits: Sequence[int],
    theta: Sequence[int],
    rng: np.random.Generator,
) -> tuple[tuple[int, ...], np.ndarray]:
    """Projective measurement of ``qubits`` in the theta basis.

    Returns (outcome bits, post-measurement state); outcome bit j belongs to
    qubits[j]. The measured register stays in place, collapsed onto the
    observed theta-basis vector. Works on state vectors and density operators.
    A state of at most CACHED_STATE_AMPLITUDES entries gets its post-measurement
    state from the cache, read-only; callers must not write to it.
    """
    qubits = tuple(int(q) for q in qubits)
    if len(qubits) != len(theta):
        raise ValueError("qubits and theta length mismatch")
    if len(set(qubits)) != len(qubits):
        raise ValueError("repeated qubit")
    state = np.asarray(state, dtype=np.complex128)
    if state.ndim not in (1, 2) or state.shape[0] != state.shape[-1]:
        raise ValueError("state must be a vector or a square matrix")
    _measure_layout(n_qubits_of(state.shape[0]), qubits, state.ndim)  # the range check
    for tb in theta:
        if tb not in (0, 1):
            raise ValueError(f"not a bit: {tb!r}")
    theta = tuple(1 if tb else 0 for tb in theta)
    if state.size > CACHED_STATE_AMPLITUDES:
        law = _outcome_law(state, qubits, theta)
        return _outcome(law, state.shape, qubits, theta, _search(law[0], rng))
    key = (state.shape, state.tobytes(), qubits, theta)
    return _cached_outcome(*key, _search(_cached_law(*key)[0], rng))


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state from a normalized complex Gaussian vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_operator(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random full-support (or fixed-rank) density operator from a Ginibre block."""
    rank = dim if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise ValueError("rank out of range")
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-r projector with Haar-random range."""
    if not 0 <= rank <= dim:
        raise ValueError("rank out of range")
    if rank == 0:
        return np.zeros((dim, dim), dtype=np.complex128)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    cols = q[:, :rank]
    return cols @ cols.conj().T


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random POVM: Ginibre-positive elements normalized by S^(-1/2)..S^(-1/2)."""
    if n_outcomes < 1:
        raise ValueError("need at least one outcome")
    gs = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        gs.append(g @ g.conj().T)
    s = np.sum(gs, axis=0)
    vals, vecs = np.linalg.eigh(s)
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.conj().T
    return [inv_sqrt @ g @ inv_sqrt for g in gs]
