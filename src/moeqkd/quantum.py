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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Tolerance tiers. Structural identities hold to machine precision; anything
# routed through an eigensolver gets the looser tier.
ATOL_STRUCT = 1e-12
ATOL_EIG = 1e-9
ATOL_NORM = 1e-10

# Dimension guards: dense density operators above 2^13 and pure states above
# 2^20 would silently chew through memory, so refuse them.
MAX_DENSITY_QUBITS = 13
MAX_PURE_QUBITS = 20

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


@dataclass(frozen=True)
class RegisterLayout:
    """Named, ordered qubit registers inside one state vector or operator."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.registers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate register names")
        if any(width < 0 for _, width in self.registers):
            raise ValueError("negative register width")

    @property
    def n_qubits(self) -> int:
        return sum(width for _, width in self.registers)

    def width(self, name: str) -> int:
        for reg, w in self.registers:
            if reg == name:
                return w
        raise KeyError(name)

    def positions(self, name: str) -> list[int]:
        """Qubit indices occupied by one register."""
        start = 0
        for reg, w in self.registers:
            if reg == name:
                return list(range(start, start + w))
            start += w
        raise KeyError(name)


def assert_state_vector(psi: np.ndarray, atol: float = ATOL_NORM) -> int:
    """Validate a pure state; returns its qubit count."""
    psi = np.asarray(psi)
    if psi.ndim != 1:
        raise ValueError("state vector must be 1-d")
    n = n_qubits_of(psi.shape[0])
    if n > MAX_PURE_QUBITS:
        raise ValueError(f"pure state on {n} qubits exceeds the {MAX_PURE_QUBITS}-qubit cap")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > atol:
        raise ValueError(f"state vector not normalized: |psi| = {norm}")
    return n


def assert_density_operator(rho: np.ndarray, atol: float = ATOL_EIG) -> int:
    """Validate a density operator (hermitian, PSD, unit trace); returns qubit count."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density operator must be square")
    n = n_qubits_of(rho.shape[0])
    if n > MAX_DENSITY_QUBITS:
        raise ValueError(f"density operator on {n} qubits exceeds the {MAX_DENSITY_QUBITS}-qubit cap")
    if not np.allclose(rho, rho.conj().T, atol=atol):
        raise ValueError("density operator not hermitian")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > ATOL_NORM:
        raise ValueError(f"density operator trace {tr} != 1")
    if float(np.linalg.eigvalsh(rho).min()) < -atol:
        raise ValueError("density operator not positive semidefinite")
    return n


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


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


def partial_trace_qubits(rho: np.ndarray, n_qubits: int, keep: Sequence[int]) -> np.ndarray:
    """Qubit-register convenience wrapper around partial_trace."""
    return partial_trace(rho, [2] * n_qubits, keep)


def trace_norm_hermitian(a: np.ndarray) -> float:
    """Trace norm of a hermitian matrix via its eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace distance (1/2)||rho - sigma||_1 between hermitian operators."""
    rho = np.asarray(rho, dtype=np.complex128)
    sigma = np.asarray(sigma, dtype=np.complex128)
    if rho.shape != sigma.shape:
        raise ValueError("shape mismatch")
    diff = rho - sigma
    if not np.allclose(diff, diff.conj().T, atol=ATOL_EIG):
        raise ValueError("trace_distance expects hermitian inputs")
    return 0.5 * trace_norm_hermitian(diff)


def operator_leq(a: np.ndarray, b: np.ndarray, atol: float = ATOL_EIG) -> tuple[bool, float]:
    """Check a <= b in the semidefinite order.

    Returns (holds, witness) where the witness is the smallest eigenvalue of
    b - a; the inequality is accepted when the witness is >= -atol.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("operator_leq expects two equal-shape square matrices")
    witness = float(np.linalg.eigvalsh(b - a).min())
    return witness >= -atol, witness


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
    symmetric, so row x is |x>_theta as well."""
    if len(theta) > MAX_DENSITY_QUBITS:
        raise ValueError("theta unitary too large")
    u = np.ones((1, 1), dtype=np.complex128)
    for tb in theta:
        if tb not in (0, 1):
            raise ValueError(f"not a bit: {tb!r}")
        u = np.kron(u, HADAMARD if tb else _IDENTITY)
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
    """n maximally entangled pairs, pair i on qubits (i, n+i): sum_x |x>|x> / 2^(n/2)."""
    if n < 1:
        raise ValueError("need at least one pair")
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


def apply_single_qubit(gate: np.ndarray, qubit: int, state: np.ndarray) -> np.ndarray:
    """Apply a one-qubit gate at a qubit position of a state vector or density operator."""
    gate = np.asarray(gate, dtype=np.complex128)
    state = np.asarray(state, dtype=np.complex128)
    if gate.shape != (2, 2):
        raise ValueError("gate must be 2x2")
    if state.ndim == 1:
        n = n_qubits_of(state.shape[0])
        t = state.reshape((2,) * n)
        t = np.tensordot(gate, t, axes=([1], [qubit]))
        t = np.moveaxis(t, 0, qubit)
        return t.reshape(-1)
    if state.ndim == 2:
        n = n_qubits_of(state.shape[0])
        t = state.reshape((2,) * (2 * n))
        t = np.tensordot(gate, t, axes=([1], [qubit]))
        t = np.moveaxis(t, 0, qubit)
        t = np.tensordot(t, gate.conj().T, axes=([n + qubit], [0]))
        t = np.moveaxis(t, -1, n + qubit)
        return t.reshape(state.shape)
    raise ValueError("state must be a vector or a square matrix")


def _rotate_theta(state: np.ndarray, qubits: Sequence[int], theta: Sequence[int]) -> np.ndarray:
    for q, tb in zip(qubits, theta):
        if tb == 1:
            state = apply_single_qubit(HADAMARD, q, state)
        elif tb != 0:
            raise ValueError(f"not a bit: {tb!r}")
    return state


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
    """
    qubits = [int(q) for q in qubits]
    if len(qubits) != len(theta):
        raise ValueError("qubits and theta length mismatch")
    if len(set(qubits)) != len(qubits):
        raise ValueError("repeated qubit")
    state = np.asarray(state, dtype=np.complex128)
    # Rotate the measured qubits into the computational frame, sample there,
    # collapse, then rotate back. H is self-inverse so the same rotation undoes.
    rotated = _rotate_theta(state, qubits, theta)
    r = len(qubits)
    if r == 0:
        return (), state
    if rotated.ndim == 1:
        n = n_qubits_of(rotated.shape[0])
        t = rotated.reshape((2,) * n)
        t = np.moveaxis(t, qubits, range(r))
        block = t.reshape(1 << r, -1)
        probs = np.abs(block) ** 2
        probs = np.clip(probs.sum(axis=1).real, 0.0, None)
        probs = probs / probs.sum()
        x = int(rng.choice(1 << r, p=probs))
        post = np.zeros_like(block)
        post[x] = block[x] / np.sqrt(probs[x])
        t = post.reshape((2,) * n)
        t = np.moveaxis(t, range(r), qubits)
        out = _rotate_theta(t.reshape(-1), qubits, theta)
        return int_to_bits(x, r), out
    if rotated.ndim == 2:
        n = n_qubits_of(rotated.shape[0])
        t = rotated.reshape((2,) * (2 * n))
        src = qubits + [n + q for q in qubits]
        dst = list(range(r)) + list(range(n, n + r))
        t = np.moveaxis(t, src, dst)
        blk = t.reshape(1 << r, 1 << (n - r), 1 << r, 1 << (n - r))
        probs = np.clip(np.einsum("xixi->x", blk).real, 0.0, None)
        probs = probs / probs.sum()
        x = int(rng.choice(1 << r, p=probs))
        post = np.zeros_like(blk)
        post[x, :, x, :] = blk[x, :, x, :] / probs[x]
        t = post.reshape((2,) * (2 * n))
        t = np.moveaxis(t, dst, src)
        out = _rotate_theta(t.reshape(1 << n, 1 << n), qubits, theta)
        return int_to_bits(x, r), out
    raise ValueError("state must be a vector or a square matrix")


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
