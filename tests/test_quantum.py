"""Core register algebra: frozen small-case oracles plus randomized identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeqkd import quantum as q


RT2 = 1.0 / np.sqrt(2.0)


def test_bit_helpers_roundtrip():
    for n in range(1, 9):
        for x in range(1 << n):
            assert q.bits_to_int(q.int_to_bits(x, n)) == x
    with pytest.raises(ValueError):
        q.int_to_bits(4, 2)


def test_theta_basis_single_qubit_oracle():
    # computational basis untouched
    assert np.allclose(q.theta_basis_state(0, (0,)), [1, 0])
    assert np.allclose(q.theta_basis_state(1, (0,)), [0, 1])
    # rotated basis is |+>, |->
    assert np.allclose(q.theta_basis_state(0, (1,)), [RT2, RT2])
    assert np.allclose(q.theta_basis_state(1, (1,)), [RT2, -RT2])


def test_theta_basis_two_qubit_oracle():
    # |01> in bases (1,0) is |+> tensor |1>
    v = q.theta_basis_state(0b01, (1, 0))
    expect = np.kron([RT2, RT2], [0, 1])
    assert np.allclose(v, expect, atol=q.ATOL_STRUCT)


def test_theta_basis_is_orthonormal():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for _ in range(5):
            theta = tuple(rng.integers(0, 2, n))
            vecs = [q.theta_basis_state(x, theta) for x in range(1 << n)]
            gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
            assert np.allclose(gram, np.eye(1 << n), atol=q.ATOL_STRUCT)


def theta_reference(x: int, theta) -> np.ndarray:
    """|x>_theta built qubit by qubit: |x_i>, Hadamard-rotated where theta_i = 1."""
    v = np.ones(1)
    for xb, tb in zip(q.int_to_bits(x, len(theta)), theta):
        qubit = np.eye(2)[xb]
        v = np.kron(v, np.array([[1, 1], [1, -1]]) @ qubit * RT2 if tb else qubit)
    return v


thetas = st.lists(st.integers(0, 1), min_size=1, max_size=5).map(tuple)


@settings(max_examples=60, deadline=None)
@given(thetas)
def test_theta_unitary_matches_single_qubit_reference(theta):
    n = len(theta)
    u = q.theta_unitary(theta)
    assert np.allclose(u.conj().T @ u, np.eye(1 << n), atol=q.ATOL_STRUCT)
    assert np.allclose(u @ u, np.eye(1 << n), atol=q.ATOL_STRUCT)
    for x in range(1 << n):
        assert np.allclose(u[:, x], theta_reference(x, theta), atol=q.ATOL_STRUCT)
        assert np.array_equal(q.theta_basis_state(x, theta), u[:, x])
        assert np.array_equal(q.theta_basis_state(q.int_to_bits(x, n), theta), u[:, x])


@settings(max_examples=40, deadline=None)
@given(thetas, st.sampled_from([1, 2, 4]), st.integers(0, 2**32 - 1))
def test_theta_amplitudes_match_per_row_reference(theta, e_dim, seed):
    d = 1 << len(theta)
    psi = q.haar_state(d * d * e_dim, np.random.default_rng(seed))
    amp = q.theta_amplitudes(psi, theta, e_dim)
    rows = np.stack([theta_reference(k, theta) for k in range(d)])
    # row a*d + b of kron(rows, rows) is |ab>_theta
    expect = (np.kron(rows, rows).conj() @ psi.reshape(d * d, e_dim)).reshape(d, d, e_dim)
    assert np.allclose(amp, expect, atol=q.ATOL_STRUCT)


def test_theta_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        q.theta_unitary((0, 2))
    with pytest.raises(ValueError):
        q.theta_basis_state(4, (1, 0))
    with pytest.raises(ValueError):
        q.theta_basis_state((0, 1, 1), (1, 0))


def test_theta_frame_is_cached_read_only():
    u = q.theta_unitary((1, 0))
    assert q.theta_unitary((1, 0)) is u
    with pytest.raises(ValueError):
        u[0, 0] = 0.0
    bits = [(1, 0, 1), [1, 0, 1], tuple(np.array([1, 0, 1], dtype=np.int64)), (True, False, True)]
    frames = [q.theta_unitary(b) for b in bits]
    assert all(f.tobytes() == frames[0].tobytes() for f in frames)


@pytest.mark.parametrize("theta", [(0, 2), (1.5,), (-1, 0), (1, 0, 0, 1, 2)])
def test_theta_frame_checks_bits_before_the_cache(theta):
    before = q._cached_frame.cache_info()
    with pytest.raises(ValueError, match="not a bit"):
        q.theta_unitary(theta)
    after = q._cached_frame.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_wide_theta_frame_is_fresh_and_writable():
    theta = (1, 0, 1, 1, 0)
    assert len(theta) > q.CACHED_FRAME_QUBITS
    u = q.theta_unitary(theta)
    assert u is not q.theta_unitary(theta) and u.flags.writeable
    for x in range(1 << len(theta)):
        assert np.allclose(u[:, x], theta_reference(x, theta), atol=q.ATOL_STRUCT)
    u[0, 0] = 0.0  # the caller's own copy


@st.composite
def weight_vectors(draw):
    """Nonnegative weights of length 1-256 with zeros and skew, normalized as
    the callers normalize them: divided by their own sum."""
    k = draw(st.integers(1, 256))
    seed = draw(st.integers(0, 2**32 - 1))
    wrng = np.random.default_rng(seed)
    w = wrng.random(k) ** draw(st.sampled_from([1.0, 4.0, 16.0]))
    w[wrng.random(k) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    if draw(st.booleans()):
        w[int(wrng.integers(k))] += draw(st.sampled_from([1.0, 1e3, 1e9]))
    if w.sum() == 0.0:
        w[-1] = 1.0
    return w / w.sum()


@settings(max_examples=300, deadline=None)
@given(weight_vectors(), st.integers(0, 2**32 - 1))
def test_draw_index_is_rng_choice(p, seed):
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert q.draw_index(p, rng) == int(oracle.choice(len(p), p=p))
    assert rng.bit_generator.state == oracle.bit_generator.state


def test_draw_index_keeps_the_sum_guard():
    rng = np.random.default_rng(0)
    for p in ([0.5, np.nan], [0.5, 0.5 + 1e-6], [0.5, 0.5 - 1e-6]):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(2, p=p)
        with pytest.raises(ValueError):
            q.draw_index(np.array(p), rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_bell_states_oracle():
    assert np.allclose(q.bell_state("phi+"), [RT2, 0, 0, RT2])
    assert np.allclose(q.bell_state("phi-"), [RT2, 0, 0, -RT2])
    assert np.allclose(q.bell_state("psi+"), [0, RT2, RT2, 0])
    assert np.allclose(q.bell_state("psi-"), [0, RT2, -RT2, 0])
    with pytest.raises(ValueError):
        q.bell_state("sigma+")


def test_bell_invariance_under_xx_and_zz():
    # (X x X) phi+ = phi+ and (Z x Z) phi+ = phi+
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    phi = q.bell_state("phi+")
    assert np.allclose(q.tensor(x, x) @ phi, phi, atol=q.ATOL_STRUCT)
    assert np.allclose(q.tensor(z, z) @ phi, phi, atol=q.ATOL_STRUCT)


def test_epr_block_state_matches_bell_power():
    # pair layout (A1 A2 B1 B2): reorder the kron of two Bell pairs
    one = q.epr_block_state(1)
    assert np.allclose(one, q.bell_state("phi+"))
    two = q.epr_block_state(2)
    # build from embed: |phi+><phi+| on (0,2) and (1,3) should fix it
    proj_a = q.embed_operator(np.outer(one, one.conj()), [0, 2], 4)
    proj_b = q.embed_operator(np.outer(one, one.conj()), [1, 3], 4)
    assert np.allclose(proj_a @ two, two, atol=q.ATOL_STRUCT)
    assert np.allclose(proj_b @ two, two, atol=q.ATOL_STRUCT)


def test_agreement_projector_fixes_epr_all_bases():
    # sum_x |xx><xx|_theta leaves n EPR pairs invariant for every theta, n <= 4
    for n in range(1, 5):
        epr = q.epr_block_state(n)
        for ti in range(1 << n):
            theta = q.int_to_bits(ti, n)
            p = q.agreement_projector(theta)
            assert np.allclose(p @ epr, epr, atol=q.ATOL_STRUCT), (n, theta)


def test_agreement_projector_is_projector():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        theta = tuple(rng.integers(0, 2, n))
        p = q.agreement_projector(theta)
        assert np.allclose(p, p.conj().T, atol=q.ATOL_STRUCT)
        assert np.allclose(p @ p, p, atol=q.ATOL_STRUCT)
        assert abs(np.trace(p).real - (1 << n)) < q.ATOL_STRUCT


def test_basis_average_of_agreement_projector_factorizes():
    # averaging over all 2^n theta gives the pair-block operator
    # phi+ + (phi- + psi+)/2 on every (A_i, B_i) pair, to structural tolerance
    pair = (
        np.outer(q.bell_state("phi+"), q.bell_state("phi+").conj())
        + 0.5 * np.outer(q.bell_state("phi-"), q.bell_state("phi-").conj())
        + 0.5 * np.outer(q.bell_state("psi+"), q.bell_state("psi+").conj())
    )
    for n in (1, 2, 3):
        avg = np.zeros((1 << (2 * n), 1 << (2 * n)), dtype=complex)
        for ti in range(1 << n):
            avg += q.agreement_projector(q.int_to_bits(ti, n))
        avg /= 1 << n
        rhs = np.eye(1 << (2 * n), dtype=complex)
        for i in range(n):
            rhs = rhs @ q.embed_operator(pair, [i, n + i], 2 * n)
        assert np.allclose(avg, rhs, atol=q.ATOL_STRUCT), n


def test_block_projectors_basic_structure():
    for n, s in ((1, 1), (2, 1), (2, 2), (3, 1), (4, 2)):
        m0, m1 = q.block_projectors(n, s)
        d = 1 << (2 * n)
        assert np.allclose(m0 + m1, np.eye(d), atol=q.ATOL_STRUCT)
        assert np.allclose(m1 @ m1, m1, atol=q.ATOL_STRUCT)
        assert np.allclose(m0 @ m0, m0, atol=q.ATOL_STRUCT)
        # M0 keeps the all-pairs EPR state, M1 kills it
        epr = q.epr_block_state(n)
        assert np.allclose(m0 @ epr, epr, atol=q.ATOL_STRUCT)
        assert np.linalg.norm(m1 @ epr) < q.ATOL_STRUCT
    with pytest.raises(ValueError):
        q.block_projectors(3, 2)


def test_block_projector_commutes_with_agreement():
    # the two tests are compatible: [P_theta, M1] = 0 for all theta, n <= 3
    for n, s in ((2, 1), (2, 2), (3, 1), (3, 3)):
        _, m1 = q.block_projectors(n, s)
        for ti in range(1 << n):
            p = q.agreement_projector(q.int_to_bits(ti, n))
            comm = p @ m1 - m1 @ p
            assert np.linalg.norm(comm, 2) <= 1e-10, (n, s, ti)


def test_operator_union_bound_randomized():
    # I - tensor(P_i) <= sum_i embed(I - P_i) for random projector tuples
    rng = np.random.default_rng(2024)
    for _ in range(60):
        k = int(rng.integers(1, 4))
        projs = []
        for _ in range(k):
            d = int(rng.integers(2, 5))
            rank = int(rng.integers(0, d + 1))
            projs.append(q.random_projector(d, rank, rng))
        w = q.operator_union_bound_witness(projs)
        assert w >= -q.ATOL_EIG, w


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(3)
    a = q.random_density_operator(4, rng)
    b = q.random_density_operator(3, rng)
    c = q.random_density_operator(2, rng)
    rho = q.tensor(a, b, c)
    assert np.allclose(q.partial_trace(rho, [4, 3, 2], [0]), a, atol=q.ATOL_STRUCT)
    assert np.allclose(q.partial_trace(rho, [4, 3, 2], [1]), b, atol=q.ATOL_STRUCT)
    assert np.allclose(q.partial_trace(rho, [4, 3, 2], [0, 2]), q.tensor(a, c), atol=q.ATOL_STRUCT)


def test_partial_trace_of_epr_is_maximally_mixed():
    for n in (1, 2, 3):
        epr = q.epr_block_state(n)
        rho = np.outer(epr, epr.conj())
        red = q.partial_trace(rho, [2] * (2 * n), list(range(n)))
        assert np.allclose(red, np.eye(1 << n) / (1 << n), atol=q.ATOL_STRUCT)


def test_stacked_eigvalsh_trace_norms_match_per_matrix_bitwise():
    # the exact distances take their trace norms from one stacked eigvalsh,
    # and their pins hold only if that equals trace_norm_hermitian bit for bit
    rng = np.random.default_rng(909)
    for dim in (1, 2, 4):
        g = rng.normal(size=(300, dim, dim)) + 1j * rng.normal(size=(300, dim, dim))
        herm = g + g.conj().transpose(0, 2, 1)
        # rank-one projectors minus their uniform share, as the distances build
        v = g[:, :, 0]
        proj = np.einsum("ni,nj->nij", v, v.conj()) * rng.random((300, 1, 1))
        shifted = proj - proj.mean(axis=0) / 2
        zeros = np.zeros((20, dim, dim), dtype=complex)
        stack = np.concatenate([herm, shifted, zeros]).reshape(-1, 5, 4, dim, dim)
        norms = np.abs(np.linalg.eigvalsh(stack)).sum(-1)
        assert norms.shape == stack.shape[:-2]
        flat = stack.reshape(-1, dim, dim)
        expected = [q.trace_norm_hermitian(mat) for mat in flat]
        assert norms.ravel().tolist() == expected
        assert norms.ravel()[-20:].tolist() == [0.0] * 20


def test_embed_operator_against_kron():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(q.embed_operator(x, [0], 2), np.kron(x, np.eye(2)))
    assert np.allclose(q.embed_operator(x, [1], 2), np.kron(np.eye(2), x))
    # two-qubit operator placed in reversed order equals a swap conjugation
    rng = np.random.default_rng(8)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    swapped = q.embed_operator(g, [1, 0], 2)
    t = g.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    assert np.allclose(swapped, t, atol=q.ATOL_STRUCT)
    # disjoint embeds multiply to the reordered tensor product
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    full = q.embed_operator(a, [0], 2) @ q.embed_operator(b, [1], 2)
    assert np.allclose(full, np.kron(a, b), atol=q.ATOL_STRUCT)


def test_measurement_is_deterministic_on_basis_states():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        for _ in range(4):
            theta = tuple(rng.integers(0, 2, n))
            x = int(rng.integers(0, 1 << n))
            psi = q.theta_basis_state(x, theta)
            bits, post = q.measure_in_theta_basis(psi, range(n), theta, rng)
            assert q.bits_to_int(bits) == x
            assert np.allclose(post, psi * np.sign(np.vdot(psi, post).real or 1.0), atol=1e-9)


def test_epr_measured_same_basis_always_coincides():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        theta = tuple(rng.integers(0, 2, n))
        psi = q.epr_block_state(n)
        bits_a, post = q.measure_in_theta_basis(psi, range(n), theta, rng)
        bits_b, _ = q.measure_in_theta_basis(post, range(n, 2 * n), theta, rng)
        assert bits_a == bits_b


def test_measurement_statistics_uniform_on_epr():
    rng = np.random.default_rng(29)
    counts = np.zeros(4)
    for _ in range(600):
        bits, _ = q.measure_in_theta_basis(q.epr_block_state(2), [0, 1], (0, 1), rng)
        counts[q.bits_to_int(bits)] += 1
    assert (counts > 100).all()  # uniform(150) with generous slack


def test_density_and_vector_measurement_agree():
    # same seed drives the same outcome; post-states must match as operators
    base = np.random.default_rng(31)
    for _ in range(10):
        n = int(base.integers(2, 4))
        theta = tuple(base.integers(0, 2, n))
        seed = int(base.integers(0, 2**32))
        psi = q.haar_state(1 << (2 * n), np.random.default_rng(seed + 1))
        qubits = list(range(n))
        bits_v, post_v = q.measure_in_theta_basis(psi, qubits, theta, np.random.default_rng(seed))
        rho = np.outer(psi, psi.conj())
        bits_m, post_m = q.measure_in_theta_basis(rho, qubits, theta, np.random.default_rng(seed))
        assert bits_v == bits_m
        assert np.allclose(np.outer(post_v, post_v.conj()), post_m, atol=1e-9)


def test_measurement_marginals_match_born_rule():
    rng = np.random.default_rng(37)
    psi = q.haar_state(8, rng)
    theta = (1, 0)
    # analytic Born probabilities for qubits (0, 1)
    probs = np.zeros(4)
    for x in range(4):
        v = q.theta_basis_state(x, theta)
        amp = np.tensordot(v.conj().reshape(2, 2), psi.reshape(2, 2, 2), axes=([0, 1], [0, 1]))
        probs[x] = float(np.vdot(amp, amp).real)
    counts = np.zeros(4)
    trials = 4000
    for _ in range(trials):
        bits, _ = q.measure_in_theta_basis(psi, [0, 1], theta, rng)
        counts[q.bits_to_int(bits)] += 1
    assert np.abs(counts / trials - probs).max() < 0.035


@pytest.mark.parametrize("qubit", [5, -1, 2])
def test_measurement_rejects_out_of_range_qubits(qubit):
    psi = q.epr_block_state(1)
    for state in (psi, np.outer(psi, psi.conj())):
        with pytest.raises(ValueError, match=f"qubit {qubit} out of range for a 2-qubit state"):
            q.measure_in_theta_basis(state, [qubit], (0,), np.random.default_rng(0))


def _rotate_reference(state, qubits, theta):
    """H on each theta-1 qubit by the per-qubit tensordot/moveaxis route."""
    h = q.HADAMARD
    for qb, tb in zip(qubits, theta):
        if not tb:
            continue
        n = q.n_qubits_of(state.shape[0])
        t = state.reshape((2,) * (state.ndim * n))
        t = np.moveaxis(np.tensordot(h, t, axes=([1], [qb])), 0, qb)
        if state.ndim == 2:
            t = np.tensordot(t, h.conj().T, axes=([n + qb], [0]))
            t = np.moveaxis(t, -1, n + qb)
        state = t.reshape(state.shape)
    return state


def measure_reference(state, qubits, theta, rng):
    """The theta measurement written with per-qubit tensordot and moveaxis."""
    r = len(qubits)
    rotated = _rotate_reference(state, qubits, theta)
    n = q.n_qubits_of(state.shape[0])
    if state.ndim == 1:
        t = np.moveaxis(rotated.reshape((2,) * n), qubits, range(r))
        block = t.reshape(1 << r, -1)
        probs = np.clip((np.abs(block) ** 2).sum(axis=1).real, 0.0, None)
        probs = probs / probs.sum()
        x = int(rng.choice(1 << r, p=probs))
        post = np.zeros_like(block)
        post[x] = block[x] / np.sqrt(probs[x])
        t = np.moveaxis(post.reshape((2,) * n), range(r), qubits)
    else:
        src = qubits + [n + qb for qb in qubits]
        dst = list(range(r)) + list(range(n, n + r))
        t = np.moveaxis(rotated.reshape((2,) * (2 * n)), src, dst)
        blk = t.reshape(1 << r, 1 << (n - r), 1 << r, 1 << (n - r))
        probs = np.clip(np.einsum("xixi->x", blk).real, 0.0, None)
        probs = probs / probs.sum()
        x = int(rng.choice(1 << r, p=probs))
        post = np.zeros_like(blk)
        post[x, :, x, :] = blk[x, :, x, :] / probs[x]
        t = np.moveaxis(post.reshape((2,) * (2 * n)), dst, src)
    return q.int_to_bits(x, r), _rotate_reference(t.reshape(state.shape), qubits, theta)


@st.composite
def measurement_cases(draw):
    density = draw(st.booleans())
    n = draw(st.integers(1, 4 if density else 5))
    qubits = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    theta = tuple(draw(st.lists(st.integers(0, 1), min_size=len(qubits), max_size=len(qubits))))
    kind = draw(st.sampled_from(["pure", "mixed"] if density else ["pure"]))
    return density, n, qubits, theta, kind, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(measurement_cases())
def test_measurement_is_bytewise_the_per_qubit_reference(case):
    density, n, qubits, theta, kind, seed = case
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        state = q.random_density_operator(1 << n, rng)
    else:
        state = q.haar_state(1 << n, rng)
        if density:
            state = np.outer(state, state.conj())
    bits, post = q.measure_in_theta_basis(state, qubits, theta, np.random.default_rng(seed))
    ref_bits, ref_post = measure_reference(state, qubits, theta, np.random.default_rng(seed))
    assert bits == ref_bits
    # tobytes, not array_equal: a zero's sign must match too
    assert post.shape == ref_post.shape and post.tobytes() == ref_post.tobytes()


def measure_uncached(state, qubits, theta, rng):
    """The measurement kernel without the caches, on the caller's array."""
    qubits, theta = tuple(qubits), tuple(theta)
    law = q._outcome_law(state, qubits, theta)
    return q._outcome(law, state.shape, qubits, theta, q._search(law[0], rng))


@st.composite
def cached_measurement_cases(draw):
    density = draw(st.booleans())
    n = draw(st.integers(1, 4))
    qubits = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    theta = tuple(draw(st.lists(st.integers(0, 1), min_size=len(qubits), max_size=len(qubits))))
    return density, n, qubits, theta, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(cached_measurement_cases())
def test_cached_measurement_is_the_uncached_kernel(case):
    density, n, qubits, theta, strided, seed = case
    rng = np.random.default_rng(seed)
    if density:
        state = q.random_density_operator(1 << n, rng)
        state = state.T if strided else state  # a transposed view is not C-contiguous
    else:
        state = q.haar_state(1 << n, rng)
        state = np.repeat(state, 2)[::2] if strided else state
    assert state.size <= q.CACHED_STATE_AMPLITUDES
    assert state.flags.c_contiguous != strided
    cached, uncached = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(6):  # repeats on one state: the first call may miss, the rest hit
        bits, post = q.measure_in_theta_basis(state, qubits, theta, cached)
        ref_bits, ref_post = measure_uncached(state, qubits, theta, uncached)
        assert bits == ref_bits
        assert post.shape == ref_post.shape and post.tobytes() == ref_post.tobytes()
        assert not post.flags.writeable
    assert cached.bit_generator.state == uncached.bit_generator.state


def test_measurement_caches_hit_and_return_read_only_states():
    psi = q.epr_block_state(2)
    q.measure_in_theta_basis(psi, [0, 1], (1, 0), np.random.default_rng(0))
    laws, outcomes = q._cached_law.cache_info(), q._cached_outcome.cache_info()
    _, post = q.measure_in_theta_basis(psi.copy(), [0, 1], (True, 0), np.random.default_rng(0))
    assert q._cached_law.cache_info().hits == laws.hits + 1
    assert q._cached_outcome.cache_info().hits == outcomes.hits + 1
    assert q.measure_in_theta_basis(psi, [0, 1], (1, 0), np.random.default_rng(0))[1] is post
    with pytest.raises(ValueError):
        post[0] = 0.0


def test_epr_block_is_cached_read_only_and_wide_blocks_are_fresh():
    for n in range(1, 5):
        v = q.epr_block_state(n)
        assert v is q.epr_block_state(n) and not v.flags.writeable
    assert 4**5 > q.CACHED_STATE_AMPLITUDES
    wide = q.epr_block_state(5)
    assert wide is not q.epr_block_state(5) and wide.flags.writeable
    assert np.allclose(wide.reshape(32, 32), np.eye(32) / np.sqrt(32), atol=q.ATOL_STRUCT)
    wide[0] = 0.0  # the caller's own copy


def _bad_measurements():
    psi = q.epr_block_state(1)
    nan = np.array([np.nan, 0, 0, 0], dtype=np.complex128)
    return [
        (psi, [0], (2,), "not a bit"),
        (psi, [0, 1], (1, 0.5), "not a bit"),
        (psi, [2], (0,), "qubit 2 out of range for a 2-qubit state"),
        (np.zeros(4, dtype=np.complex128), [0], (1,), "probabilities sum to"),
        (nan, [1], (0,), "probabilities sum to"),
        (np.outer(nan, nan), [0], (0,), "probabilities sum to"),
    ]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("warm", [False, True])
def test_measurement_errors_draw_nothing_on_cold_and_warm_caches(warm):
    q._cached_law.cache_clear()
    q._cached_outcome.cache_clear()
    q._measure_layout.cache_clear()
    if warm:  # every valid one-qubit key on the bad calls' EPR pair is cached
        psi = q.epr_block_state(1)
        for state in (psi, np.outer(psi, psi)):
            for qb in (0, 1):
                for tb in (0, 1):
                    q.measure_in_theta_basis(state, [qb], (tb,), np.random.default_rng(1))
    rng = np.random.default_rng(7)
    for state, qubits, theta, message in _bad_measurements():
        laws = q._cached_law.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                q.measure_in_theta_basis(state, qubits, theta, rng)
        assert q._cached_law.cache_info().currsize == laws
    assert rng.bit_generator.state == np.random.default_rng(7).bit_generator.state


@pytest.mark.parametrize("shape", [(4, 8), (4, 2)])
def test_measurement_rejects_non_square_operators(shape):
    rng = np.random.default_rng(0)
    state = np.zeros(shape, dtype=np.complex128)
    state.flat[0] = 1.0
    with pytest.raises(ValueError, match="state must be a vector or a square matrix"):
        q.measure_in_theta_basis(state, [0], (0,), rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("density", [False, True])
def test_states_above_the_cache_limit_run_uncached(density):
    rng = np.random.default_rng(11)
    n = 5 if density else 9
    state = q.random_density_operator(1 << n, rng) if density else q.haar_state(1 << n, rng)
    assert state.size > q.CACHED_STATE_AMPLITUDES
    qubits, theta = [3, 0, 4], (1, 0, 1)
    before = (q._cached_law.cache_info(), q._cached_outcome.cache_info())
    for seed in range(3):
        bits, post = q.measure_in_theta_basis(state, qubits, theta, np.random.default_rng(seed))
        ref_bits, ref_post = measure_reference(state, qubits, theta, np.random.default_rng(seed))
        assert bits == ref_bits and post.tobytes() == ref_post.tobytes()
        assert post.flags.writeable
    assert (q._cached_law.cache_info(), q._cached_outcome.cache_info()) == before


def test_random_povm_is_valid():
    rng = np.random.default_rng(41)
    povm = q.random_povm(6, 4, rng)
    s = np.sum(povm, axis=0)
    assert np.allclose(s, np.eye(6), atol=1e-10)
    for e in povm:
        assert np.linalg.eigvalsh(e).min() >= -q.ATOL_EIG


def test_validators_reject_garbage():
    with pytest.raises(ValueError):
        q.assert_density_operator(np.array([[0.9, 0.5], [0.5, 0.1]]))
    with pytest.raises(ValueError):
        q.partial_trace(np.eye(4), [2, 3], [0])
