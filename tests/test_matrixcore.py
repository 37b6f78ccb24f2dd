import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cwspheres import checks, matrixcore
from cwspheres.errors import InvalidInput
from cwspheres.flows import block_angle_unitary
from cwspheres.matrixcore import (QuaternionMatrix, RngStream, StreamBlock, _ginibre,
                                  as_skew_hermitian, as_unitary, expm_skew,
                                  haar_unitary, qabs, qmul, trial_blocks,
                                  unitary_phases)
from cwspheres.randers import RandersSpec
from haar_reference import conjugate, haar_symplectic, symplectic_defect, to_complex


def random_skew(n, rng, k):
    """A random skew-Hermitian matrix from the stream `rng.split(k)`."""
    z = _ginibre(StreamBlock(rng, [k]), n, n)[0, 0]
    return (z - z.conj().T) / 2.0


def one_symplectic(n, rng, k):
    """The Sp(n) draw of the stream `rng.split(k)`, from a stack of one."""
    q = haar_symplectic(n, StreamBlock(rng, [k]))
    return QuaternionMatrix(q.q1[0], q.q2[0])


# ---------------------------------------------------------------- expm_skew

def test_expm_zero_is_identity():
    np.testing.assert_allclose(expm_skew(np.zeros((3, 3)), 1.0), np.eye(3),
                               atol=1e-15)


def test_expm_unit_phases_at_pi_is_minus_identity():
    a = np.diag([1j, -1j])
    np.testing.assert_allclose(expm_skew(a, np.pi), -np.eye(2), atol=1e-14)


def test_expm_diagonal_readoff():
    a = np.diag([0.3j, 0.7j])
    expected = np.diag([np.exp(0.6j), np.exp(1.4j)])
    np.testing.assert_allclose(expm_skew(a, 2.0), expected, atol=1e-14)


def test_expm_output_exactly_unitary():
    rng = RngStream(7)
    for n in (2, 5, 8):
        a = random_skew(n, rng, n)
        u = expm_skew(a, 1.7)
        defect = np.max(np.abs(u.conj().T @ u - np.eye(n)))
        assert defect <= 1e-12


def test_expm_against_pade_oracle():
    # independent route: scipy's Pade expm
    rng = RngStream(8)
    for n in (2, 4, 6):
        a = random_skew(n, rng, n)
        np.testing.assert_allclose(expm_skew(a, 0.9),
                                   scipy.linalg.expm(0.9 * a), atol=1e-12)


def test_expm_of_a_stack_matches_each_matrix():
    # T == n as well as T != n: a transpose over every axis of the stack
    # goes unnoticed in the shape when T == n
    rng = RngStream(60)
    for count, n in ((3, 3), (4, 3), (2, 5)):
        sub = rng.split(count)
        a = np.stack([random_skew(n, sub, k) for k in range(count)])
        out = expm_skew(a, 0.9)
        assert out.shape == (count, n, n)
        for ak, uk in zip(a, out):
            np.testing.assert_allclose(uk, scipy.linalg.expm(0.9 * ak), atol=1e-12)


def test_expm_group_law():
    rng = RngStream(9)
    for k in range(10):
        a = random_skew(4, rng, k)
        s, t = rng.split(k).split(1).gen.uniform(-3, 3, 2)
        lhs = expm_skew(a, s) @ expm_skew(a, t)
        np.testing.assert_allclose(lhs, expm_skew(a, s + t), atol=1e-10)


def test_expm_rejects_non_skew_and_non_finite():
    with pytest.raises(InvalidInput):
        expm_skew(np.eye(2), 1.0)
    bad = np.array([[0.0, np.inf], [-np.inf, 0.0]])
    with pytest.raises(InvalidInput):
        expm_skew(bad, 1.0)


# ----------------------------------------------------------- unitary_phases

def test_phases_identity():
    np.testing.assert_allclose(unitary_phases(np.eye(4)), np.zeros(4))


def test_phases_diagonal_readoff():
    u = np.diag([np.exp(2.0j), np.exp(-1.0j)])
    np.testing.assert_allclose(unitary_phases(u), [-1.0, 2.0], atol=1e-12)


def test_phases_branch_boundary_goes_to_plus_pi():
    np.testing.assert_allclose(unitary_phases(-np.eye(2)), [np.pi, np.pi])


def test_phases_recover_generator_phases():
    rng = RngStream(10)
    phis = rng.gen.uniform(-3.0, 3.0, 5)
    u = expm_skew(np.diag(1j * phis), 1.0)
    np.testing.assert_allclose(unitary_phases(u), np.sort(phis), atol=1e-9)


def test_phases_reduce_mod_two_pi():
    u = expm_skew(np.diag([4.0j, -7.0j]), 1.0)
    expected = np.sort([4.0 - 2 * np.pi, -7.0 + 2 * np.pi])
    np.testing.assert_allclose(unitary_phases(u), expected, atol=1e-9)


def test_phases_match_eigenvalues():
    u = haar_unitary(6, StreamBlock(RngStream(11), [0]))[0]
    phases = unitary_phases(u)
    eigs = np.sort_complex(np.linalg.eigvals(u))
    matched = np.sort_complex(np.exp(1j * phases))
    assert np.max(np.abs(matched - eigs)) <= 1e-9


# ------------------------------------------------------------- Haar sampling

def test_haar_unitary_membership_small_dims():
    rng = RngStream(12)
    for n in range(1, 9):
        us = haar_unitary(n, StreamBlock(rng.split(n), range(125)))
        grams = np.swapaxes(us.conj(), 1, 2) @ us
        defect = np.max(np.abs(grams - np.eye(n)[None]))
        assert defect <= 1e-10


def test_haar_unitary_u1_is_unit_phase():
    u = haar_unitary(1, StreamBlock(RngStream(13), [0]))[0]
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_haar_unitary_deterministic_replay():
    a = haar_unitary(3, StreamBlock(RngStream(42), [0]))
    b = haar_unitary(3, StreamBlock(RngStream(42), [0]))
    np.testing.assert_array_equal(a, b)


def test_rng_stream_rejects_negative_seed():
    with pytest.raises(InvalidInput):
        RngStream(-1)


def test_haar_unitary_trace_moment():
    # E |tr U|^2 = 1 over the Haar measure; Monte-Carlo to +-0.05
    us = haar_unitary(4, StreamBlock(RngStream(99), range(10000)))
    moment = np.mean(np.abs(np.einsum("kii->k", us)) ** 2)
    assert abs(moment - 1.0) <= 0.05


@pytest.mark.parametrize("n", range(1, 5))
def test_haar_symplectic_trace_moment(n):
    # Sp(n) acts irreducibly on C^(2n), so E |tr M|^2 = 1 for its complex
    # embedding M, whose trace is 2 Re tr Q1; Monte-Carlo to +-0.05
    qs = haar_symplectic(n, StreamBlock(RngStream(98), range(10000)))
    moment = np.mean((2.0 * np.einsum("kii->k", qs.q1).real) ** 2)
    assert abs(moment - 1.0) <= 0.05


def test_haar_symplectic_membership_and_determinism():
    for n in (1, 2, 4, 8):
        q = haar_symplectic(n, StreamBlock(RngStream(14), [n]))
        assert symplectic_defect(q) <= 1e-10
    a = haar_symplectic(3, StreamBlock(RngStream(15), [0]))
    b = haar_symplectic(3, StreamBlock(RngStream(15), [0]))
    np.testing.assert_array_equal(a.q1, b.q1)
    np.testing.assert_array_equal(a.q2, b.q2)


def test_haar_symplectic_sp1_is_unit_quaternion():
    q = one_symplectic(1, RngStream(16), 0)
    assert abs(float(qabs((q.q1[0, 0], q.q2[0, 0]))) - 1.0) <= 1e-12


def test_rng_split_streams_are_order_independent():
    root = RngStream(123)
    a = root.split(5).gen.standard_normal(3)
    root2 = RngStream(123)
    _ = root2.split(1).gen.standard_normal(10)
    b = root2.split(5).gen.standard_normal(3)
    np.testing.assert_array_equal(a, b)


# ------------------------------------------------- block seeding vs numpy

def numpy_normals(seed, key, count=6):
    """What numpy's own SeedSequence with a spawn key draws for (seed, key)."""
    gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    return gen.standard_normal(count)


def stream(seed, key):
    s = RngStream(seed)
    for k in key:
        s = s.split(k)
    return s


EDGE_SEEDS = (0, 2 ** 32 - 1, 2 ** 32, 10 ** 30)
EDGE_KEYS = ((), (0,), (2 ** 32 - 1,), (2 ** 32,), (2 ** 32 + 1,), (3, 2 ** 32 - 1),
             (2 ** 32, 7), (1, 2 ** 64 + 5, 0), (5, 6, 7, 8, 9))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_lone_stream_matches_numpy_seed_sequence(seed):
    # key lengths of 1 to 9 entropy words, each stream seeding itself
    for key in EDGE_KEYS:
        np.testing.assert_array_equal(stream(seed, key).gen.standard_normal(6),
                                      numpy_normals(seed, key))


def test_a_stream_keeps_its_generator_between_draws():
    drawn = RngStream(4).split(1)
    first = drawn.gen.standard_normal(3)
    expected = numpy_normals(4, (1,), 6)
    np.testing.assert_array_equal(first, expected[:3])
    np.testing.assert_array_equal(drawn.gen.standard_normal(3), expected[3:])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2 ** 33) | st.integers(0, 2 ** 130),
       keys=st.lists(st.lists(st.integers(0, 2 ** 33) | st.integers(0, 2 ** 70), max_size=4),
                     min_size=1, max_size=6))
def test_lone_stream_matches_numpy_on_random_paths(seed, keys):
    for key in keys:
        np.testing.assert_array_equal(stream(seed, key).gen.standard_normal(6),
                                      numpy_normals(seed, tuple(key)))


ONE_OR_TWO_WORDS = st.integers(0, 2 ** 32 - 1) | st.integers(2 ** 32, 2 ** 64 - 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2 ** 33) | st.integers(0, 2 ** 130),
       parent=st.lists(st.integers(0, 2 ** 33) | st.integers(0, 2 ** 70), max_size=3),
       ids=st.lists(ONE_OR_TWO_WORDS, min_size=1, max_size=8),
       suffix=st.lists(st.integers(0, 2 ** 33), max_size=2))
def test_stream_block_matches_numpy_on_random_blocks(seed, parent, ids, suffix):
    # ids of one and two words in one block are seeded in one group each
    block = StreamBlock(stream(seed, parent), ids)
    for k in suffix:
        block = block.split(k)
    for k, gen in zip(ids, block.generators(), strict=True):
        np.testing.assert_array_equal(gen.standard_normal(6),
                                      numpy_normals(seed, (*parent, k, *suffix)))


PARENT_KEYS = ((), (3,), (2 ** 32, 7), (1, 2 ** 64 + 5, 0))
BLOCK_IDS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1)
SUFFIXES = ((), (1,), (1, 3))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("parent", PARENT_KEYS, ids=len)
def test_stream_block_matches_numpy_seed_sequence(seed, parent):
    # trial ids of one and two words in one block, key depths 0-3 above
    # them and suffixes of 0-2 keys below: every Generator draws what
    # numpy's own SeedSequence of its full key draws
    for suffix in SUFFIXES:
        block = StreamBlock(stream(seed, parent), BLOCK_IDS)
        for k in suffix:
            block = block.split(k)
        gens = block.generators()
        assert len(gens) == len(block) == len(BLOCK_IDS)
        for k, gen in zip(BLOCK_IDS, gens):
            np.testing.assert_array_equal(gen.standard_normal(6),
                                          numpy_normals(seed, (*parent, k, *suffix)))


def test_trial_blocks_cover_every_trial_with_its_own_stream(monkeypatch):
    monkeypatch.setattr(matrixcore, "TRIAL_BLOCK", 7)
    rng = RngStream(5).split(2)
    blocks = list(trial_blocks(rng, 17, 4))
    assert [list(ks) for ks, _ in blocks] == [list(range(0, 7)), list(range(7, 14)),
                                             list(range(14, 17))]
    for ks, block in blocks:
        for k, gen in zip(ks, block.split(4).generators()):
            np.testing.assert_array_equal(gen.standard_normal(6), numpy_normals(5, (2, k, 4)))


def test_stream_block_refuses_a_bad_key():
    for bad in (-1, True, 1.5):
        with pytest.raises(InvalidInput):
            StreamBlock(RngStream(0), [0, bad])
        with pytest.raises(InvalidInput):
            StreamBlock(RngStream(0), range(3)).split(bad)
    with pytest.raises(InvalidInput):
        StreamBlock(RngStream(0), range(-1, 2))


def test_monte_carlo_checks_seed_a_block_per_suffix(monkeypatch):
    # the trial blocks are seeded without a per-trial RngStream split, and
    # with one hash pass per block and key suffix
    splits, hashes = [], []
    split, seed_states = RngStream.split, matrixcore._seed_states

    def counting_split(self, k):
        splits.append(k)
        return split(self, k)

    def counting_seed_states(entropy):
        hashes.append(len(entropy))
        return seed_states(entropy)

    monkeypatch.setattr(RngStream, "split", counting_split)
    monkeypatch.setattr(matrixcore, "_seed_states", counting_seed_states)
    assert checks.eigenlemma(4, 600, RngStream(0)).ok
    # three blocks (256, 256, 88 trials), P and Q streams of each
    assert (splits, hashes) == ([], [256, 256, 256, 256, 88, 88])
    hashes.clear()
    assert checks.commutator(2, 2, 50, RngStream(0)).ok
    # one block: its angle streams, then the four Haar factors' streams
    assert (splits, hashes) == ([], [50] * 5)
    hashes.clear()
    assert checks.sp_witness(RandersSpec("sp_sphere", n=2, a1=1.2, a2=1.5, b=1.0, c=0.3),
                             RngStream(0)).ok
    # the three cases n = 1..3 are one block
    assert (splits, hashes) == ([], [3])
    hashes.clear()
    assert checks.endpoints(0.5, 40, RngStream(0)).ok
    # the start points are one block, then each one's samples another; the
    # only splits are the check's own stream and one parent per start
    # point, none per sample
    assert (splits, hashes) == ([0, 0, 1, 2], [3, 40, 40, 40])


@pytest.mark.parametrize("key", (-1, True, np.True_, 1.5, 2.0, "3", None))
def test_rng_split_rejects_a_bad_key_at_split_time(key):
    with pytest.raises(InvalidInput):
        RngStream(0).split(key)


def test_rng_split_accepts_numpy_integers():
    np.testing.assert_array_equal(RngStream(3).split(np.int64(2)).gen.standard_normal(4),
                                  numpy_normals(3, (2,), 4))


def test_monte_carlo_check_builds_no_seed_sequence(monkeypatch):
    # every stream of a Monte-Carlo run is seeded by the vectorised pass;
    # a fallback to numpy's per-stream SeedSequence fails here
    built = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    def counting_default_rng(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
    report = checks.eigenlemma(4, 600, RngStream(0))
    assert len(report.rows) == 600 and report.ok
    assert built == []


# ------------------------------------------------------------------ conjugate

def test_conjugate_by_identity_fixes_element():
    x = random_skew(3, RngStream(17), 0)
    np.testing.assert_array_equal(conjugate(np.eye(3), x), x)


def test_conjugate_fixes_center():
    g = haar_unitary(4, StreamBlock(RngStream(18), [0]))[0]
    np.testing.assert_allclose(conjugate(g, 1j * np.eye(4)), 1j * np.eye(4),
                               atol=1e-14)


def test_conjugate_preserves_phase_multiset():
    rng = RngStream(19)
    x = random_skew(5, rng, 0)
    g = haar_unitary(5, StreamBlock(rng, [1]))[0]
    u = expm_skew(x, 1.0)
    before = unitary_phases(u)
    after = unitary_phases(conjugate(g, u))
    np.testing.assert_allclose(after, before, atol=1e-9)


def test_conjugate_preserves_skewness():
    rng = RngStream(20)
    x = random_skew(4, rng, 0)
    g = haar_unitary(4, StreamBlock(rng, [1]))[0]
    y = conjugate(g, x)
    assert np.max(np.abs(y + y.conj().T)) <= 1e-12


def test_conjugate_shape_mismatch():
    with pytest.raises(InvalidInput):
        conjugate(np.eye(3), np.zeros((2, 2)))


# ------------------------------------------------- quaternion pair arithmetic

def test_quaternion_pair_against_complex_embedding():
    # the 2n x 2n embedding is the independent oracle for pair products
    rng = RngStream(21)
    a = one_symplectic(3, rng, 0)
    b = one_symplectic(3, rng, 1)
    prod = a @ b
    np.testing.assert_allclose(to_complex(prod),
                               to_complex(a) @ to_complex(b), atol=1e-13)
    np.testing.assert_allclose(to_complex(a.conj_t()),
                               to_complex(a).conj().T, atol=1e-13)


def test_qmul_matches_hamilton_table():
    i = (1j + 0j, 0j)
    j = (0j, 1 + 0j)
    k = (0j, 1j)
    for unit in (i, j, k):
        sq = qmul(unit, unit)
        assert sq[0] == -1 and sq[1] == 0
    ij = qmul(i, j)
    assert ij[0] == k[0] and ij[1] == k[1]
    ji = qmul(j, i)
    assert ji[0] == -k[0] and ji[1] == -k[1]


def qconj(x):
    """Quaternion conjugate of a pair, elementwise."""
    return (np.conj(x[0]), -x[1])


def test_qconj_and_modulus():
    x = (0.3 + 0.4j, -0.1 + 0.2j)
    prod = qmul(x, qconj(x))
    assert prod[1] == 0
    np.testing.assert_allclose(prod[0], float(qabs(x)) ** 2, atol=1e-15)


def test_quaternion_products_do_not_depend_on_batch_size():
    # 20000 rows of two quaternions put each conjugate temporary past the
    # 256 KiB at which numpy would reuse it for a product; the batch must
    # give the bits of the same rows in 1000-row calls
    g = np.random.default_rng(30)

    def pairs():
        return tuple(g.standard_normal((20000, 2)) + 1j * g.standard_normal((20000, 2))
                     for _ in range(2))
    x, y = pairs(), pairs()
    whole = qmul(x, y)
    parts = [qmul(tuple(c[top:top + 1000] for c in x), tuple(c[top:top + 1000] for c in y))
             for top in range(0, 20000, 1000)]
    for k in range(2):
        assert np.array_equal(whole[k], np.concatenate([p[k] for p in parts]))


# -------------------------------------------------------------------- su(2)

def test_su2_unit_vector_exponential_focus():
    # a traceless skew-Hermitian X = [[ia, b + ic], [-b + ic, -ia]] with
    # a^2 + b^2 + c^2 = 1 has eigenvalues +-i, hence exp(pi X) = -I
    rng = RngStream(22)
    for k in range(5):
        v = rng.split(k).gen.standard_normal(3)
        a, b, c = v / np.linalg.norm(v)
        x = np.array([[1j * a, b + 1j * c], [-b + 1j * c, -1j * a]])
        np.testing.assert_allclose(expm_skew(x, np.pi), -np.eye(2), atol=1e-13)


def test_validators_reject_bad_input():
    with pytest.raises(InvalidInput):
        as_unitary(np.ones((2, 2)))
    with pytest.raises(InvalidInput):
        as_skew_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(InvalidInput):
        QuaternionMatrix(np.zeros((2, 2)), np.zeros((3, 3)))
    # the samplers take a StreamBlock, never a lone stream or a list of them
    for draw in (lambda r: haar_unitary(2, r), lambda r: haar_symplectic(1, r),
                 lambda r: _ginibre(r, 2, 2),
                 lambda r: block_angle_unitary(1, 1, [[0.5]], r)):
        for rngs in (RngStream(1), [RngStream(1).split(0)]):
            with pytest.raises(InvalidInput, match="StreamBlock"):
                draw(rngs)
