import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import is_real, max_imag_on_grid

from kamcocycle import torus_fourier
from kamcocycle.errors import KamFailure
from kamcocycle.sl2_algebra import lm_spectrum
from kamcocycle.torus_fourier import (
    PRUNE_REL,
    TorusMap,
    exp_series_tail,
    op_norm_2x2,
)

RNG = np.random.default_rng(20240811)


def single_mode(half_k, M):
    return TorusMap.from_modes(len(half_k), [(tuple(half_k), M)])


def exp_map(X, r):
    """exp(X) = I + P with the certified tail bound of the series P."""
    P, _, tail = exp_series_tail(X, r)
    return TorusMap.identity(X.d).add(P), tail


def to_json(F):
    return json.dumps(F.to_json_obj(), sort_keys=True)


def from_json(s):
    return TorusMap.from_json_obj(json.loads(s))


def random_map(d=2, n_modes=10, scale=1.0, real=True, rng=RNG, max_k=3):
    """Random real map: draw modes with k-entries in [-max_k, max_k]."""
    modes = {}
    for _ in range(n_modes):
        hk = tuple(2 * rng.integers(-max_k, max_k + 1, size=d))
        M = scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        modes[hk] = modes.get(hk, 0) + M
    if real:
        ent = []
        for hk, M in modes.items():
            ent.append((hk, 0.5 * M))
            ent.append((tuple(-np.array(hk)), 0.5 * np.conj(M)))
        return TorusMap.from_modes(d, ent, reality=True)
    return TorusMap.from_modes(d, list(modes.items()))


def test_weighted_norm_constant():
    M = np.array([[1.0, 2.0], [0.0, -1.0]])
    F = TorusMap.constant(M, d=2)
    for r in (0.0, 0.3, 1.7):
        assert F.weighted_norm(r) == pytest.approx(op_norm_2x2(M), rel=1e-15)


def test_weighted_norm_cosine_mode():
    # F(theta) = 2 cos(2 pi theta_1) * M  in d=1: coefficients M at k = +-1
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    F = TorusMap.from_modes(1, [((2,), M), ((-2,), M)], reality=True)
    r = 0.1
    expected = 2.0 * op_norm_2x2(M) * np.exp(2 * np.pi * r)
    assert F.weighted_norm(r) == pytest.approx(expected, rel=1e-14)


def test_weighted_norm_empty():
    assert TorusMap.zero(3).weighted_norm(0.5) == 0.0


def test_op_norms_exact_for_tiny_blocks():
    # the squares of entries below about 1e-77 leave the normal range; the
    # norm of [[0, c], [0, 0]] is c at every scale, subnormal c included
    for c in (1e-100, 1e-160, 1e-300, 5e-324):
        assert op_norm_2x2(np.array([[0.0, c], [0.0, 0.0]])) == c


def test_op_norms_exact_for_huge_blocks():
    # the squares of entries above about 1.3e154 overflow; the norm does not
    # (the test config turns an overflow RuntimeWarning into an error)
    for c in (1e160, 1e200, 1e300, np.finfo(float).max):
        assert op_norm_2x2(np.array([[c, 0.0], [0.0, 0.0]])) == c
    assert op_norm_2x2(np.array([[1e200, 1e200], [1e200, 1e200]])) == pytest.approx(
        2e200, rel=1e-15)


def test_op_norms_exact_when_the_singular_values_are_close():
    # [[x, y], [y, -x]] has both singular values sqrt(x^2 + y^2): the
    # discriminant (p + q)^2 - 4 |det|^2 cancels to its rounding error there
    mpmath = pytest.importorskip("mpmath")
    x, y = 0.7261586983901966, 0.5
    with mpmath.workprec(200):
        exact = mpmath.sqrt(mpmath.mpf(x) ** 2 + mpmath.mpf(y) ** 2)
        for M in (np.array([[x, y], [y, -x]]), np.array([[x, y], [y, -x]], dtype=complex)):
            got = torus_fourier.op_norms(M[None])[0]
            assert abs(mpmath.mpf(got) - exact) <= 2 * np.spacing(float(exact))


@pytest.mark.parametrize("kind", ["real", "complex", "close"])
def test_op_norms_match_svd(kind):
    rng = np.random.default_rng(8)
    B = rng.standard_normal((2000, 2, 2))
    if kind == "complex":
        B = B + 1j * rng.standard_normal((2000, 2, 2))
    elif kind == "close":  # rotations scaled by c, plus a perturbation of 1e-6 c
        t, c = rng.uniform(0, 2 * np.pi, 2000), np.exp(rng.uniform(-5, 5, 2000))
        R = np.stack([np.stack([np.cos(t), -np.sin(t)], -1), np.stack([np.sin(t), np.cos(t)], -1)], 1)
        B = c[:, None, None] * (R + 1e-6 * B)
    want = np.linalg.norm(B, ord=2, axis=(1, 2))
    np.testing.assert_allclose(torus_fourier.op_norms(B), want, rtol=1e-15, atol=0)


def test_op_norms_match_svd_at_tiny_scale():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
    tiny = np.ldexp(B.real, -600) + 1j * np.ldexp(B.imag, -600)
    want = np.linalg.norm(B, ord=2, axis=(1, 2))  # scaling by 2^-600 is exact
    np.testing.assert_allclose(np.ldexp(torus_fourier.op_norms(tiny), 600), want,
                               rtol=1e-14)


def test_op_norms_match_svd_at_mixed_scales():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
    # huge, tiny and normal blocks in one call
    e = np.array([600, -600, 0, 0] * 16)[:, None, None]
    mixed = np.ldexp(B.real, e) + 1j * np.ldexp(B.imag, e)
    want = np.linalg.norm(B, ord=2, axis=(1, 2))  # scaling by 2^e is exact
    np.testing.assert_allclose(np.ldexp(torus_fourier.op_norms(mixed), -e[:, 0, 0]),
                               want, rtol=1e-14)


def test_weighted_norm_exact_at_tiny_scale():
    # the norm is exact; exp(log(norm)) in the weighting rounds at about 3e-14
    F = single_mode((2, 0), np.array([[0.0, 1e-100], [0.0, 0.0]]))
    assert F.weighted_norm(0.0) == pytest.approx(1e-100, rel=1e-13, abs=0.0)


def test_modulus_convention():
    F = single_mode((2, -4), np.eye(2))
    assert F.modulus()[0] == 3.0
    assert single_mode((1, 1), np.eye(2)).modulus()[0] == 1.0  # genuine half modes
    assert F.lattice == "integer"
    assert single_mode((1, 0), np.eye(2)).lattice == "half"


def test_truncate_keeps_low_modes():
    F = TorusMap.from_modes(
        2,
        [((2, 0), np.eye(2)), ((4, 2), np.eye(2)), ((6, 0), np.eye(2))],
    )  # moduli 1, 3, 3
    G = F.truncate(2)
    assert G.n_modes == 1
    assert G.modulus()[0] == 1.0
    C = TorusMap.constant(np.eye(2), 2)
    assert C.truncate(0).n_modes == 1


def test_truncation_norm_identity():
    F = random_map(n_modes=20, rng=np.random.default_rng(7))
    r = 0.23
    for N in (0, 1, 2, 3):
        FN = F.truncate(N)
        tail = F - FN
        lhs = tail.weighted_norm(r)
        rhs = F.weighted_norm(r) - FN.weighted_norm(r)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-300)


def test_mul_constants():
    M1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    M2 = np.array([[0.0, 1.0], [-1.0, 0.5]])
    F = TorusMap.constant(M1, 2).mul(TorusMap.constant(M2, 2))
    assert F.n_modes == 1
    np.testing.assert_allclose(F.coeffs[0], M1 @ M2)


def test_mul_delta_modes():
    e_k = single_mode((2, 0), np.eye(2))
    e_j = single_mode((0, 4), np.eye(2))
    F = e_k.mul(e_j)
    assert F.n_modes == 1
    assert tuple(F.half_k[0]) == (2, 4)


def test_submultiplicativity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        F = random_map(n_modes=10, rng=rng)
        G = random_map(n_modes=10, rng=rng)
        r = rng.uniform(0.0, 0.4)
        assert F.mul(G).weighted_norm(r) <= F.weighted_norm(r) * G.weighted_norm(r) * (1 + 1e-12)


# -- convolution against a dict oracle --------------------------------------------

EPS = np.finfo(float).eps


def diamond(d, radius, step=2, shift=0):
    """Index rows h = step * m + shift with |m|_1 <= radius."""
    rows = [m for m in itertools.product(range(-radius, radius + 1), repeat=d)
            if sum(map(abs, m)) <= radius]
    return step * np.array(rows, dtype=np.int64) + shift


def diagonal(d, n, start, spacing, rng):
    """n sparse index rows on the diagonal t * (1, ..., 1), far from 0."""
    t = start + spacing * np.sort(rng.choice(1000 * n, size=n, replace=False))
    return np.repeat(t[:, None], d, axis=1)


def random_coeffs(n, rng):
    return rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))


def dict_mul(a, b):
    """Convolution one mode pair at a time, with the bound sum |a||b| per mode."""
    out, bound = {}, {}
    for ka, ca in zip(map(tuple, a.half_k.tolist()), a.coeffs):
        for kb, cb in zip(map(tuple, b.half_k.tolist()), b.coeffs):
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + ca @ cb
            bound[k] = bound.get(k, 0) + np.abs(ca) @ np.abs(cb)
    return out, bound


def modes_of(F):
    return {tuple(k): c for k, c in zip(F.half_k.tolist(), F.coeffs)}


def pruned(modes):
    # a product or sum drops only the blocks whose entries are all zero
    return {k: c for k, c in modes.items() if np.any(c)}


def assert_mul_matches_oracle(a, b):
    prod = a.mul(b)
    want, bound = dict_mul(a, b)
    want = pruned(want)
    got = modes_of(prod)
    assert sorted(got) == sorted(want)
    assert list(map(tuple, prod.half_k.tolist())) == sorted(got)  # canonical order
    for k, c in got.items():
        assert np.all(np.abs(c - want[k]) <= 4 * EPS * bound[k]), k
    return prod


def assert_add_and_realified_unchanged(a, b):
    want = modes_of(a)
    for k, c in modes_of(b).items():
        want[k] = want.get(k, 0) + c
    assert_modes_equal(a.add(b), pruned(want))
    cur = modes_of(a)
    want = {}
    for k, c in cur.items():
        for key, term in ((k, c), (tuple(-x for x in k), np.conj(c))):
            want[key] = want.get(key, 0) + term
    assert_modes_equal(a.realified(), pruned({k: 0.5 * c for k, c in want.items()}))


def assert_modes_equal(F, want):
    got = modes_of(F)
    assert sorted(got) == sorted(want)
    for k, c in got.items():
        assert np.array_equal(c, want[k]), k


@pytest.fixture
def unique_calls(monkeypatch):
    """Counts np.unique calls: the sort path makes them, the box path does not."""
    calls = []
    unique = np.unique

    def spy(*args, **kwargs):
        calls.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    return calls


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lattice", ["integer", "half"])
def test_mul_matches_dict_oracle_dense_box(d, lattice, unique_calls):
    rng = np.random.default_rng(100 + 10 * d + (lattice == "half"))
    radius = {1: 12, 2: 5, 3: 3}[d]
    if lattice == "integer":
        h1, h2 = diamond(d, radius), diamond(d, radius - 1)
    else:
        # odd shift in dimension 0 for one operand, all integers for the other
        h1 = diamond(d, radius, shift=np.eye(1, d, dtype=np.int64)[0])
        h2 = diamond(d, 2 * radius - 2, step=1)
    a = TorusMap(d, h1, random_coeffs(len(h1), rng))
    b = TorusMap(d, h2, random_coeffs(len(h2), rng))
    assert a.lattice == lattice
    for x, y in ((a, b), (b, a), (a, a), (TorusMap.constant(random_coeffs(1, rng)[0], d), b)):
        unique_calls.clear()
        assert_mul_matches_oracle(x, y)
        assert not unique_calls
    assert_add_and_realified_unchanged(a, b)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lattice", ["integer", "half"])
def test_mul_matches_dict_oracle_sparse_diagonal(d, lattice, unique_calls):
    rng = np.random.default_rng(200 + 10 * d + (lattice == "half"))
    shift = 1 if lattice == "half" else 0
    h1 = diagonal(d, 12, 4000 + shift, 2, rng)
    h2 = diagonal(d, 9, -9000, 2, rng)
    a = TorusMap(d, h1, random_coeffs(len(h1), rng))
    b = TorusMap(d, h2, random_coeffs(len(h2), rng))
    assert a.lattice == lattice
    for x, y in ((a, b), (b, a), (a, a)):
        unique_calls.clear()
        assert_mul_matches_oracle(x, y)
        assert unique_calls
    assert_add_and_realified_unchanged(a, b)


@pytest.mark.parametrize("support", ["box", "sort"])
def test_mul_several_passes_matches_dict_oracle(support, monkeypatch, unique_calls):
    rng = np.random.default_rng(300)
    if support == "box":
        d, h1, h2 = 1, diamond(1, 20), diamond(1, 15)
    else:
        d, h1, h2 = 2, diagonal(2, 40, 500, 2, rng), diagonal(2, 30, 0, 2, rng)
    a = TorusMap(d, h1, random_coeffs(len(h1), rng))
    b = TorusMap(a.d, h2, random_coeffs(len(h2), rng))
    single = a.mul(b)
    monkeypatch.setattr(torus_fourier, "MUL_CHUNK", 256)  # 8 rows of b per pass
    # 2 rows per block, or 3, so that the last block of a pass is cut short
    for block in (64, 96):
        monkeypatch.setattr(torus_fourier, "BLOCK", block)
        unique_calls.clear()
        prod = assert_mul_matches_oracle(a, b)
        assert bool(unique_calls) == (support == "sort")
        np.testing.assert_allclose(prod.coeffs, single.coeffs, rtol=0, atol=1e-13)
        assert np.array_equal(prod.half_k, single.half_k)


def decaying_map(d, radius, decay, rng):
    """Random blocks on the l1 diamond of integer modes, of size e^{-decay |m|}."""
    hk = diamond(d, radius)
    size = np.exp(-decay * np.abs(hk).sum(axis=1) / 2)
    return TorusMap(d, hk, random_coeffs(len(hk), rng) * size[:, None, None])


def skipped_pairs(a, b, r):
    """The wave x wave pairs with w_i w_j < PAIR_REL |a_wave|_r |b_wave|_r."""
    wa, wb = (np.where(m.half_k.any(axis=1), m._weights(r), np.inf) for m in (a, b))
    limit = torus_fourier.PAIR_REL * a.wave_norm(r) * b.wave_norm(r)
    return int((wa[:, None] * wb < limit).sum())


def assert_same_bits(F, G):
    assert np.array_equal(F.half_k, G.half_k)
    assert F.coeffs.tobytes() == G.coeffs.tobytes()


@pytest.mark.parametrize("support", ["box", "sort"])
def test_mul_skip_drops_below_its_bound(support, monkeypatch, unique_calls):
    # |a.mul(b, r) - a.mul(b)|_r <= (skipped pairs) PAIR_REL |a_wave|_r |b_wave|_r:
    # a skipped product weighs at most w_i w_j at r
    rng = np.random.default_rng(400)
    r = 0.5
    if support == "sort":
        monkeypatch.setattr(torus_fourier, "BOX_FILL", 0)
    for _ in range(3):
        a, b = decaying_map(2, 9, 14.0, rng), decaying_map(2, 8, 14.0, rng)
        skipped = skipped_pairs(a, b, r)
        assert 0.5 * a.n_modes * b.n_modes <= skipped < a.n_modes * b.n_modes
        unique_calls.clear()
        exact, fast = a.mul(b), a.mul(b, r)
        assert bool(unique_calls) == (support == "sort")
        assert fast.n_modes < exact.n_modes
        bound = skipped * torus_fourier.PAIR_REL * a.wave_norm(r) * b.wave_norm(r)
        assert 0 < (fast - exact).weighted_norm(r) <= bound


@pytest.mark.parametrize("support", ["box", "sort"])
def test_mul_skip_with_nothing_to_skip_is_the_same_product(support, monkeypatch):
    # the kept pairs are gathered and summed in the order of the outer
    # products, so with every pair kept the bits do not move, over several
    # passes and blocks too
    rng = np.random.default_rng(401)
    r = 0.5
    a, b = decaying_map(2, 6, 0.5, rng), decaying_map(2, 5, 0.5, rng)
    monkeypatch.setattr(torus_fourier, "SKIP_PAIRS", 0)
    monkeypatch.setattr(torus_fourier, "SKIP_KEEP", 1.0)
    if support == "sort":
        monkeypatch.setattr(torus_fourier, "BOX_FILL", 0)
    assert skipped_pairs(a, b, r) == 0
    # one pass; several of 4 rows in blocks of 1 row; and of 3 rows, the
    # last block of each pass cut short
    for chunk, block in ((1 << 22, 1 << 13), (256, 64), (256, 192)):
        monkeypatch.setattr(torus_fourier, "MUL_CHUNK", chunk)
        monkeypatch.setattr(torus_fourier, "BLOCK", block)
        keep, pairs = torus_fourier._kept_pairs(a, b, r)
        assert keep is not None and pairs == a.n_modes * b.n_modes
        assert_same_bits(a.mul(b, r), a.mul(b))


def test_mul_skip_keeps_every_pair_with_a_constant_block(monkeypatch):
    rng = np.random.default_rng(402)
    r = 0.5
    monkeypatch.setattr(torus_fourier, "SKIP_PAIRS", 0)
    monkeypatch.setattr(torus_fourier, "SKIP_KEEP", 1.0)
    b = decaying_map(2, 9, 14.0, rng)
    c = TorusMap.constant(random_coeffs(1, rng)[0], 2)
    for x, y in ((b, c), (c, b), (c, c)):
        assert_same_bits(x.mul(y, r), x.mul(y))
    # a constant block and one far wave, whose products with the tiniest
    # blocks of b are skipped: at b's own modes only the constant block
    # contributes, and nothing of it is skipped
    a = TorusMap(2, [[0, 0], [60, 0]], random_coeffs(2, rng))
    assert skipped_pairs(a, b, r) > 0
    for fast, exact in ((a.mul(b, r), a.mul(b)), (b.mul(a, r), b.mul(a))):
        assert fast.n_modes < exact.n_modes
        for k in b.half_k:
            assert fast.coeff(k).tobytes() == exact.coeff(k).tobytes()


def test_mul_prunes_cancelled_modes():
    # (I + P e_1)(I - P e_1) = I - P^2 e_2: the e_1 terms cancel exactly, and
    # e_2 vanishes too since P^2 = 0; the 1e-301 mode and its product with
    # P stay, however small
    P = np.array([[0.0, 1.0], [0.0, 0.0]])
    a = TorusMap(1, [[0], [2], [40]], [np.eye(2), P, 1e-301 * np.eye(2)])
    b = TorusMap(1, [[0], [2]], [np.eye(2), -P])
    prod = assert_mul_matches_oracle(a, b)
    assert prod.half_k.tolist() == [[0], [40], [42]]
    np.testing.assert_array_equal(prod.coeffs[0], np.eye(2))
    np.testing.assert_array_equal(prod.coeffs[2], -1e-301 * P)
    # blocks of 1e-160, whose squared entries underflow, are kept too
    rng = np.random.default_rng(4)
    tiny = TorusMap(2, diamond(2, 3), 1e-160 * random_coeffs(25, rng))
    prod = assert_mul_matches_oracle(tiny, TorusMap(2, diamond(2, 1), random_coeffs(5, rng)))
    assert prod.n_modes == diamond(2, 4).shape[0]


def assert_kept_unchanged(capped, F):
    # cap_support only drops: every block it keeps is F's block, bit for bit
    for k, c in zip(map(tuple, capped.half_k.tolist()), capped.coeffs):
        assert np.array_equal(c, F.coeff(k))


def test_cap_support_drops_light_blocks_by_weight():
    # a non-constant block goes when its weight at r is below PRUNE_REL times
    # the non-constant mass at r; the weight, not the raw size, decides
    B = np.array([[1.0, 2.0], [0.0, -1.0]])
    r = 0.25
    modes = {(0, 0): np.eye(2), (2, 0): 1e-3 * B, (0, 4): 1e-20 * B, (4, 0): 1e-40 * B,
             (6, 0): 1e-160 * B, (0, 60): 1e-36 * B}
    F = TorusMap.from_modes(2, list(modes.items()))
    weight = {k: op_norm_2x2(c) * math.exp(math.pi * (abs(k[0]) + abs(k[1])) * r)
              for k, c in modes.items()}
    mass = sum(w for k, w in weight.items() if k != (0, 0))
    light = [k for k, w in weight.items() if k != (0, 0) and w < PRUNE_REL * mass]
    assert light == [(4, 0), (6, 0)]
    capped = F.cap_support(r)
    # (0, 60) stays: its weight at r is e^{15 pi} = 3e20 times its size
    assert sorted(modes_of(capped)) == [(0, 0), (0, 4), (0, 60), (2, 0)]
    assert_kept_unchanged(capped, F)
    # at r = 0 it weighs its size, below the threshold there, and goes
    assert sorted(modes_of(F.cap_support(0.0))) == [(0, 0), (0, 4), (2, 0)]
    assert capped.cap_support(r) is capped  # nothing left to drop


def test_cap_support_weighs_against_the_non_constant_mass():
    # a whole-map rule would drop all of P from Z = I + P once |P| < PRUNE_REL
    P = TorusMap.from_modes(2, [((2, 0), 1e-40 * np.eye(2)), ((0, 2), 1e-41 * np.eye(2))])
    Z = TorusMap.identity(2).add(P)
    assert Z.cap_support(0.5) is Z
    # and the constant block stays however light it is
    F = TorusMap.constant(1e-300 * np.eye(2), 2).add(P)
    assert F.cap_support(0.5) is F


def test_cap_support_keeps_the_constant_block_past_the_mode_cap(monkeypatch):
    # the constant block of F' is of order |F|^2 and may weigh less than the
    # waves the cap keeps; it stays all the same
    monkeypatch.setattr(torus_fourier, "DEFAULT_MODE_CAP", 2)
    B = np.array([[1.0, 2.0], [0.0, -1.0]])
    F = TorusMap.from_modes(2, [((0, 0), 1e-20 * B), ((2, 0), 1e-10 * B),
                                ((0, 2), 1e-10 * B), ((2, 2), 1e-12 * B)])
    capped = F.cap_support(0.25)
    # the two heaviest waves and the constant block; (2, 2) goes
    assert sorted(modes_of(capped)) == [(0, 0), (0, 2), (2, 0)]
    assert_kept_unchanged(capped, F)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf)])
def test_non_finite_coefficient_raises(bad):
    # a NaN or infinite block has no norm to weigh or drop
    with pytest.raises(KamFailure, match="non-finite"):
        TorusMap(2, [[0, 0], [2, 0]], [[[bad, 0], [0, 1]], np.eye(2)])


def test_non_finite_product_raises():
    # the square of 1e200 overflows to inf
    with np.errstate(over="ignore"):
        big = TorusMap.constant(np.array([[1e200, 0.0], [0.0, 0.0]]), 2)
        with pytest.raises(KamFailure, match="non-finite"):
            big.mul(big)


def test_dir_derivative_basics():
    omega = np.array([1.0, 0.5 * (1 + np.sqrt(5))])
    C = TorusMap.constant(np.eye(2), 2)
    assert C.dir_derivative(omega).n_modes == 0
    hk = (2, -2)
    F = single_mode(hk, np.eye(2))
    dF = F.dir_derivative(omega)
    expected = 2j * np.pi * (1 * omega[0] + (-1) * omega[1])
    np.testing.assert_allclose(dF.coeffs[0], expected * np.eye(2), rtol=1e-15)


def test_dir_derivative_applies_the_mode_operators_frequency():
    # d_omega and L_m pair a mode with omega the same way, so the factor of
    # the derivative is lm_spectrum's d_m to the bit (a matrix product over
    # the modes rounds some of them differently)
    omega = np.array([1.0, 0.5 * (1 + np.sqrt(5))])
    m = np.array(list(itertools.product(range(-100, 101), repeat=2)))
    m = m[m.any(axis=1)]
    F = TorusMap(2, 2 * m, np.broadcast_to(np.eye(2), (len(m), 2, 2)))
    dF = F.dir_derivative(omega)
    assert dF.n_modes == len(m)
    np.testing.assert_array_equal(dF.coeffs[:, 0, 0],
                                  lm_spectrum(dF.half_k // 2, omega, 0.0)[0])


def test_dir_derivative_leibniz():
    rng = np.random.default_rng(3)
    omega = np.array([1.0, np.sqrt(2)])
    for _ in range(20):
        F = random_map(n_modes=6, rng=rng)
        G = random_map(n_modes=6, rng=rng)
        lhs = F.mul(G).dir_derivative(omega)
        rhs = F.dir_derivative(omega).mul(G) + F.mul(G.dir_derivative(omega))
        assert (lhs - rhs).weighted_norm(0.1) <= 1e-12 * max(
            1.0, F.weighted_norm(0.1) * G.weighted_norm(0.1)
        )


def test_exp_zero_and_nilpotent():
    Z, tail = exp_map(TorusMap.zero(2), r=0.5)
    assert Z.n_modes == 1 and tail == 0.0
    np.testing.assert_allclose(Z.coeffs[0], np.eye(2))
    X = TorusMap.constant(np.array([[0.0, 0.3], [0.0, 0.0]]), 1)
    E, _ = exp_map(X, r=0.2)
    np.testing.assert_allclose(E.coeffs[0], np.eye(2) + X.coeffs[0], atol=1e-16)


def test_exp_inverse_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        X = random_map(n_modes=4, scale=2e-3, rng=rng, max_k=1)
        r = 0.2
        P, Q, _ = exp_series_tail(X, r)
        I = TorusMap.identity(2)
        resid = (I + P).mul(I + Q) - I
        assert resid.weighted_norm(r) < 1e-12


def test_exp_of_minus_x_is_the_series_of_minus_x():
    # exp(-X) - I summed from the powers of X is the series of -X bit for
    # bit, and stops at the same order.  (A zero's sign can differ where the
    # supports of the partial sum and of a term never overlap; here they do.)
    rng = np.random.default_rng(77)
    for X in (random_map(n_modes=6, scale=1e-4, rng=rng),
              random_map(n_modes=6, scale=1e-4, real=False, rng=rng),
              TorusMap.constant(np.array([[0.0, 0.3], [0.0, 0.0]]), 1)):  # nilpotent
        _, Q, tail = exp_series_tail(X, 0.2)
        P_minus, _, tail_minus = exp_series_tail(X.scale(-1.0), 0.2)
        assert tail == tail_minus
        assert Q.half_k.tobytes() == P_minus.half_k.tobytes()
        assert Q.coeffs.tobytes() == P_minus.coeffs.tobytes()
        assert Q.reality == P_minus.reality


def test_exp_rejects_large_norm():
    X = TorusMap.constant(3.0 * np.eye(2), 1)
    with pytest.raises(KamFailure):
        exp_map(X, r=0.0)


def test_trace_projected_drops_pure_trace_blocks():
    # the projection of a pure-trace block is all zero, and a map in
    # canonical form holds no all-zero block
    F = TorusMap.from_modes(1, [((2,), np.eye(2)), ((0,), np.diag([1.0, -1.0]))])
    P = F.trace_projected()
    assert P.n_modes == 1
    np.testing.assert_array_equal(P.half_k, [[0]])
    np.testing.assert_array_equal(P.coeffs, [np.diag([1.0, -1.0])])
    assert TorusMap.zero(1).trace_projected().n_modes == 0


def test_eval_constant_and_reality():
    M = np.array([[0.5, -1.0], [2.0, 0.25]])
    F = TorusMap.constant(M, 2)
    np.testing.assert_allclose(F.eval(np.array([0.13, 0.77])), M)
    G = random_map(n_modes=8, rng=np.random.default_rng(9))
    assert is_real(G)
    assert max_imag_on_grid(G, 200) < 1e-13


def test_eval_dft_oracle():
    # d = 1 reconstruction: sample on 128 points of the double torus and
    # recover coefficients with the FFT.
    rng = np.random.default_rng(13)
    F = random_map(d=1, n_modes=6, rng=rng, max_k=5)
    n = 128
    thetas = (2.0 * np.arange(n) / n).reshape(-1, 1)
    samples = F.eval(thetas)  # e^{i pi half_k theta} = e^{2i pi half_k j / n}
    coeff_hat = np.fft.fft(samples, axis=0) / n
    for i in range(F.n_modes):
        k = int(F.half_k[i, 0]) % n
        np.testing.assert_allclose(coeff_hat[k], F.coeffs[i], atol=1e-12)


def test_norm_monotonic_in_r():
    F = random_map(n_modes=15, rng=np.random.default_rng(21))
    rs = [0.0, 0.05, 0.2, 0.5]
    norms = [F.weighted_norm(r) for r in rs]
    assert all(a <= b * (1 + 1e-15) for a, b in zip(norms, norms[1:]))


def test_sup_norm_bounded_by_weighted_norm():
    F = random_map(n_modes=12, rng=np.random.default_rng(23))
    thetas = np.random.default_rng(1).uniform(0, 2, size=(1000, 2))
    vals = F.eval(thetas)
    sups = np.linalg.svd(vals, compute_uv=False)[:, 0]
    assert sups.max() <= F.weighted_norm(0.0) * (1 + 1e-12)


def test_reality_preserved_by_ops():
    rng = np.random.default_rng(31)
    F = random_map(n_modes=6, rng=rng)
    G = random_map(n_modes=6, rng=rng)
    omega = np.array([1.0, np.e])
    assert (F + G).reality and is_real(F + G)
    assert F.mul(G).reality and is_real(F.mul(G))
    assert F.dir_derivative(omega).reality and is_real(F.dir_derivative(omega))
    assert F.truncate(2).reality
    E, _ = exp_map(F.scale(1e-3), 0.1)
    assert E.reality and is_real(E)


def test_cap_support_keeps_the_heaviest_blocks_and_their_pairs(monkeypatch):
    # past the cap (read from the module at each call) a real map keeps its
    # 10 heaviest blocks at r, the partner -k of each, and the constant block
    monkeypatch.setattr(torus_fourier, "DEFAULT_MODE_CAP", 10)
    rng = np.random.default_rng(41)
    F = random_map(n_modes=40, rng=rng, max_k=6)
    r = 0.15
    weight = {k: op_norm_2x2(F.coeff(k)) * math.exp(math.pi * (abs(k[0]) + abs(k[1])) * r)
              for k in modes_of(F)}
    # a block and its conjugate weigh the same, so the 10th heaviest weight
    # may split a pair; the partner comes back with its pair
    tenth = sorted(weight.values(), reverse=True)[9]
    heavy = {k for k, w in weight.items() if w >= tenth}
    assert (0, 0) not in heavy
    capped = F.cap_support(r)
    assert set(modes_of(capped)) == heavy | {(-k1, -k2) for k1, k2 in heavy} | {(0, 0)}
    assert capped.n_modes <= 12
    assert_kept_unchanged(capped, F)
    assert capped.reality and is_real(capped)


def test_json_roundtrip_bit_exact():
    F = random_map(n_modes=9, rng=np.random.default_rng(55))
    s = to_json(F)
    G = from_json(s)
    assert np.array_equal(F.half_k, G.half_k)
    assert np.array_equal(F.coeffs, G.coeffs)
    assert F.reality == G.reality
    assert to_json(G) == s
    # json text itself is reproducible
    assert to_json(from_json(to_json(G))) == s
    assert sorted(F.to_json_obj()) == ["d", "modes", "reality_flag"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(-4, 4),
            st.integers(-4, 4),
            st.floats(-2, 2, allow_nan=False),
            st.floats(-2, 2, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
    ),
    st.floats(0.0, 0.6),
)
# |F|_r - |F^N|_r would cancel here at N = 3: 8.05e4 - 8.05e4 against a
# tail of 2.76e-6
@example(modes=[(0, 3, 0.0, 1.0), (0, 4, 0.0, 1e-12)], r=0.5625)
def test_truncation_identity_property(modes, r):
    # |F - F^N|_r is the summed weight of F's blocks of modulus above N
    entries = []
    for k1, k2, x, y in modes:
        M = np.array([[x, y], [y, -x]], dtype=complex)
        entries.append(((2 * k1, 2 * k2), M))
        entries.append(((-2 * k1, -2 * k2), np.conj(M)))
    F = TorusMap.from_modes(2, entries, reality=True)
    norms = [op_norm_2x2(M) for M in F.coeffs]
    exponents = [2 * math.pi * mod * r for mod in F.modulus()]
    weights = [nm * math.exp(e) for nm, e in zip(norms, exponents)]
    # weighted_norm forms exp(log |F_k| + 2 pi |k| r), whose relative error
    # is a few units u of that exponent, the test's product a few u of
    # 2 pi |k| r; summing the n blocks of the map adds n u of the tail, and
    # below the normal range each of about four roundings per block ulp(0)
    u = 2.0 ** -52
    n = len(weights)
    errors = [w * (u * (2 * abs(math.log(nm)) + 2 * e + 8))
              for w, nm, e in zip(weights, norms, exponents)]
    for N in (0, 1, 3):
        above = F.modulus() > N
        tail = math.fsum(w for w, a in zip(weights, above) if a)
        tol = (math.fsum(err for err, a in zip(errors, above) if a) + n * u * tail
               + 4 * n * math.ulp(0.0))
        assert abs((F - F.truncate(N)).weighted_norm(r) - tail) <= tol


@pytest.mark.parametrize("modes", [[], [{"half_k": [2], "re": [[0.0, 1.0], [0.0, 0.0]],
                                         "im": [[0.0, 0.0], [0.0, 0.0]]}]])
def test_from_json_requires_the_reality_flag(modes):
    # one rule for an empty map and a nonempty one
    with pytest.raises(ValueError, match="reality_flag"):
        TorusMap.from_json_obj({"d": 1, "modes": modes})
    with pytest.raises(ValueError, match="reality_flag"):
        TorusMap.from_json_obj({"d": 1, "modes": modes, "reality_flag": 1})
    for flag in (True, False):
        F = TorusMap.from_json_obj({"d": 1, "modes": modes, "reality_flag": flag})
        assert F.reality is flag and F.n_modes == len(modes)
