"""Finitely supported Fourier series with 2x2 matrix coefficients.

A map is stored as a set of half-integer frequency indices ``half_k`` (the
actual frequency of a mode is ``half_k / 2``) together with one 2x2 complex
coefficient per index.  Indices with all-even entries form the ordinary
integer lattice of the torus; odd entries appear after resonance elimination,
which introduces genuine double-torus modes.  The modulus of an index is
``sum(|half_k_i|) / 2`` so that integer modes keep their usual l1 size.

All operations are pure: a TorusMap is never mutated after construction.

The convolution `TorusMap.mul` is one kernel (`_convolve`).  Each 2x2 block
product is written out in real arithmetic once (`_block_products`), applied
to row-major outer products over the mode pairs (i, j) or to the gathered
pairs that `mul(other, r)` keeps, and summed per output index in pair order.
Given a strip r, mul skips a product of two non-constant blocks whose weight
w_i w_j at r is below PAIR_REL |a_wave|_r |b_wave|_r, so the weighted mass
it drops is below that bound times the number of pairs skipped; the kept
pairs sum exactly as in the full product.  The output index is the cell of
the dense row-major box bounding the sums of the two supports when that box
has at most BOX_FILL cells per computed pair; for sparse supports it is the
np.unique inverse of the packed keys.  Both come out in packed-key order, so
a product needs no further sort.  Equal indices in
`add`, `realified` and the constructor are summed by the same accumulation
(`_accumulate`), indexed through np.unique.  The products agree bit for bit
with numpy's einsum on numpy 2.4; another build may round differently, at
about 1e-16 relative.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import KamFailure

TWO_PI = 2.0 * math.pi
# a block whose sum of squared moduli is outside [TINY_FROB2, HUGE_FROB2]
# is rescaled by a power of two before its norm is taken: its squares would
# leave the normal range
TINY_FROB2 = 2.0 ** -500
HUGE_FROB2 = 2.0 ** 500
DEFAULT_MODE_CAP = 4096
# cap_support drops a non-constant block weighing below this share of the
# non-constant mass at the strip
PRUNE_REL = 1e-30
# mul(other, r) skips a product of two non-constant blocks weighing below
# this share of the product of the operands' non-constant masses at r
PAIR_REL = 1e-34
# the skip is weighed only for products of at least SKIP_PAIRS pairs, and
# taken only when it keeps at most SKIP_KEEP of them: below SKIP_PAIRS a
# skip that keeps SKIP_KEEP of the pairs saves at most a tenth of the time
SKIP_PAIRS = 4096
SKIP_KEEP = 0.5
EXP_TOL = 1e-30  # certified tail of the exp(+-X) series
MUL_CHUNK = 1 << 22  # block products per convolution pass
BLOCK = 1 << 13  # block products per cache-sized block of a pass
BOX_FILL = 8  # dense box cells allowed per block product


def _pack_base(d: int) -> tuple[int, int]:
    shift = 63 // d
    return shift, 1 << (shift - 1)


def _pack(half_k: np.ndarray) -> np.ndarray:
    """Encode integer index rows into single int64 keys (order-preserving)."""
    d = half_k.shape[1]
    shift, base = _pack_base(d)
    if half_k.size and int(np.abs(half_k).max()) >= base:
        raise KamFailure("frequency index out of packable range")
    keys = np.zeros(half_k.shape[0], dtype=np.int64)
    for i in range(d):
        keys = (keys << shift) + (half_k[:, i].astype(np.int64) + base)
    return keys


def _unpack(keys: np.ndarray, d: int) -> np.ndarray:
    shift, base = _pack_base(d)
    out = np.empty((keys.shape[0], d), dtype=np.int64)
    mask = (1 << shift) - 1
    for i in range(d - 1, -1, -1):
        out[:, i] = (keys & mask) - base
        keys = keys >> shift
    return out


def _norms(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Operator norms of 2x2 blocks at their own scale, and the sums of the
    squared moduli of their entries."""
    a, b, c, d = (coeffs[..., i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    # the eigenvalues of M^H M are (p + q +- sqrt((p - q)^2 + 4 |s|^2)) / 2
    # with p, q the squared column norms and s = conj(a) b + conj(c) d their
    # inner product: unlike (p + q)^2 - 4 |det|^2, the root does not cancel
    # when the two singular values are close
    if np.iscomplexobj(coeffs):
        sq = np.abs(coeffs) ** 2
        p, q = sq[..., 0, 0] + sq[..., 1, 0], sq[..., 0, 1] + sq[..., 1, 1]
        s2 = np.abs(np.conj(a) * b + np.conj(c) * d) ** 2
    else:  # real input, such as the winding integrator's samples
        p, q = a * a + c * c, b * b + d * d
        s = a * b + c * d
        s2 = s * s
    frob2, diff = p + q, p - q
    return np.sqrt(0.5 * (frob2 + np.sqrt(diff * diff + 4.0 * s2))), frob2


def op_norms(coeffs: np.ndarray) -> np.ndarray:
    """Operator norms (largest singular value) of 2x2 blocks, to a few ulp.

    A block whose sum of squared moduli is outside [TINY_FROB2, HUGE_FROB2]
    (or overflows to inf) is scaled by 2^-e, 2^e just above its largest
    entry, and its norm scaled back by 2^e: both scalings are exact, also
    for subnormal entries.  Its unscaled norm, which may have overflowed, is
    discarded.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms, frob2 = _norms(coeffs)
    odd = (frob2 < TINY_FROB2) | (frob2 > HUGE_FROB2)
    if odd.any():
        small = coeffs[odd]
        _, e = np.frexp(np.maximum(np.abs(small.real), np.abs(small.imag)).max(axis=(1, 2)))
        scaled = (np.ldexp(small.real, -e[:, None, None])
                  + 1j * np.ldexp(small.imag, -e[:, None, None]))
        norms[odd] = np.ldexp(_norms(scaled)[0], e)
    return norms


def op_norm_2x2(M: np.ndarray) -> float:
    return float(op_norms(np.asarray(M, dtype=complex)[None, :, :])[0])


def pairing(k, omega) -> np.ndarray:
    """<k, omega> for an index (d,) or a stack (n, d), one vecdot per row: the
    pairing of both TorusMap.dir_derivative and sl2_algebra.lm_spectrum."""
    return np.vecdot(np.asarray(k, dtype=float), np.asarray(omega, dtype=float))


def project_traceless(M: np.ndarray) -> np.ndarray:
    """Remove the trace part of 2x2 blocks (..., 2, 2): the sl(2) projection."""
    out = np.array(M)
    tr = (out[..., 0, 0] + out[..., 1, 1]) / 2.0
    out[..., 0, 0] -= tr
    out[..., 1, 1] -= tr
    return out


class TorusMap:
    """Immutable finitely supported Fourier series, coefficients in C^{2x2}."""

    __slots__ = ("d", "half_k", "coeffs", "reality", "_keys", "_weighed")

    def __init__(self, d, half_k, coeffs, *, reality=False, _keys=None):
        # _keys: the packed keys of rows that are already sorted, unique and
        # pruned (the canonical form)
        half_k = np.asarray(half_k, dtype=np.int64).reshape(-1, d)
        coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1, 2, 2)
        if half_k.shape[0] != coeffs.shape[0]:
            raise ValueError("half_k and coeffs length mismatch")
        keys = _keys
        if keys is None:
            keys, half_k, coeffs = _merge(_pack(half_k), half_k, coeffs, d)
            half_k, coeffs, keys = _prune(half_k, coeffs, keys)
        self.d = d
        self.half_k = half_k
        self.coeffs = coeffs
        self.reality = bool(reality)
        self._keys = keys
        self._weighed = (None, None)  # (r, _weights(r)) of the last strip weighed
        self.half_k.setflags(write=False)
        self.coeffs.setflags(write=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "TorusMap":
        return cls(d, np.zeros((0, d)), np.zeros((0, 2, 2)), reality=True,
                   _keys=np.zeros(0, dtype=np.int64))

    @classmethod
    def constant(cls, M, d: int) -> "TorusMap":
        M = np.asarray(M, dtype=np.complex128)
        real = bool(np.abs(M.imag).max(initial=0.0) == 0.0)
        return cls(d, np.zeros((1, d)), M[None, :, :], reality=real)

    @classmethod
    def identity(cls, d: int) -> "TorusMap":
        return cls.constant(np.eye(2), d)

    @classmethod
    def from_modes(cls, d, modes, *, reality=False) -> "TorusMap":
        """Build from an iterable of (half_k tuple, 2x2 matrix) pairs."""
        hk = np.array([m[0] for m in modes], dtype=np.int64)
        cf = np.array([m[1] for m in modes], dtype=np.complex128)
        return cls(d, hk, cf, reality=reality)

    # -- basic queries -----------------------------------------------------

    @property
    def n_modes(self) -> int:
        return self.half_k.shape[0]

    @property
    def lattice(self) -> str:
        if self.n_modes == 0 or not np.any(self.half_k % 2):
            return "integer"
        return "half"

    def modulus(self) -> np.ndarray:
        return np.abs(self.half_k).sum(axis=1) / 2.0

    def coeff(self, half_k) -> np.ndarray:
        hk = np.asarray(half_k, dtype=np.int64).reshape(1, -1)
        key = _pack(hk)[0]
        i = np.searchsorted(self._keys, key)
        if i < self.n_modes and self._keys[i] == key:
            return self.coeffs[i].copy()
        return np.zeros((2, 2), dtype=np.complex128)

    # -- norm, truncation, capping ----------------------------------------

    def _weights(self, r: float) -> np.ndarray:
        """Operator norm of each block times exp(2*pi*|k|*r).

        Computed in the log domain so huge weights on tiny coefficients
        cannot overflow; a zero block weighs as the smallest subnormal.  The
        map is immutable, so the weights of the last strip are kept: a step
        weighs the same F, P and Q at the same strip several times.
        """
        if self._weighed[0] != r:
            norms = np.maximum(op_norms(self.coeffs), 5e-324)
            weights = np.exp(np.log(norms) + TWO_PI * self.modulus() * r)
            weights.setflags(write=False)
            self._weighed = (r, weights)
        return self._weighed[1]

    def weighted_norm(self, r: float) -> float:
        """Sum of operator norms weighted by exp(2*pi*|k|*r)."""
        if r < 0:
            raise ValueError("strip half-width must be nonnegative")
        if self.n_modes == 0:
            return 0.0
        return float(self._weights(r).sum())

    def wave_norm(self, r: float) -> float:
        """weighted_norm(r) of the non-constant blocks alone."""
        if self.n_modes == 0:
            return 0.0
        return float(self._weights(r)[self.half_k.any(axis=1)].sum())

    def constant_block(self) -> np.ndarray:
        """The coefficient of the zero mode (zero when the map has none)."""
        return self.coeffs[~self.half_k.any(axis=1)].sum(axis=0)

    def truncate(self, N: float) -> "TorusMap":
        if N < 0:
            raise ValueError("truncation order must be nonnegative")
        keep = self.modulus() <= N
        return TorusMap(self.d, self.half_k[keep], self.coeffs[keep],
                        reality=self.reality, _keys=self._keys[keep])

    def cap_support(self, r: float) -> "TorusMap":
        """Drop the coefficients that weigh little at strip half-width r.

        A block's weight is its operator norm times exp(2*pi*|k|*r).  Every
        non-constant block weighing below PRUNE_REL times the summed weight
        of the non-constant blocks is dropped (weighing against the whole
        map would drop all of P from I + P once |P| < PRUNE_REL), and so is
        every block but the constant one past the DEFAULT_MODE_CAP heaviest.
        Conjugate pairs are kept together when the map is flagged real.
        Nothing is booked: what is dropped shows in the residuals, which are
        measured on the stored coefficients.  Returns self when nothing is
        dropped.
        """
        if self.n_modes == 0:
            return self
        weights = self._weights(r)
        wave = self.half_k.any(axis=1)
        keep = ~wave | (weights >= PRUNE_REL * weights[wave].sum())
        if self.n_modes > DEFAULT_MODE_CAP:
            keep[np.argsort(weights, kind="stable")[:-DEFAULT_MODE_CAP]] = False
            keep |= ~wave
        if keep.all():
            return self
        if self.reality:
            neg_keys = _pack(-self.half_k)
            idx = np.minimum(np.searchsorted(self._keys, neg_keys), self.n_modes - 1)
            paired = self._keys[idx] == neg_keys
            keep[idx[paired & keep]] = True
        return TorusMap(self.d, self.half_k[keep], self.coeffs[keep],
                        reality=self.reality, _keys=self._keys[keep])

    # -- algebra -----------------------------------------------------------

    def add(self, other: "TorusMap") -> "TorusMap":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        hk = np.concatenate([self.half_k, other.half_k])
        cf = np.concatenate([self.coeffs, other.coeffs])
        return TorusMap(self.d, hk, cf,
                        reality=self.reality and other.reality)

    def scale(self, c) -> "TorusMap":
        real = self.reality and (np.imag(c) == 0.0)
        return TorusMap(self.d, self.half_k, self.coeffs * c, reality=bool(real))

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def __neg__(self):
        return self.scale(-1.0)

    def mul(self, other: "TorusMap", r: float | None = None) -> "TorusMap":
        """Pointwise matrix product, i.e. coefficient convolution.

        Given a strip half-width r, a product of two non-constant blocks is
        skipped when its weight at r is below PAIR_REL times the product of
        the operands' non-constant masses, w_i w_j < PAIR_REL |self_wave|_r
        |other_wave|_r (w as in _weights); every pair with a constant block
        is kept.  A skipped product weighs at most w_i w_j at r, so the
        weighted norm at r of what is dropped is below (skipped pairs)
        PAIR_REL |self_wave|_r |other_wave|_r.  Nothing is booked: it shows
        in the residuals.  The kept pairs are summed as without r, so a
        product with nothing to skip is the same to the bit.
        """
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        n1, n2 = self.n_modes, other.n_modes
        if n1 == 0 or n2 == 0:
            return TorusMap.zero(self.d)
        keys, hk, coeffs = _convolve(self, other, r)
        hk, coeffs, keys = _prune(hk, coeffs, keys)
        return TorusMap(self.d, hk, coeffs, reality=self.reality and other.reality,
                        _keys=keys)

    def dir_derivative(self, omega) -> "TorusMap":
        """Derivative along the torus flow: mode m picks up 2*i*pi*<m,omega>."""
        factors = 1j * math.pi * pairing(self.half_k, omega)
        return TorusMap(self.d, self.half_k, self.coeffs * factors[:, None, None],
                        reality=self.reality)

    def eval(self, theta) -> np.ndarray:
        """Evaluate at theta (shape (d,) or (n, d)); returns 2x2 blocks."""
        theta = np.asarray(theta, dtype=float)
        single = theta.ndim == 1
        th = theta.reshape(-1, self.d)
        if self.n_modes == 0:
            out = np.zeros((th.shape[0], 2, 2), dtype=complex)
        else:
            phases = np.exp(1j * math.pi * (th @ self.half_k.T))
            out = (phases @ self.coeffs.reshape(-1, 4)).reshape(-1, 2, 2)
        return out[0] if single else out

    def trace_projected(self) -> "TorusMap":
        """Remove the trace part of every coefficient (sl(2) projection)."""
        hk, coeffs, keys = _prune(self.half_k, project_traceless(self.coeffs), self._keys)
        return TorusMap(self.d, hk, coeffs, reality=self.reality, _keys=keys)

    def realified(self) -> "TorusMap":
        """Symmetrize coefficients to exact conjugate symmetry."""
        if self.n_modes == 0:
            return self
        out = TorusMap(self.d, np.concatenate([self.half_k, -self.half_k]),
                       np.concatenate([self.coeffs, np.conj(self.coeffs)])).scale(0.5)
        return TorusMap(out.d, out.half_k, out.coeffs, reality=True, _keys=out._keys)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "d": self.d,
            "reality_flag": self.reality,
            "modes": [
                {
                    "half_k": [int(v) for v in self.half_k[i]],
                    "re": self.coeffs[i].real.tolist(),
                    "im": self.coeffs[i].imag.tolist(),
                }
                for i in range(self.n_modes)
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict, d: int | None = None) -> "TorusMap":
        """Read a map written by to_json_obj; reality_flag is required.

        A given d is the map's dimension, and obj may then not set one.  Any
        other key of obj or of a mode is a ValueError.
        """
        modes = obj.get("modes", [])
        unknown = set(obj) - {"reality_flag", "modes"} - ({"d"} if d is None else set())
        for mode in modes:
            unknown |= set(mode) - {"half_k", "re", "im"}
        if unknown:
            raise ValueError(f"unknown key {sorted(unknown)[0]!r}")
        d = int(obj["d"]) if d is None else d
        reality = obj.get("reality_flag")
        if not isinstance(reality, bool):
            raise ValueError("reality_flag must be given as true or false")
        hk = [m["half_k"] for m in modes]
        if any(abs(v) >= 1 << 63 for row in hk for v in row):
            raise ValueError("half_k outside int64")
        hk = np.array(hk, dtype=np.int64)
        cf = np.array([m["re"] for m in modes], dtype=float) \
            + 1j * np.array([m["im"] for m in modes], dtype=float)
        return cls(d, hk, cf, reality=reality)

    def __repr__(self):
        return (f"TorusMap(d={self.d}, modes={self.n_modes}, "
                f"lattice={self.lattice}, real={self.reality})")


def _merge(keys, half_k, coeffs, d):
    """Sum the coefficients of equal indices; the result is sorted by key."""
    if (keys[1:] > keys[:-1]).all():
        return keys, half_k, coeffs
    uk, inv = np.unique(keys, return_inverse=True)
    flat = coeffs.reshape(-1, 4)
    sums = np.zeros((8, uk.shape[0]))
    _accumulate(sums, inv, np.concatenate([flat.real.T, flat.imag.T]))
    return uk, _unpack(uk, d), _blocks(sums)


def _accumulate(sums, index, parts):
    """Add parts[e, p] to sums[e, index[p]] for each of the eight parts e, in
    the order of p.

    The parts of a 2x2 block are the real parts of its entries (0, 0),
    (0, 1), (1, 0), (1, 1), then their imaginary parts.
    """
    n_out = sums.shape[1]
    slots = index[None, :] + np.arange(0, 8 * n_out, n_out)[:, None]
    np.add.at(sums.reshape(-1), slots.ravel(), parts.ravel())


def _blocks(sums):
    return np.ascontiguousarray((sums[:4] + 1j * sums[4:]).T).reshape(-1, 2, 2)


def _block_products(xr, xi, yr, yi):
    """The parts of the 2x2 block products (xr + i xi) @ (yr + i yi) as an
    (8, pairs) array, the operands in (entry row, entry column, mode...)
    layout with their mode axes broadcast against each other and flattened
    row-major.

    Entry (r, c) is (xr_r0 yr_0c - xi_r0 yi_0c) + (xr_r1 yr_1c - xi_r1 yi_1c)
    and (xr_r0 yi_0c + xi_r0 yr_0c) + (xr_r1 yi_1c + xi_r1 yr_1c).
    """
    # one broadcast product makes all four entries of a block of pairs
    def p(x, k, y):
        return x[:, k, None] * y[None, k, :]

    re = p(xr, 0, yr) - p(xi, 0, yi)
    out = np.empty((2,) + re.shape)
    np.add(re, p(xr, 1, yr) - p(xi, 1, yi), out=out[0])
    np.add(p(xr, 0, yi) + p(xi, 0, yr), p(xr, 1, yi) + p(xi, 1, yr), out=out[1])
    return out.reshape(8, -1)


def _kept_pairs(a: TorusMap, b: TorusMap, r):
    """The pair skip of a product at strip half-width r: (keep, pairs).

    keep(lo, hi) is the mask (hi - lo, n2) of the pairs of rows lo:hi that
    are computed, or None when every pair is; pairs counts the computed
    pairs.  Pair (i, j) is skipped when u_i u_j < PAIR_REL, where u is
    _weights(r) over the wave norm of its operand for a non-constant block
    and inf for the constant one: mul's rule w_i w_j < PAIR_REL |a_wave|_r
    |b_wave|_r, in a form that cannot overflow.  The skip is weighed only
    for products of at least SKIP_PAIRS pairs, and taken only when a count
    against b's sorted u says it keeps at most SKIP_KEEP of them; the count
    may differ from the mask's at rounding level, and only sizes the work.
    """
    n1, n2 = a.n_modes, b.n_modes
    if r is None or n1 * n2 < SKIP_PAIRS:
        return None, n1 * n2
    na, nb = a.wave_norm(r), b.wave_norm(r)
    if na == 0.0 or nb == 0.0:
        return None, n1 * n2
    # at least the smallest subnormal, so that inf * u is inf, never nan
    ua, ub = (np.where(m.half_k.any(axis=1), np.maximum(m._weights(r) / n, 5e-324), np.inf)
              for m, n in ((a, na), (b, nb)))
    pairs = n1 * n2 - int(np.searchsorted(np.sort(ub), PAIR_REL / ua).sum())
    if pairs > SKIP_KEEP * n1 * n2:
        return None, n1 * n2
    return (lambda lo, hi: ua[lo:hi, None] * ub >= PAIR_REL), pairs


def _convolve(a: TorusMap, b: TorusMap, r=None):
    """Sum a.coeffs[i] @ b.coeffs[j] at each index a.half_k[i] + b.half_k[j],
    over the pairs (i, j) that _kept_pairs keeps at strip r (every pair
    when r is None).

    The pairs are taken MUL_CHUNK // n2 values of i per pass, row-major, in
    blocks of about BLOCK pairs; each index sums a pass's products in pair
    order from 0, and the passes add up in order.  The sums are indexed by
    the cells of the dense box (`_box`) when it has at most BOX_FILL cells
    per computed pair and at most MUL_CHUNK cells (all-zero cells are
    dropped), else by np.unique on the packed keys of each pass.  Returns
    keys, half_k and coeffs, unique and sorted by key, not pruned.
    """
    d, n1, n2 = a.d, a.n_modes, b.n_modes
    ar, ai, br, bi = (np.ascontiguousarray(x.transpose(1, 2, 0))
                      for x in (a.coeffs.real, a.coeffs.imag, b.coeffs.real, b.coeffs.imag))
    keep, pairs = _kept_pairs(a, b, r)
    rows = max(1, MUL_CHUNK // n2)

    def passes():
        # the indices (i, j) of a pass's pairs, and the operands of each of
        # its blocks
        for lo in range(0, n1, rows):
            hi = min(lo + rows, n1)
            if keep is None:  # outer products of row blocks
                step = max(1, BLOCK // n2)
                yield (np.s_[lo:hi, None], np.s_[None, :]), (
                    (ar[..., p:min(p + step, hi), None], ai[..., p:min(p + step, hi), None],
                     br[..., None, :], bi[..., None, :]) for p in range(lo, hi, step))
            else:  # the kept pairs; np.take keeps the mode axis contiguous
                i, j = np.nonzero(keep(lo, hi))
                i += lo
                yield (i, j), (
                    (*(np.take(x, i[p:p + BLOCK], axis=2) for x in (ar, ai)),
                     *(np.take(y, j[p:p + BLOCK], axis=2) for y in (br, bi)))
                    for p in range(0, i.size, BLOCK))

    def pass_sums(blocks, index, n_out):
        # index[p] is the output slot of pair p of the pass
        sums = np.zeros((8, n_out))
        at = 0
        for operands in blocks:
            parts = _block_products(*operands)
            _accumulate(sums, index[at:at + parts.shape[1]], parts)
            at += parts.shape[1]
        return sums

    box = _box(a.half_k, b.half_k, min(BOX_FILL * pairs, MUL_CHUNK))
    if box is not None:
        origin, step, shape, c1, c2 = box
        sums = sum(pass_sums(blocks, (c1[i] + c2[j]).ravel(), math.prod(shape))
                   for (i, j), blocks in passes())
        cell = np.flatnonzero(sums.any(axis=0))
        hk = origin + np.stack(np.unravel_index(cell, shape), axis=1) * step
        return _pack(hk), hk, _blocks(sums[:, cell])
    shift, base = _pack_base(d)
    # key(h1 + h2) = key(h1) + key(h2) - key(0)
    k2 = b._keys - sum(base << (shift * i) for i in range(d))
    pieces = []
    for (i, j), blocks in passes():
        uk, inv = np.unique((a._keys[i] + k2[j]).ravel(), return_inverse=True)
        pieces.append((uk, pass_sums(blocks, inv, uk.shape[0])))
    keys = np.concatenate([uk for uk, _ in pieces])
    sums = np.concatenate([s for _, s in pieces], axis=1)
    # a single pass is already sorted and unique; several are merged
    return _merge(keys, _unpack(keys, d), _blocks(sums), d)


def _box(hk1, hk2, limit):
    """The dense row-major box over the sums hk1[i] + hk2[j], if it has at
    most `limit` cells: (origin, step, shape, c1, c2) with c1[i] + c2[j] the
    cell of hk1[i] + hk2[j].  A dimension where each operand keeps one
    parity steps by 2."""
    lo1, lo2 = hk1.min(axis=0), hk2.min(axis=0)
    ext = hk1.max(axis=0) - lo1 + hk2.max(axis=0) - lo2
    if math.prod((ext // 2 + 1).tolist()) > limit:  # too large even at step 2
        return None
    off1, off2 = hk1 - lo1, hk2 - lo2
    step = 2 - ((np.bitwise_or.reduce(off1, axis=0) | np.bitwise_or.reduce(off2, axis=0)) & 1)
    shape = (ext // step + 1).tolist()
    if math.prod(shape) > limit:
        return None
    strides = np.cumprod([1] + shape[:0:-1])[::-1]
    return lo1 + lo2, step, tuple(shape), (off1 // step) @ strides, (off2 // step) @ strides


def _prune(half_k, coeffs, keys):
    """Drop the all-zero blocks, which carry no mass.

    Small blocks are kept whatever their size: only cap_support drops mass,
    by weight.  A NaN or infinite entry raises KamFailure: its block has no
    norm to weigh.
    """
    if half_k.shape[0] == 0:
        return half_k, coeffs, keys
    if not np.isfinite(coeffs).all():
        raise KamFailure("non-finite Fourier coefficient")
    keep = coeffs.reshape(-1, 4).any(axis=1)
    if keep.all():
        return half_k, coeffs, keys
    return half_k[keep], coeffs[keep], keys[keep]


def exp_series_tail(X: TorusMap, r: float) -> tuple[TorusMap, TorusMap, float]:
    """P and Q with exp(X) = I + P and exp(-X) = I + Q, summed to a
    certified tail bound below EXP_TOL.

    Both series share the powers X^k / k!: a term of exp(-X) is the term of
    exp(X) negated for odd k, which is what multiplying by -X would give,
    since negation commutes with rounding (a zero may change sign).  Keeping
    the identity part implicit lets callers combine P and Q with other small
    terms without the cancellation that adding I would force.  Requires
    |X|_r <= 1.
    """
    nx = X.weighted_norm(r)
    if nx > 1.0:
        raise KamFailure(f"|X|_r = {nx:.3e} > 1, outside the certified regime")
    if X.n_modes == 0:
        return TorusMap.zero(X.d), TorusMap.zero(X.d), 0.0
    P = term = X
    Q = X.scale(-1.0)
    k = 1
    while True:
        tail = nx ** (k + 1) / math.factorial(k + 1) * math.exp(nx)
        if tail < EXP_TOL or k >= 80:
            break
        k += 1
        term = term.mul(X).scale(1.0 / k)
        P = P.add(term)
        Q = Q.add(term if k % 2 == 0 else term.scale(-1.0))
    return P, Q, tail
