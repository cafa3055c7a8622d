"""Finitely supported Fourier series with 2x2 matrix coefficients.

A map is stored as a set of half-integer frequency indices ``half_k`` (the
actual frequency of a mode is ``half_k / 2``) together with one 2x2 complex
coefficient per index.  Indices with all-even entries form the ordinary
integer lattice of the torus; odd entries appear after resonance elimination,
which introduces genuine double-torus modes.  The modulus of an index is
``sum(|half_k_i|) / 2`` so that integer modes keep their usual l1 size.

All operations are pure: a TorusMap is never mutated after construction.

The convolution `TorusMap.mul` is one kernel (`_convolve`).  Each 2x2 block
product is written out in real arithmetic as row-major outer products over
the mode pairs (i, j), and summed per output index in pair order.  The output
index is the cell of the dense row-major box bounding the sums of the two
supports when that box has at most BOX_FILL cells per pair; for sparse
supports it is the np.unique inverse of the packed keys.  Both come out in
packed-key order, so a product needs no further sort.  Equal indices in
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
# a block whose sum of squared moduli is below this is rescaled by a power
# of two before its norm is taken: its squares would leave the normal range
TINY_FROB2 = 2.0 ** -500
DEFAULT_MODE_CAP = 4096
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


def _frob2(coeffs: np.ndarray) -> np.ndarray:
    """Sums of the squared moduli of the entries of 2x2 blocks."""
    return (np.abs(coeffs[..., 0, 0]) ** 2 + np.abs(coeffs[..., 0, 1]) ** 2
            + np.abs(coeffs[..., 1, 0]) ** 2 + np.abs(coeffs[..., 1, 1]) ** 2)


def _unscaled_norms(coeffs: np.ndarray, frob2: np.ndarray) -> np.ndarray:
    det = coeffs[..., 0, 0] * coeffs[..., 1, 1] - coeffs[..., 0, 1] * coeffs[..., 1, 0]
    disc = np.maximum(frob2 * frob2 - 4.0 * np.abs(det) ** 2, 0.0)
    return np.sqrt(0.5 * (frob2 + np.sqrt(disc)))


def op_norms(coeffs: np.ndarray) -> np.ndarray:
    """Exact operator norms (largest singular value) of 2x2 blocks.

    A block with frob2 below TINY_FROB2 is scaled by 2^-e, 2^e just above
    its largest entry, and its norm scaled back by 2^e: both scalings are
    exact, also for subnormal entries.
    """
    frob2 = _frob2(coeffs)
    norms = _unscaled_norms(coeffs, frob2)
    tiny = frob2 < TINY_FROB2
    if tiny.any():
        small = coeffs[tiny]
        _, e = np.frexp(np.maximum(np.abs(small.real), np.abs(small.imag)).max(axis=(1, 2)))
        scaled = (np.ldexp(small.real, -e[:, None, None])
                  + 1j * np.ldexp(small.imag, -e[:, None, None]))
        norms[tiny] = np.ldexp(_unscaled_norms(scaled, _frob2(scaled)), e)
    return norms


def op_norm_2x2(M: np.ndarray) -> float:
    return float(op_norms(np.asarray(M, dtype=complex)[None, :, :])[0])


def project_traceless(M: np.ndarray) -> np.ndarray:
    """Remove the trace part of 2x2 blocks (..., 2, 2): the sl(2) projection."""
    out = np.array(M)
    tr = (out[..., 0, 0] + out[..., 1, 1]) / 2.0
    out[..., 0, 0] -= tr
    out[..., 1, 1] -= tr
    return out


class TorusMap:
    """Immutable finitely supported Fourier series, coefficients in C^{2x2}."""

    __slots__ = ("d", "half_k", "coeffs", "reality", "truncation_debt", "_keys")

    def __init__(self, d, half_k, coeffs, *, reality=False, truncation_debt=0.0,
                 _keys=None):
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
        self.truncation_debt = float(truncation_debt)
        self._keys = keys
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

    def is_real(self, tol: float = 1e-14) -> bool:
        """Check conjugate symmetry coeff(-k) == conj(coeff(k)) within tol.

        A missing index reads as the zero coefficient, so unpaired modes
        pass when their own coefficients are below tol (cancellation junk
        from convolutions may be pruned on one side only).
        """
        if self.n_modes == 0:
            return True
        neg_keys = _pack(-self.half_k)
        idx = np.searchsorted(self._keys, neg_keys)
        paired = (idx < self.n_modes) & (
            self._keys[np.minimum(idx, self.n_modes - 1)] == neg_keys)
        if not paired.all():
            if np.abs(self.coeffs[~paired]).max() > tol:
                return False
        if paired.any():
            diff = self.coeffs[idx[paired]] - np.conj(self.coeffs[paired])
            if np.abs(diff).max() > tol:
                return False
        return True

    def max_imag_on_grid(self, n_samples: int = 100, seed: int = 0) -> float:
        rng = np.random.default_rng(seed)
        thetas = rng.uniform(0.0, 2.0, size=(n_samples, self.d))
        vals = self.eval(thetas)
        return float(np.abs(vals.imag).max(initial=0.0))

    # -- norm, truncation, capping ----------------------------------------

    def weighted_norm(self, r: float) -> float:
        """Sum of operator norms weighted by exp(2*pi*|k|*r).

        Computed per term in the log domain so huge weights on tiny
        coefficients cannot overflow.
        """
        if r < 0:
            raise ValueError("strip half-width must be nonnegative")
        if self.n_modes == 0:
            return 0.0
        norms = np.maximum(op_norms(self.coeffs), 5e-324)
        terms = np.exp(np.log(norms) + TWO_PI * self.modulus() * r)
        return float(terms.sum())

    def truncate(self, N: float) -> "TorusMap":
        if N < 0:
            raise ValueError("truncation order must be nonnegative")
        keep = self.modulus() <= N
        return TorusMap(self.d, self.half_k[keep], self.coeffs[keep],
                        reality=self.reality,
                        truncation_debt=self.truncation_debt, _keys=self._keys[keep])

    def cap_support(self, r: float) -> "TorusMap":
        """Drop the smallest-weighted coefficients beyond DEFAULT_MODE_CAP.

        The exact weighted-norm mass removed (measured at strip half-width r,
        which also bounds the loss at any smaller r) is added to
        truncation_debt.  Conjugate pairs are dropped together when the map
        is flagged real.
        """
        if self.n_modes <= DEFAULT_MODE_CAP:
            return self
        norms = op_norms(self.coeffs)
        weights = np.exp(np.log(norms) + TWO_PI * self.modulus() * r)
        order = np.argsort(weights, kind="stable")[::-1]
        keep_mask = np.zeros(self.n_modes, dtype=bool)
        keep_mask[order[:DEFAULT_MODE_CAP]] = True
        if self.reality:
            neg_keys = _pack(-self.half_k)
            idx = np.searchsorted(self._keys, neg_keys)
            idx = np.minimum(idx, self.n_modes - 1)
            paired = self._keys[idx] == neg_keys
            keep_mask[idx[paired & keep_mask]] = True
        debt = float(weights[~keep_mask].sum())
        return TorusMap(self.d, self.half_k[keep_mask], self.coeffs[keep_mask],
                        reality=self.reality,
                        truncation_debt=self.truncation_debt + debt,
                        _keys=self._keys[keep_mask])

    # -- algebra -----------------------------------------------------------

    def add(self, other: "TorusMap") -> "TorusMap":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        hk = np.concatenate([self.half_k, other.half_k])
        cf = np.concatenate([self.coeffs, other.coeffs])
        return TorusMap(self.d, hk, cf,
                        reality=self.reality and other.reality,
                        truncation_debt=self.truncation_debt + other.truncation_debt)

    def scale(self, c) -> "TorusMap":
        real = self.reality and (np.imag(c) == 0.0)
        return TorusMap(self.d, self.half_k, self.coeffs * c, reality=bool(real),
                        truncation_debt=self.truncation_debt * abs(c))

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def __neg__(self):
        return self.scale(-1.0)

    def mul(self, other: "TorusMap") -> "TorusMap":
        """Pointwise matrix product, i.e. coefficient convolution."""
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        n1, n2 = self.n_modes, other.n_modes
        if n1 == 0 or n2 == 0:
            return TorusMap.zero(self.d)
        keys, hk, coeffs = _convolve(self, other)
        hk, coeffs, keys = _prune(hk, coeffs, keys)
        debt = 0.0
        if self.truncation_debt or other.truncation_debt:
            debt = (self.truncation_debt * (other.weighted_norm(0.0) + other.truncation_debt)
                    + other.truncation_debt * self.weighted_norm(0.0))
        return TorusMap(self.d, hk, coeffs,
                        reality=self.reality and other.reality,
                        truncation_debt=debt, _keys=keys)

    def dir_derivative(self, omega) -> "TorusMap":
        """Derivative along the torus flow: mode m picks up 2*i*pi*<m,omega>."""
        omega = np.asarray(omega, dtype=float)
        factors = 1j * math.pi * (self.half_k @ omega)
        return TorusMap(self.d, self.half_k, self.coeffs * factors[:, None, None],
                        reality=self.reality,
                        truncation_debt=self.truncation_debt)

    def eval(self, theta) -> np.ndarray:
        """Evaluate at theta (shape (d,) or (n, d)); returns 2x2 blocks."""
        theta = np.asarray(theta, dtype=float)
        single = theta.ndim == 1
        th = theta.reshape(-1, self.d)
        if self.n_modes == 0:
            out = np.zeros((th.shape[0], 2, 2), dtype=complex)
        else:
            phases = np.exp(1j * math.pi * (th @ self.half_k.T))
            out = np.einsum("sn,nab->sab", phases, self.coeffs)
        return out[0] if single else out

    def trace_projected(self) -> "TorusMap":
        """Remove the trace part of every coefficient (sl(2) projection)."""
        return TorusMap(self.d, self.half_k, project_traceless(self.coeffs),
                        reality=self.reality,
                        truncation_debt=self.truncation_debt, _keys=self._keys)

    def realified(self) -> "TorusMap":
        """Symmetrize coefficients to exact conjugate symmetry."""
        if self.n_modes == 0:
            return self
        out = TorusMap(self.d, np.concatenate([self.half_k, -self.half_k]),
                       np.concatenate([self.coeffs, np.conj(self.coeffs)])).scale(0.5)
        return TorusMap(out.d, out.half_k, out.coeffs, reality=True,
                        truncation_debt=self.truncation_debt, _keys=out._keys)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "d": self.d,
            "reality_flag": self.reality,
            "truncation_debt": self.truncation_debt,
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
    def from_json_obj(cls, obj: dict) -> "TorusMap":
        d = int(obj["d"])
        modes = obj.get("modes", [])
        if not modes:
            out = cls.zero(d)
            return cls(d, out.half_k, out.coeffs, reality=obj.get("reality_flag", True),
                       truncation_debt=obj.get("truncation_debt", 0.0), _keys=out._keys)
        hk = [m["half_k"] for m in modes]
        if any(abs(v) >= 1 << 63 for row in hk for v in row):
            raise ValueError("half_k outside int64")
        hk = np.array(hk, dtype=np.int64)
        cf = np.array([m["re"] for m in modes], dtype=float) \
            + 1j * np.array([m["im"] for m in modes], dtype=float)
        return cls(d, hk, cf, reality=obj.get("reality_flag", False),
                   truncation_debt=obj.get("truncation_debt", 0.0))

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


def _pair_products(a, b):
    """terms(lo, hi): the parts of the products a[i] @ b[j] for i in lo:hi,
    all j, as an (8, pairs) array, row-major over (i, j).

    Entry (r, c) is (ar_r0 br_0c - ai_r0 bi_0c) + (ar_r1 br_1c - ai_r1 bi_1c)
    and (ar_r0 bi_0c + ai_r0 br_0c) + (ar_r1 bi_1c + ai_r1 br_1c).
    """
    # (entry row, entry column, mode) layout: one broadcast product makes all
    # four entries of a block of pairs
    ar, ai, br, bi = (np.ascontiguousarray(x.transpose(1, 2, 0))
                      for x in (a.real, a.imag, b.real, b.imag))

    def terms(lo, hi):
        def p(x, k, y):
            return x[:, k, None, lo:hi, None] * y[None, k, :, None, :]

        out = np.empty((2, 2, 2, hi - lo, b.shape[0]))
        np.add(p(ar, 0, br) - p(ai, 0, bi), p(ar, 1, br) - p(ai, 1, bi), out=out[0])
        np.add(p(ar, 0, bi) + p(ai, 0, br), p(ar, 1, bi) + p(ai, 1, br), out=out[1])
        return out.reshape(8, -1)

    return terms


def _convolve(a: TorusMap, b: TorusMap):
    """Sum a.coeffs[i] @ b.coeffs[j] at each index a.half_k[i] + b.half_k[j].

    The pairs are taken MUL_CHUNK // n2 values of i per pass, in blocks of
    about BLOCK pairs; each index sums a pass's products in pair order from
    0, and the passes add up in order.  The sums are indexed by the cells of
    the dense box (`_box`) when it has at most BOX_FILL cells per pair and at
    most MUL_CHUNK cells (all-zero cells are dropped), else by np.unique on
    the packed keys of each pass.  Returns keys, half_k and coeffs, unique
    and sorted by key, not pruned.
    """
    d, n1, n2 = a.d, a.n_modes, b.n_modes
    terms = _pair_products(a.coeffs, b.coeffs)
    rows, block = max(1, MUL_CHUNK // n2), max(1, BLOCK // n2)
    passes = [(lo, min(lo + rows, n1)) for lo in range(0, n1, rows)]

    def pass_sums(lo, hi, index, n_out):
        # index[p] is the output slot of pair p of the pass
        sums = np.zeros((8, n_out))
        for b_lo in range(lo, hi, block):
            b_hi = min(b_lo + block, hi)
            _accumulate(sums, index[(b_lo - lo) * n2:(b_hi - lo) * n2], terms(b_lo, b_hi))
        return sums

    box = _box(a.half_k, b.half_k, min(BOX_FILL * n1 * n2, MUL_CHUNK))
    if box is not None:
        origin, step, shape, c1, c2 = box
        sums = sum(pass_sums(lo, hi, (c1[lo:hi, None] + c2).ravel(), math.prod(shape))
                   for lo, hi in passes)
        cell = np.flatnonzero(sums.any(axis=0))
        hk = origin + np.stack(np.unravel_index(cell, shape), axis=1) * step
        return _pack(hk), hk, _blocks(sums[:, cell])
    shift, base = _pack_base(d)
    # key(h1 + h2) = key(h1) + key(h2) - key(0)
    k2 = b._keys - sum(base << (shift * i) for i in range(d))
    pieces = []
    for lo, hi in passes:
        uk, inv = np.unique((a._keys[lo:hi, None] + k2).ravel(), return_inverse=True)
        pieces.append((uk, pass_sums(lo, hi, inv, uk.shape[0])))
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
    """Drop the blocks whose frob2 underflows to 0 or to the smallest
    subnormal 2^-1074, about every block with all entries below 1e-162.

    The dropped mass is not booked as truncation debt.  A NaN or infinite
    entry raises KamFailure: its block has no norm to weigh or book.
    """
    if half_k.shape[0] == 0:
        return half_k, coeffs, keys
    if not np.isfinite(coeffs).all():
        raise KamFailure("non-finite Fourier coefficient")
    keep = _frob2(coeffs) > 2.0 ** -1074
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
