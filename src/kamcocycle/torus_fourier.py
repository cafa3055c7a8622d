"""Finitely supported Fourier series with 2x2 matrix coefficients.

A map is stored as a set of half-integer frequency indices ``half_k`` (the
actual frequency of a mode is ``half_k / 2``) together with one 2x2 complex
coefficient per index.  Indices with all-even entries form the ordinary
integer lattice of the torus; odd entries appear after resonance elimination,
which introduces genuine double-torus modes.  The modulus of an index is
``sum(|half_k_i|) / 2`` so that integer modes keep their usual l1 size.

All operations are pure: a TorusMap is never mutated after construction.
"""

from __future__ import annotations

import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi
PRUNE_TOL = 1e-300
DEFAULT_MODE_CAP = 4096
MUL_CHUNK = 1 << 22  # block products per convolution pass


def _pack_base(d: int) -> tuple[int, int]:
    shift = 63 // d
    return shift, 1 << (shift - 1)


def _pack(half_k: np.ndarray) -> np.ndarray:
    """Encode integer index rows into single int64 keys (order-preserving)."""
    d = half_k.shape[1]
    shift, base = _pack_base(d)
    if half_k.size and int(np.abs(half_k).max()) >= base:
        raise OverflowError("frequency index out of packable range")
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


def op_norms(coeffs: np.ndarray) -> np.ndarray:
    """Exact operator norms (largest singular value) of 2x2 blocks."""
    a = coeffs[..., 0, 0]
    b = coeffs[..., 0, 1]
    c = coeffs[..., 1, 0]
    d = coeffs[..., 1, 1]
    frob2 = (np.abs(a) ** 2 + np.abs(b) ** 2 + np.abs(c) ** 2 + np.abs(d) ** 2).real
    det = a * d - b * c
    disc = np.maximum(frob2 * frob2 - 4.0 * np.abs(det) ** 2, 0.0)
    return np.sqrt(0.5 * (frob2 + np.sqrt(disc)))


def op_norm_2x2(M: np.ndarray) -> float:
    return float(op_norms(np.asarray(M, dtype=complex)[None, :, :])[0])


def project_traceless(M: np.ndarray) -> np.ndarray:
    """Remove the trace part of 2x2 blocks (..., 2, 2): the sl(2) projection."""
    out = np.array(M)
    tr = (out[..., 0, 0] + out[..., 1, 1]) / 2.0
    out[..., 0, 0] -= tr
    out[..., 1, 1] -= tr
    return out


def mode_modulus(half_k) -> float:
    """l1 modulus of a frequency index: sum(|half_k_i|) / 2."""
    hk = np.asarray(half_k, dtype=np.int64)
    return float(np.abs(hk).sum() / 2.0)


class TorusMap:
    """Immutable finitely supported Fourier series, coefficients in C^{2x2}."""

    __slots__ = ("d", "half_k", "coeffs", "reality", "truncation_debt", "_keys")

    def __init__(self, d, half_k, coeffs, *, reality=False, truncation_debt=0.0,
                 _canonical=False):
        half_k = np.asarray(half_k, dtype=np.int64).reshape(-1, d)
        coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1, 2, 2)
        if half_k.shape[0] != coeffs.shape[0]:
            raise ValueError("half_k and coeffs length mismatch")
        keys = _pack(half_k)
        if not _canonical:
            keys, half_k, coeffs = _merge(keys, half_k, coeffs, d)
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
                   _canonical=True)

    @classmethod
    def constant(cls, M, d: int) -> "TorusMap":
        M = np.asarray(M, dtype=np.complex128)
        real = bool(np.abs(M.imag).max(initial=0.0) == 0.0)
        return cls(d, np.zeros((1, d)), M[None, :, :], reality=real)

    @classmethod
    def identity(cls, d: int) -> "TorusMap":
        return cls.constant(np.eye(2), d)

    @classmethod
    def single_mode(cls, half_k, M, *, reality=False) -> "TorusMap":
        hk = np.asarray(half_k, dtype=np.int64).reshape(1, -1)
        return cls(hk.shape[1], hk, np.asarray(M, dtype=complex)[None, :, :],
                   reality=reality)

    @classmethod
    def from_modes(cls, d, modes, *, reality=False) -> "TorusMap":
        """Build from an iterable of (half_k tuple, 2x2 matrix) pairs."""
        if not modes:
            return cls.zero(d)
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
                        truncation_debt=self.truncation_debt, _canonical=True)

    def cap_support(self, max_modes: int = DEFAULT_MODE_CAP, r: float = 0.0) -> "TorusMap":
        """Drop the smallest-weighted coefficients beyond max_modes.

        The exact weighted-norm mass removed (measured at strip half-width r,
        which also bounds the loss at any smaller r) is added to
        truncation_debt.  Conjugate pairs are dropped together when the map
        is flagged real.
        """
        if self.n_modes <= max_modes:
            return self
        norms = op_norms(self.coeffs)
        weights = np.exp(np.log(norms) + TWO_PI * self.modulus() * r)
        order = np.argsort(weights, kind="stable")[::-1]
        keep_mask = np.zeros(self.n_modes, dtype=bool)
        keep_mask[order[:max_modes]] = True
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
                        _canonical=True)

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
        off = _pack(np.zeros((1, self.d), dtype=np.int64))[0]
        pieces_k, pieces_c = [], []
        rows = max(1, MUL_CHUNK // max(n2, 1))
        for lo in range(0, n1, rows):
            hi = min(lo + rows, n1)
            keys = (self._keys[lo:hi, None] + other._keys[None, :] - off).ravel()
            prods = np.einsum("iab,jbc->ijac", self.coeffs[lo:hi], other.coeffs)
            prods = prods.reshape(-1, 2, 2)
            uk, inv = np.unique(keys, return_inverse=True)
            acc = _accumulate(prods, inv, uk.shape[0])
            pieces_k.append(uk)
            pieces_c.append(acc)
        keys = np.concatenate(pieces_k)
        coeffs = np.concatenate(pieces_c)
        hk = _unpack(keys, self.d)
        debt = (self.truncation_debt * (other.weighted_norm(0.0) + other.truncation_debt)
                + other.truncation_debt * self.weighted_norm(0.0))
        return TorusMap(self.d, hk, coeffs,
                        reality=self.reality and other.reality,
                        truncation_debt=debt)

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
                        truncation_debt=self.truncation_debt, _canonical=True)

    def realified(self) -> "TorusMap":
        """Symmetrize coefficients to exact conjugate symmetry."""
        if self.n_modes == 0:
            return self
        neg = TorusMap(self.d, -self.half_k, np.conj(self.coeffs),
                       truncation_debt=0.0)
        out = self.add(neg).scale(0.5)
        return TorusMap(out.d, out.half_k, out.coeffs, reality=True,
                        truncation_debt=self.truncation_debt, _canonical=True)

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
                       truncation_debt=obj.get("truncation_debt", 0.0), _canonical=True)
        hk = np.array([m["half_k"] for m in modes], dtype=np.int64)
        cf = np.array([m["re"] for m in modes], dtype=float) \
            + 1j * np.array([m["im"] for m in modes], dtype=float)
        return cls(d, hk, cf, reality=obj.get("reality_flag", False),
                   truncation_debt=obj.get("truncation_debt", 0.0))

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "TorusMap":
        return cls.from_json_obj(json.loads(s))

    def __repr__(self):
        return (f"TorusMap(d={self.d}, modes={self.n_modes}, "
                f"lattice={self.lattice}, real={self.reality})")


def _merge(keys, half_k, coeffs, d):
    uk, inv = np.unique(keys, return_inverse=True)
    if uk.shape[0] == keys.shape[0]:
        order = np.argsort(keys, kind="stable")
        return keys[order], half_k[order], coeffs[order]
    acc = _accumulate(coeffs, inv, uk.shape[0])
    return uk, _unpack(uk, d), acc


def _accumulate(coeffs, inv, n_out):
    flat = coeffs.reshape(-1, 4)
    out = np.empty((n_out, 4), dtype=complex)
    for j in range(4):
        out[:, j] = (np.bincount(inv, weights=flat[:, j].real, minlength=n_out)
                     + 1j * np.bincount(inv, weights=flat[:, j].imag, minlength=n_out))
    return out.reshape(-1, 2, 2)


def _prune(half_k, coeffs, keys):
    if half_k.shape[0] == 0:
        return half_k, coeffs, keys
    keep = op_norms(coeffs) >= PRUNE_TOL
    if keep.all():
        return half_k, coeffs, keys
    return half_k[keep], coeffs[keep], keys[keep]


def exp_series_tail(X: TorusMap, r: float, tol: float = 1e-30) -> tuple[TorusMap, float]:
    """P with exp(X) = I + P, summed to a certified tail bound below tol.

    Keeping the identity part implicit lets callers combine P with other
    small terms without the cancellation that adding I would force.
    Requires |X|_r <= 1.
    """
    nx = X.weighted_norm(r)
    if nx > 1.0:
        raise ValueError(f"|X|_r = {nx:.3e} > 1, outside the certified regime")
    if X.n_modes == 0:
        return TorusMap.zero(X.d), 0.0
    acc = X
    term = X
    k = 1
    while True:
        tail = nx ** (k + 1) / math.factorial(k + 1) * math.exp(nx)
        if tail < tol or k >= 80:
            break
        k += 1
        term = term.mul(X).scale(1.0 / k)
        acc = acc.add(term)
    if X.reality:
        acc = TorusMap(acc.d, acc.half_k, acc.coeffs, reality=True,
                       truncation_debt=acc.truncation_debt, _canonical=True)
    return acc, tail


def exp_map(X: TorusMap, r: float, tol: float = 1e-30) -> tuple[TorusMap, float]:
    """Matrix exponential of a torus map by plain Taylor summation.

    Requires |X|_r <= 1.  The series is summed until the certified tail
    bound |X|_r^{K+1}/(K+1)! * e^{|X|_r} drops below tol; the partial sum
    and that bound are returned.
    """
    P, tail = exp_series_tail(X, r, tol)
    return TorusMap.identity(X.d).add(P), tail
