"""Checks that only the tests use: a torus map's coefficient at one index,
its reality, the certified bound on the inverse mode operator, and the
torus-map operations as the TorusMap constructor computes them.

Each is written against the package's public interface, so the tests can
hold the package's output to it.
"""

import numpy as np

from kamcocycle.torus_fourier import TorusMap, pairing
from kamcocycle.sl2_algebra import (
    CERT_SLACK,
    SPECTRUM_FLOOR,
    BoundViolation,
    SingularOperator,
    alpha_of,
    lm_spectrum,
)


def coeff(F, half_k) -> np.ndarray:
    """The coefficient block of F at the half-index half_k, zero where F has
    no such mode."""
    hit = np.flatnonzero((F.half_k == np.asarray(half_k)).all(axis=1))
    return F.coeffs[hit[0]].copy() if hit.size else np.zeros((2, 2), dtype=complex)


def is_real(F, tol: float = 1e-14) -> bool:
    """Conjugate symmetry coeff(-k) == conj(coeff(k)) within tol.

    A missing index reads as the zero coefficient, so unpaired modes pass
    when their own coefficients are below tol (cancellation junk from
    convolutions may be pruned on one side only).
    """
    return all(np.abs(coeff(F, -k) - np.conj(c)).max() <= tol
               for k, c in zip(F.half_k, F.coeffs))


def max_imag_on_grid(F, n_samples: int = 100, seed: int = 0) -> float:
    """The largest imaginary part of F's entries at n_samples random points
    of the double torus [0, 2)^d."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2.0, size=(n_samples, F.d))
    return float(np.abs(F.eval(thetas).imag).max(initial=0.0))


def operator_bound_check(m, omega, Atilde, kappa: float, G, g, N: int) -> float:
    """Measured ||L_m^{-1}|| against the certified bound 4 G(N) g(|m|) / kappa.

    The measured value is the largest reciprocal modulus over the three
    spectrum elements.  Raises BoundViolation when it exceeds the bound,
    which signals inconsistent arithmetic-condition inputs.
    """
    alpha = alpha_of(np.asarray(Atilde, dtype=complex))
    spectrum = lm_spectrum(m, omega, alpha)
    if min(abs(s) for s in spectrum) < SPECTRUM_FLOOR:
        raise SingularOperator("singular mode operator")
    measured = max(1.0 / abs(s) for s in spectrum)
    mod = float(np.abs(np.asarray(m)).sum())
    bound = 4.0 * float(G.value(N)) * float(g.value(mod)) / kappa
    if measured > bound * CERT_SLACK:
        raise BoundViolation(
            f"||L_m^-1|| = {measured:.6e} exceeds 4 G(N) g(|m|)/kappa = {bound:.6e}")
    return measured


# -- torus-map operations through the constructor ------------------------------
# The constructor sorts the rows it is given, sums the blocks of equal indices
# from zero in row order (rows already in strictly increasing order are taken
# as they are) and drops the all-zero blocks.

def add_by_constructor(F, G):
    return TorusMap(F.d, np.concatenate([F.half_k, G.half_k]),
                    np.concatenate([F.coeffs, G.coeffs]), reality=F.reality and G.reality)


def scale_by_constructor(F, c):
    return TorusMap(F.d, F.half_k, F.coeffs * c, reality=bool(F.reality and np.imag(c) == 0.0))


def dir_derivative_by_constructor(F, omega):
    factors = 1j * np.pi * pairing(F.half_k, omega)
    return TorusMap(F.d, F.half_k, F.coeffs * factors[:, None, None], reality=F.reality)


def realified_by_constructor(F):
    if F.n_modes == 0:
        return F
    both = TorusMap(F.d, np.concatenate([F.half_k, -F.half_k]),
                    np.concatenate([F.coeffs, np.conj(F.coeffs)]))
    return TorusMap(F.d, both.half_k, both.coeffs * 0.5, reality=True)
