"""Numerical KAM reduction of quasi-periodic sl(2,R) cocycles.

The engine conjugates a cocycle A + F(theta), with A constant and F a small
analytic perturbation on the torus, toward a constant system.  Frequencies
and rotation numbers are controlled by approximation functions of
Brjuno-Russmann type; every step emits machine-checkable residuals.
"""

__version__ = "0.1.0"
