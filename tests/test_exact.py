"""Exact one-query recovery, checked in exact integer arithmetic.

This route shares no kernel and no float with the strided or dense routes.
Each amplitude is an element of Z[ω], ω = exp(2πi/d), held as d integers:
its coefficients of ω^0 … ω^(d−1).  The Fourier gates are left unscaled, so
F|a> = Σ_b ω^(ab)|b> is a sum of cyclic shifts of the coefficients by ab,
and F† one by −ab; the run's common factor d^(−(2n+1)/2) is applied only
when the result is compared in floating point.  The query rolls the target
digit by f(x) = s·x mod d.  Two elements of Z[ω] are equal exactly when
their coefficient vectors agree modulo the cyclotomic polynomial Φ_d.

From |0…0, d−1>, the unscaled final amplitude at (y, j) is
ω^(−j) Σ_x ω^((s−y)·x): d^n·ω^(−j) at y = s, and a multiple of Φ_d(ω) = 0
at every other y, for composite d too.
"""

import functools
import itertools

import numpy as np
import pytest

from quditbv import LinearOracle, quantum_bv_states
from quditbv.verification import TOL_ALGEBRA

SHAPES = [(d, n) for d in range(2, 7) for n in range(1, 8) if d ** (n + 1) <= 256] + [(16, 1)]


def poly_divmod(num, den):
    """Quotient and remainder of integer polynomials (lowest degree first) by a monic ``den``.

    ``num`` may carry leading axes; the division runs along the last one.
    """
    rest = np.array(num, dtype=np.int64)
    deg = len(den) - 1
    quotient = np.zeros(rest.shape[:-1] + (max(rest.shape[-1] - deg, 0),), dtype=np.int64)
    for i in range(quotient.shape[-1] - 1, -1, -1):
        quotient[..., i] = rest[..., i + deg]
        rest[..., i : i + deg + 1] -= quotient[..., i, None] * den
    return quotient, rest[..., :deg]


@functools.cache
def cyclotomic(d):
    """Φ_d: x^d − 1 divided exactly by Φ_k for every k < d that divides d."""
    poly = np.zeros(d + 1, dtype=np.int64)
    poly[[0, d]] = -1, 1
    for k in range(1, d):
        if d % k == 0:
            poly, rest = poly_divmod(poly, cyclotomic(k))
            assert not rest.any()
    poly.flags.writeable = False
    return poly


def fourier(amps, axis, sign, d):
    """Unscaled F (``sign=1``) or F† (``sign=-1``) on one digit axis."""
    amps = np.moveaxis(amps, axis, 0)
    out = np.zeros_like(amps)
    for b, a in itertools.product(range(d), repeat=2):
        out[b] += np.roll(amps[a], sign * a * b, axis=-1)
    return np.moveaxis(out, 0, axis)


@functools.cache
def pre_query(d, n):
    """F on every digit of |0…0, d−1>; axes are the n+1 digits, then the coefficients."""
    amps = np.zeros((d,) * (n + 2), dtype=np.int64)
    amps[(0,) * n + (d - 1, 0)] = 1
    for axis in range(n + 1):
        amps = fourier(amps, axis, 1, d)
    amps.flags.writeable = False
    return amps


def exact_final(secret, d, sign=-1):
    """The run's final amplitudes reduced modulo Φ_d, one row per basis index.

    ``sign=1`` ends the run with F instead of F†.
    """
    n = len(secret)
    f = np.tensordot(secret, np.indices((d,) * n), axes=1) % d
    target = (np.arange(d) - f[..., None]) % d
    amps = np.take_along_axis(pre_query(d, n), target[..., None], axis=n)
    for axis in range(n):
        amps = fourier(amps, axis, sign, d)
    return poly_divmod(amps.reshape(-1, d), cyclotomic(d))[1]


def closed_form(secret, d):
    """d^n·ω^(−j) at (secret, j) and 0 elsewhere, reduced modulo Φ_d."""
    n = len(secret)
    amps = np.zeros((d,) * (n + 1) + (d,), dtype=np.int64)
    for j in range(d):
        amps[tuple(secret) + (j, -j % d)] = d**n
    return poly_divmod(amps.reshape(-1, d), cyclotomic(d))[1]


@pytest.mark.parametrize(
    "d,expected",
    [(1, [-1, 1]), (2, [1, 1]), (4, [1, 0, 1]), (6, [1, -1, 1]), (12, [1, 0, -1, 0, 1]), (16, [1] + [0] * 7 + [1])],
)
def test_cyclotomic_polynomials(d, expected):
    assert cyclotomic(d).tolist() == expected


@pytest.mark.parametrize("d,n", SHAPES)
def test_every_secret_is_recovered_exactly(d, n):
    for secret in itertools.product(range(d), repeat=n):
        np.testing.assert_array_equal(exact_final(secret, d), closed_form(secret, d), err_msg=f"{secret}")


@pytest.mark.parametrize("d,n", SHAPES)
def test_strided_final_is_the_exact_result(d, n):
    degree = len(cyclotomic(d)) - 1
    powers = np.exp(2j * np.pi * np.arange(degree) / d)
    scale = d ** (-(2 * n + 1) / 2)
    for secret in itertools.product(range(d), repeat=n):
        exact = exact_final(secret, d) @ powers * scale
        final = quantum_bv_states(LinearOracle(secret, d)).final.amplitudes
        assert np.max(np.abs(final - exact)) <= TOL_ALGEBRA, secret


@pytest.mark.parametrize("secret", [(1, 2), (2, 0), (1,)])
def test_ending_with_the_forward_gate_fails_the_exact_check(secret):
    assert not np.array_equal(exact_final(secret, 3, sign=1), closed_form(secret, 3))
