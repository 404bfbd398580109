"""Shared randomized-input helpers for the test suite.

All generators take an explicit random.Random so every test run is
reproducible from its seed.  Coefficient sizes default to the desk-scale
bounds used throughout (numerators and denominators up to 9).
"""

from __future__ import annotations

import random
from fractions import Fraction

from slicereg import CQuat, GaussRat, Poly, Quaternion, StemPoly


def rand_fraction(rng: random.Random, max_num: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def rand_gaussrat(rng: random.Random) -> GaussRat:
    return GaussRat(rand_fraction(rng), rand_fraction(rng))


def rand_quaternion(rng: random.Random) -> Quaternion:
    return Quaternion(*(rand_fraction(rng) for _ in range(4)))


def rand_nonzero_quaternion(rng: random.Random) -> Quaternion:
    while True:
        q = rand_quaternion(rng)
        if q:
            return q


def rand_pure_imaginary_quaternion(rng: random.Random) -> Quaternion:
    while True:
        q = Quaternion(0, rand_fraction(rng), rand_fraction(rng),
                       rand_fraction(rng))
        if q:
            return q


def rand_cquat(rng: random.Random) -> CQuat:
    return CQuat(*(rand_gaussrat(rng) for _ in range(4)))


def rand_invertible_cquat(rng: random.Random) -> CQuat:
    while True:
        x = rand_cquat(rng)
        if x.norm():
            return x


def rand_poly(rng: random.Random, max_degree: int = 5) -> Poly:
    return Poly([rand_fraction(rng) for _ in range(rng.randint(0, max_degree + 1))])


def rand_stem(rng: random.Random, max_degree: int = 5) -> StemPoly:
    return StemPoly([rand_quaternion(rng)
                     for _ in range(rng.randint(1, max_degree + 1))])


def rand_stem_nonslice(rng: random.Random, max_degree: int = 5) -> StemPoly:
    while True:
        stem = rand_stem(rng, max_degree)
        if not stem.is_slice_preserving():
            return stem


def conjugate_stem(alpha: Quaternion, stem: StemPoly) -> StemPoly:
    """alpha * F * alpha**-1 coefficientwise (constant conjugator)."""
    inv = alpha.inverse()
    return StemPoly([alpha * c * inv for c in stem.coeffs])


def convolve_stems(left: StemPoly, right: StemPoly) -> StemPoly:
    """The stem product as a coefficient convolution of Quaternion
    products: the reference that `StemPoly.star` is checked against."""
    if left.is_zero or right.is_zero:
        return StemPoly()
    out = [Quaternion()] * (len(left.coeffs) + len(right.coeffs) - 1)
    for a, ca in enumerate(left.coeffs):
        for b, cb in enumerate(right.coeffs):
            out[a + b] += ca * cb
    return StemPoly(out)
