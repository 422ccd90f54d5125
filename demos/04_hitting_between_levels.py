"""Hitting kernel between two horizontal levels.

A path started at height y that is stopped on the lower level eta lands with
density G_{y,eta}.  On the Fourier side G is a ratio of Bessel-K profiles;
the physical kernel comes from a Hankel transform.  This script prints the
kernel, checks the alpha = 0 Cauchy specialization (and its n = 2 tail far
out), verifies the two-step semigroup property, and confirms unit mass via
the packaged CDF.
"""

import numpy as np

from gasp import (
    Grid,
    LevelPair,
    ModelParams,
    hitting_cdf,
    hitting_ft,
    hitting_kernel,
    semigroup_check,
)


def main():
    p = ModelParams(1.5, 1)
    lv = LevelPair(y=2.0, eta=1.0)
    print("hitting kernel G for alpha=%.1f n=%d, from y=%g down to eta=%g:"
          % (p.alpha, p.n, lv.y, lv.eta))
    for r in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        print("  r=%-4g G(r) = %.8f" % (r, hitting_kernel(p, lv, r)))
    print()

    print("alpha = 0 is the Cauchy law with scale y - eta:")
    p0 = ModelParams(0.0, 1)
    s = lv.y - lv.eta
    for r in (0.0, 1.0, 3.0):
        got = hitting_kernel(p0, lv, r)
        ref = s / (np.pi * (s * s + r * r))
        print("  r=%-3g G=%.12f  Cauchy=%.12f" % (r, got, ref))
    # every radius is one Hankel row on the ray, so the cost of a radius
    # does not grow with it: the n = 2 tail 3000 gaps out
    r = 3000.0
    got = hitting_kernel(ModelParams(0.0, 2), lv, r)
    ref = s / (2.0 * np.pi * (r * r + s * s) ** 1.5)
    print("  n=2 r=%g G=%.12e  Poisson=%.12e" % (r, got, ref))
    print()

    print("unit mass (CDF limit at infinity):")
    cdf = hitting_cdf(p, lv)
    print("  F(1e6) = %.10f" % cdf(1e6))
    print()

    print("Fourier side: going 3 -> 1 equals 3 -> 2 composed with 2 -> 1")
    xi = np.array([0.1, 1.0, 10.0])
    lhs = hitting_ft(p, LevelPair(3.0, 1.0), xi)
    rhs = hitting_ft(p, LevelPair(3.0, 2.0), xi) * hitting_ft(p, LevelPair(2.0, 1.0), xi)
    for x, a, b in zip(xi, lhs, rhs):
        print("  |xi|=%-4g direct=%.12e composed=%.12e" % (x, a, b))
    print()

    print("physical side: discrete convolution on a grid, deviation in sup norm")
    for alpha, grid in ((3.0, Grid(origin=(-20.0,), spacing=0.5, shape=(81,))),
                        (0.0, Grid(origin=(-30.0,), spacing=0.5, shape=(121,)))):
        dev = semigroup_check(ModelParams(alpha, 1), 3.0, 2.0, 1.0, grid)
        print("  alpha=%g  max |G_{3,1} - G_{3,2} * G_{2,1}| = %.2e"
              % (alpha, dev))


if __name__ == "__main__":
    main()
