"""Simulating the process and validating the exit laws.

The height coordinate has an exact log-space update; given that path the
horizontal coordinates are drawn once, from their exact Gaussian law; the
rest of a path below the stopping floor is added exactly from Dufresne's
identity; and every path draws from its own counter-based stream, so
results are reproducible and independent of how work is split across
workers.  This script runs small ensembles, compares empirical exit laws
against the kernels by Kolmogorov-Smirnov distance, and demonstrates the
determinism guarantees.
"""

import numpy as np

from gasp import (
    HalfSpacePoint,
    LevelPair,
    ModelParams,
    SimConfig,
    boundary_kernel_cdf,
    simulate_paths,
    validate_boundary_law,
    validate_hitting_law,
)


def main():
    p = ModelParams(0.0, 1)
    cfg = SimConfig(p=p, start=HalfSpacePoint((0.0,), 1.0), dt=2e-3,
                    y_stop=0.0, n_paths=5000, master_seed=7, y_floor=1e-3)

    print("boundary exit, alpha=0, 5000 paths: empirical vs exact CDF")
    run = simulate_paths(cfg)
    xs = np.sort(run.samples[:, 0])
    cdf = boundary_kernel_cdf(p, cfg.start.y)
    for x in (-2.0, -0.5, 0.0, 0.5, 2.0):
        emp = np.searchsorted(xs, x) / xs.size
        print("  x=%-5g empirical=%.4f exact=%.4f" % (x, emp, cdf(x)))
    print("  mean stop time = %.4f over %d paths"
          % (run.stop_times.mean(), run.stop_times.size))
    print()

    print("packaged KS validation (paths completed exactly below the floor):")
    rep = validate_boundary_law(cfg, samples=run)
    print("  ks=%.4f threshold=%.4f passed=%s"
          % (rep["ks"], rep["threshold"], rep["passed"]))
    print()

    print("hitting a positive level needs no floor; alpha=3, y=2 -> eta=1:")
    hcfg = SimConfig(p=ModelParams(3.0, 1), start=HalfSpacePoint((0.0,), 2.0),
                     dt=2e-3, y_stop=1.0, n_paths=5000, master_seed=7)
    hrep = validate_hitting_law(hcfg, LevelPair(2.0, 1.0))
    print("  ks=%.4f threshold=%.4f passed=%s"
          % (hrep["ks"], hrep["threshold"], hrep["passed"]))
    print()

    print("determinism: rerun and worker-split reproduce the same samples")
    again = simulate_paths(cfg)
    split = simulate_paths(cfg, workers=4)
    print("  rerun identical:        %s"
          % np.array_equal(run.samples, again.samples))
    print("  4-way split identical:  %s"
          % np.array_equal(run.samples, split.samples))
    lo, hi = 100, 104
    piece = simulate_paths(cfg, path_range=(lo, hi))
    print("  paths [%d, %d) alone:   %s" % (lo, hi,
          np.array_equal(run.samples[lo:hi], piece.samples)))
    print("  per-path streams keyed by (master_seed, path index):",
          run.seed_provenance[0], run.seed_provenance[1][:4], "...")


if __name__ == "__main__":
    main()
