"""Acceptance suite: ten pinned criteria, one verdict line each.

Every test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the same condition, with tolerances fixed up front.  Criterion 8
simulates 5e5 Monte Carlo paths and dominates the runtime (a few minutes);
everything else finishes in seconds.  All randomness is seeded, so reruns
are bit-identical.
"""

import math

import numpy as np

from gasp import (
    BoundaryData,
    Grid,
    HalfSpacePoint,
    LevelPair,
    ModelParams,
    MultiIndex,
    SimConfig,
    SubcriticalCase,
    WeightedTerm,
    counterexample_track,
    dalpha_residual,
    hitting_ft,
    hitting_kernel,
    kernel_mass,
    l1_data_scan,
    poisson_kernel,
    semigroup_check,
    simulate_paths,
    sphere_sup_scan,
    u_tilde,
    validate_boundary_law,
    validate_hitting_law,
)
from gasp._quadrature import gauss_legendre
from gasp.extension import boundary_convergence, derivative_commutation_check
from gasp.spectral import ft_closed_form, ft_direct, ft_integral_rep, profile_ode_residual
from de_oracle import tanh_sinh

SEED = 2026


def _verdict(num, label, ok, detail):
    print("criterion %02d %-24s %s  %s"
          % (num, label, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s): %s" % (num, label, detail)


def _tent_data(alpha, n, m):
    """Radial tent max(0, 1 - |x|) sampled on [-1, 1]^n (unit mass for n=1)."""
    g = Grid(origin=(-1.0,) * n, spacing=2.0 / (m - 1), shape=(m,) * n)
    r2 = np.zeros(g.shape)
    for i in range(n):
        dims = [1] * n
        dims[i] = g.shape[i]
        a = g.axis_coords(i)
        r2 = r2 + (a * a).reshape(dims)
    vals = np.maximum(0.0, 1.0 - np.sqrt(r2))
    p = ModelParams(alpha, n)
    return BoundaryData(p, (WeightedTerm(MultiIndex((0,) * n), g,
                                         vals.reshape(-1)),)), p


def test_criterion_01_kernel_mass_is_one():
    worst = 0.0
    for alpha in (-0.5, 0.0, 1.0, 2.5, 3.7):
        for n in (1, 2, 3):
            p = ModelParams(alpha, n)
            for y in (0.1, 1.0, 10.0):
                worst = max(worst, abs(kernel_mass(p, y) - 1.0))
    _verdict(1, "kernel mass = 1", worst <= 1e-8,
             "max |mass - 1| = %.3e over 45 (alpha, n, y) combos" % worst)


def test_criterion_02_pde_residual_is_second_order():
    rng = np.random.default_rng(SEED)
    p = ModelParams(1.5, 2)
    u = lambda q: poisson_kernel(p, q)
    hs = np.array([1e-2, 5e-3, 2.5e-3])
    orders = []
    for _ in range(20):
        pt = HalfSpacePoint(x=tuple(rng.uniform(-2.0, 2.0, p.n)),
                            y=float(rng.uniform(0.5, 2.0)))
        res = np.array([abs(dalpha_residual(u, p, pt, h=h)) for h in hs])
        orders.append(float(np.polyfit(np.log(hs), np.log(res), 1)[0]))
    ok = all(1.8 <= o <= 2.2 for o in orders)
    _verdict(2, "residual order O(h^2)", ok,
             "20 random points, measured order in [%.3f, %.3f]"
             % (min(orders), max(orders)))


def test_criterion_03_spectral_three_way_agreement():
    worst_ci = worst_cd = worst_exp = 0.0
    for alpha in (-0.5, 0.0, 1.0, 2.0, 3.7):
        for n in (1, 2):
            p = ModelParams(alpha, n)
            for y in (0.25, 1.0, 4.0):
                for b in (0.1, 1.0, 5.0, 20.0):
                    xi = b / y
                    closed = float(ft_closed_form(p, y, xi))
                    integral = ft_integral_rep(p, y, xi)
                    vec = np.zeros(n)
                    vec[0] = xi
                    direct = ft_direct(p, y, vec)
                    worst_ci = max(worst_ci, abs(closed - integral) / closed)
                    worst_cd = max(worst_cd, abs(closed - direct) / closed)
                    if alpha == 0.0:
                        worst_exp = max(worst_exp, abs(closed - math.exp(-b)))
    ok = worst_ci <= 1e-8 and worst_cd <= 1e-5 and worst_exp <= 1e-9
    _verdict(3, "transform three ways", ok,
             "rel closed/integral %.2e (tol 1e-8), closed/direct %.2e "
             "(tol 1e-5), alpha=0 vs exp %.2e (tol 1e-9)"
             % (worst_ci, worst_cd, worst_exp))


def test_criterion_04_transform_profile_satisfies_ode():
    hs = np.array([2e-2, 1e-2, 5e-3])
    orders = []
    for alpha in (-0.5, 0.0, 2.5):
        p = ModelParams(alpha, 1)
        for t in (0.5, 1.0, 2.0, 5.0, 10.0):
            res = np.array([abs(profile_ode_residual(p, t, h=h)) for h in hs])
            orders.append(float(np.polyfit(np.log(hs), np.log(res), 1)[0]))
    ok = all(1.8 <= o <= 2.2 for o in orders)
    _verdict(4, "profile ODE O(h^2)", ok,
             "t in [0.5, 10], three alphas, order in [%.3f, %.3f]"
             % (min(orders), max(orders)))


def test_criterion_05_boundary_convergence_on_tents():
    ys = [1.0, 0.25, 1.0 / 16, 1.0 / 64]
    results = {}
    for alpha, n, m in ((0.0, 1, 513), (2.0, 2, 257)):
        data, p = _tent_data(alpha, n, m)
        results[(alpha, n)] = boundary_convergence(data, p, ys)
    ok = True
    for e in results.values():
        ok = ok and all(b < a for a, b in zip(e, e[1:])) and e[-1] < e[0] / 10.0
    _verdict(5, "boundary convergence", ok,
             "(0,1): %.4f -> %.4f; (2,2): %.4f -> %.4f; both decreasing, "
             "e(1/64) < e(1)/10"
             % (results[(0.0, 1)][0], results[(0.0, 1)][-1],
                results[(2.0, 2)][0], results[(2.0, 2)][-1]))


def test_criterion_06_derivative_commutation():
    worst = 0.0
    data1, p1 = _tent_data(1.0, 1, 513)
    for beta in ((0,), (1,), (2,)):
        fd, exact = derivative_commutation_check(
            data1, p1, MultiIndex(beta), HalfSpacePoint((0.3,), 1.0), 1e-3)
        worst = max(worst, abs(fd - exact))
    data2, p2 = _tent_data(0.0, 2, 65)
    for beta in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        fd, exact = derivative_commutation_check(
            data2, p2, MultiIndex(beta), HalfSpacePoint((0.2, -0.1), 1.0), 1e-3)
        worst = max(worst, abs(fd - exact))
    _verdict(6, "derivative commutation", worst <= 1e-3,
             "max |fd - exact| = %.2e over all |beta| <= 2 (tol 1e-3)" % worst)


def test_criterion_07_hitting_identities():
    # reconstruction G_{y,eta} * K_eta = K_y at 5 points
    p = ModelParams(1.5, 1)
    lv = LevelPair(y=2.0, eta=0.75)
    edges = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    edges = np.concatenate([-edges[::-1], edges[1:]])
    nodes, wts = gauss_legendre(12)
    t = np.concatenate([0.5 * (b - a) * nodes + 0.5 * (a + b)
                        for a, b in zip(edges[:-1], edges[1:])])
    w = np.concatenate([0.5 * (b - a) * wts
                        for a, b in zip(edges[:-1], edges[1:])])
    g_tab = np.array([hitting_kernel(p, lv, abs(tt)) for tt in t])
    recon = 0.0
    for x in (0.0, 0.4, 1.0, 2.0, 3.5):
        k_eta = np.array([poisson_kernel(p, HalfSpacePoint(x=(x - tt,), y=lv.eta))
                          for tt in t])
        conv = float(np.sum(w * g_tab * k_eta))
        direct = poisson_kernel(p, HalfSpacePoint(x=(x,), y=lv.y))
        recon = max(recon, abs(conv - direct))

    # physical-space semigroup on the two verified grids
    dev3 = semigroup_check(ModelParams(3.0, 1), 3.0, 2.0, 1.0,
                           Grid(origin=(-20.0,), spacing=0.5, shape=(81,)))
    dev0 = semigroup_check(ModelParams(0.0, 1), 3.0, 2.0, 1.0,
                           Grid(origin=(-30.0,), spacing=0.5, shape=(121,)))

    # Fourier-side semigroup is a pure product identity
    pf = ModelParams(1.5, 1)
    xi = np.array([0.01, 0.1, 1.0, 5.0, 20.0])
    lhs = hitting_ft(pf, LevelPair(3.0, 1.0), xi)
    rhs = hitting_ft(pf, LevelPair(3.0, 2.0), xi) * hitting_ft(pf, LevelPair(2.0, 1.0), xi)
    fourier = float(np.max(np.abs(lhs - rhs) / lhs))

    # total mass, geometric panels plus fitted power tail
    pm = ModelParams(1.5, 2)
    lvm = LevelPair(y=2.0, eta=0.5)
    medges = np.array([0.0, 0.75, 1.5, 3.0, 6.0, 12.0, 24.0, 48.0])
    n20, w20 = gauss_legendre(20)
    bulk = 0.0
    for a, b in zip(medges[:-1], medges[1:]):
        r = 0.5 * (b - a) * n20 + 0.5 * (a + b)
        g = np.array([hitting_kernel(pm, lvm, float(v)) for v in r])
        bulk += 0.5 * (b - a) * float(np.sum(w20 * g * r))
    g36 = hitting_kernel(pm, lvm, 36.0)
    g48 = hitting_kernel(pm, lvm, 48.0)
    pexp = math.log(g36 / g48) / math.log(48.0 / 36.0)
    mass = 2.0 * math.pi * (bulk + g48 * 48.0**2 / (pexp - 2.0))

    # alpha = 0 is the classical one-step law
    pc = ModelParams(0.0, 1)
    lvc = LevelPair(2.0, 1.0)
    cauchy = max(abs(hitting_kernel(pc, lvc, r) * math.pi * (1.0 + r * r) - 1.0)
                 for r in (0.0, 0.3, 1.0, 3.0, 10.0))

    ok = (recon <= 1e-4 and dev3 <= 1e-3 and dev0 <= 1e-3
          and fourier <= 1e-12 and abs(mass - 1.0) <= 1e-4 and cauchy <= 1e-6)
    _verdict(7, "hitting identities", ok,
             "reconstruction %.1e (1e-4), semigroup %.1e/%.1e (1e-3), "
             "fourier %.1e (1e-12), |mass-1| %.1e (1e-4), cauchy %.1e (1e-6)"
             % (recon, dev3, dev0, fourier, abs(mass - 1.0), cauchy))


def test_criterion_08_monte_carlo_laws():
    n_ks = 100_000

    def boundary_cfg(alpha):
        return SimConfig(p=ModelParams(alpha, 1),
                         start=HalfSpacePoint(x=(0.0,), y=1.0),
                         dt=1e-3, y_stop=0.0, n_paths=n_ks,
                         master_seed=SEED, y_floor=1e-4)

    # two worker threads change no byte (test_worker_pool_is_invisible)
    rep_b0 = validate_boundary_law(boundary_cfg(0.0), workers=2)
    rep_b2 = validate_boundary_law(boundary_cfg(2.0), workers=2)

    def hitting_rep(alpha, y, eta):
        cfg = SimConfig(p=ModelParams(alpha, 1),
                        start=HalfSpacePoint(x=(0.0,), y=y),
                        dt=1e-3, y_stop=eta, n_paths=n_ks, master_seed=SEED)
        return validate_hitting_law(cfg, LevelPair(y, eta), workers=2)

    rep_h0 = hitting_rep(0.0, 2.0, 1.0)
    rep_h3 = hitting_rep(3.0, 2.0, 1.0)

    # per-coordinate variance of the stopped X at alpha = 3: y^2/(alpha-1)
    var_cfg = SimConfig(p=ModelParams(3.0, 1),
                        start=HalfSpacePoint(x=(0.0,), y=1.0),
                        dt=1e-3, y_stop=0.0, n_paths=200_000, master_seed=SEED)
    xs = simulate_paths(var_cfg, workers=2).samples[:, 0]
    var = float(np.var(xs))
    m4 = float(np.mean((xs - np.mean(xs)) ** 4))
    se = math.sqrt((m4 - var * var) / xs.size)

    # quadrature cross-check of the same moment: x = tan(u) turns
    # int x^2 K_{3,1} dx into c_norm * int sin^2 cos du
    p3 = ModelParams(3.0, 1)
    q2, _ = tanh_sinh(lambda u: np.sin(u) ** 2 * np.cos(u),
                      -0.5 * math.pi, 0.5 * math.pi, rel_tol=1e-12)
    q2 *= p3.c_norm

    ks_ok = all(r["passed"] for r in (rep_b0, rep_b2, rep_h0, rep_h3))
    var_ok = abs(var - 0.5) <= 4.0 * se and abs(q2 - 0.5) <= 1e-10
    _verdict(8, "Monte Carlo laws", ks_ok and var_ok,
             "KS boundary %.4f/%.4f, hitting %.4f/%.4f (thresholds "
             "%.4f/%.4f/%.4f/%.4f); Var = %.4f vs %.4f +- %.4f (4 SE), "
             "quadrature %.6f"
             % (rep_b0["ks"], rep_b2["ks"], rep_h0["ks"], rep_h3["ks"],
                rep_b0["threshold"], rep_b2["threshold"], rep_h0["threshold"],
                rep_h3["threshold"], var, 0.5, 4.0 * se, q2))


def test_criterion_09_growth_order_and_null_solution():
    data, p = _tent_data(0.0, 1, 513)
    scan = l1_data_scan(data, p, (4.0, 40.0, 400.0))
    m = scan.sup_values
    decay_ok = m[1] <= m[0] / 5.0 and m[2] <= m[1] / 5.0

    pn = ModelParams(1.5, 1)
    null = sphere_sup_scan(lambda x, y: y ** (pn.alpha + 1.0), pn, 0,
                           (4.0, 40.0, 400.0))
    null_dev = float(np.max(np.abs(null.sup_values - 1.0)))
    _verdict(9, "growth order", decay_ok and null_dev <= 1e-10,
             "tent M: %.3e -> %.3e -> %.3e (>= 5x per decade); null solution "
             "|M - 1| = %.1e" % (m[0], m[1], m[2], null_dev))


def test_criterion_10_counterexample_stays_above_floor():
    p = ModelParams(0.0, 1)
    track = counterexample_track(p, SubcriticalCase(0.0, 0.0), 10)
    floor = 0.5 * u_tilde(p)
    tail = [ratio for k, ratio in track if k >= 4]
    ok = all(v >= floor for v in tail)
    _verdict(10, "sharpness ratios", ok,
             "case A k=4..10 min ratio %.3f >= 0.5*u_tilde = %.3f"
             % (min(tail), floor))
