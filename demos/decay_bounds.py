"""Universal decay bounds on range vectors, and how they are policed.

For any vector in the range of the generator, ||e^{tA} A x|| <=
||x|| / (e t) — uniformly over all negative self-adjoint A.  With the
spectrum pushed below -a the bound strengthens by e^{-t a}.  A single
atom turns the inequality into an equality at t = 1/|lambda|, which is
what makes the checker falsifiable: tighten the bound by 10% and that
witness must fail.  This is wired into the study harness as the
[hooks] bound_scale knob.
"""

import numpy as np

import semistab as ss


def main():
    rng = np.random.default_rng(2024)

    print("== random range vectors against ||x||/(e t) ==")
    worst = -np.inf
    for _ in range(25):
        mu = ss.AtomicMeasure.from_points(rng.uniform(-10.0, 0.0, 20),
                                          rng.uniform(0.05, 1.0, 20))
        check = ss.range_bound_check(mu)
        worst = max(worst, float(check) / check.norm_x)
    print(f"  25 measures x 200 times: worst (lhs - rhs)/||x|| = {worst:.3e}")
    print("  (negative: the bound always holds with room)")
    print()

    print("== the single-atom equality witness ==")
    witness = ss.AtomicMeasure.from_points([-2.7], [1.0])
    for t in (0.1, 1.0 / 2.7, 2.0):
        check = ss.range_bound_check(witness, [t])
        print(f"  t = {t:<12.6g} lhs - rhs = {float(check):+.6e}")
    print("  the bound is attained exactly at t = 1/|lambda| = 1/2.7")
    print()

    print("== shifted spectrum, shifted bound ==")
    for a in (0.5, 1.0, 2.0):
        mu = ss.AtomicMeasure.from_points(rng.uniform(-10.0, -a, 20),
                                          rng.uniform(0.05, 1.0, 20))
        check = ss.shifted_range_bound_check(mu, a, t_max=100.0)
        print(f"  shift a = {a}: worst lhs - rhs = {float(check):+.3e}  "
              f"passed = {check.passed}")
    print()

    print("== the falsification hook: tighten the bound by 10% ==")
    keys = dict(n_measures=6, n_atoms=8, n_shifted=3, n_t=80, seed=7)
    honest = ss.study("section3-bounds", **keys)
    hooked = ss.study("section3-bounds", **keys, bound_scale=0.9)
    for label, report in (("bound_scale = 1.0", honest), ("bound_scale = 0.9", hooked)):
        lines = "; ".join(v.line() for v in report.verdicts)
        print(f"  {label}: overall {'PASS' if report.passed else 'FAIL'}  [{lines}]")
    print("  a checker that cannot fail proves nothing; this one can.")


if __name__ == "__main__":
    main()
