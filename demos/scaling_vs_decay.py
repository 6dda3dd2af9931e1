"""Scaling exponents of the measure mirror decay exponents of the orbit.

For a spectral measure whose mass near zero scales like mu(B(0,eps)) ~
eps^gamma, the orbit norm obeys ||e^{tA}x||^2 ~ t^{-gamma}: small-scale
geometry of the measure and long-time decay of the semigroup are the
same number with opposite sign.  This script estimates both sides
independently on exact power laws and on polynomial-profile densities
and tabulates the round-trip error.
"""

import semistab as ss

SCALE_WINDOW = (1e-6, 1e-1)
TIME_WINDOW = (10.0, 1e6)


def round_trip(label, mu):
    scaling = ss.scaling_exponents(mu, *SCALE_WINDOW, n_scales=200)
    trace = ss.evolve_norms(mu, *TIME_WINDOW, 400)
    decay = ss.decay_exponents(trace)
    err_minus = abs(decay.limsup_est + scaling.d_minus)
    err_plus = abs(decay.liminf_est + scaling.d_plus)
    print(f"{label:<12} d=({scaling.d_minus:8.5f},{scaling.d_plus:8.5f})  "
          f"decay=({decay.liminf_est:9.5f},{decay.limsup_est:9.5f})  "
          f"round-trip err ({err_minus:.1e},{err_plus:.1e})")


def main():
    print("scale window", SCALE_WINDOW, "/ time window", TIME_WINDOW)
    print()
    print("== exact power laws: mu(B(0,eps)) = eps^gamma ==")
    for gamma in (0.5, 1.0, 2.0, 3.5):
        round_trip(f"gamma={gamma}", ss.power_law_measure(gamma))

    print()
    print("== polynomial profiles f(s)=|s|^(2 delta): exponent 2 delta + 1 ==")
    for delta in (0.6, 0.75, 0.9):
        mu = ss.monomial_profile_measure(delta)
        print(f"   (closed-form ball mass at eps=0.01: "
              f"{mu.ball_mass(0.01):.6e} = 0.01^{2 * delta + 1}/{2 * delta + 1})")
        round_trip(f"delta={delta}", mu)

    print()
    print("== the uniform measure has a unit exponent on both sides ==")
    round_trip("uniform", ss.uniform_measure(0.0, 1.0))

    print()
    print("the estimates use two-point log-log increments, so constant")
    print("prefactors cancel; raw per-scale ratios stay available:")
    est = ss.scaling_exponents(ss.power_law_measure(2.0), *SCALE_WINDOW, n_scales=6)
    for eps_log, ratio in zip(est.log_eps, est.ratios):
        print(f"  ln eps = {eps_log:8.3f}   ratio = {ratio:.6f}")


if __name__ == "__main__":
    main()
