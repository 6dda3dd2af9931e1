"""A measure whose orbit decay genuinely oscillates between regimes.

Atoms at -(1/2)^(2^k) with alternating weight exponents make the ball
mass ratio ln mu(B(0,eps)) / ln eps swing between extremes forever, so
the orbit norm has no single polynomial rate: weighted by t^0.7 it
still blows up along one time sequence, yet weighted by exp(t^0.1) it
collapses along another.  The atoms live far below double precision,
so everything here runs in log coordinates.
"""

import math

import semistab as ss

WINDOW = (ss.parse_scale_token("2^-2048"), ss.parse_scale_token("2^-1"))
HORIZON = (10.0, 1e12)


def describe(label, mu, alpha_exponent):
    scaling = ss.scaling_exponents(mu, log_window=WINDOW, n_scales=240)
    verdict = ss.classify_stability(mu)
    probe = ss.gdelta_probe(mu, alpha_exponent, ss.BetaDescriptor(0.1),
                            horizon=HORIZON, n_t=4001)
    print(f"== {label} ==")
    print(f"  atoms: {mu.n_atoms}, closest to zero at ln|position| = "
          f"{mu.log_s[0]:.1f} (|position| ~ 2^{mu.log_s[0] / math.log(2):.0f})")
    print(f"  scaling exponents  d_minus={scaling.d_minus:.3f}  "
          f"d_plus={scaling.d_plus:.3f}")
    print(f"  classification     {verdict.classification}")
    print(f"  ln max t^{alpha_exponent}-weighted norm   {probe.log_max_alpha_weighted:8.3f}"
          f"   at t = {probe.argmax_t:.3e}")
    print(f"  ln min exp(t^0.1)-weighted norm {probe.log_min_beta_weighted:8.3f}"
          f"   at t = {probe.argmin_t:.3e}")
    return probe


def main():
    swinging = ss.lacunary_measure(0.5, (0.5, 4.0), 12)
    probe = describe("alternating exponents (0.5, 4) x 12", swinging, 0.7)
    print()
    print("  both extremes cleared: weighted by t^0.7 the norm still reaches")
    print(f"  e^{probe.log_max_alpha_weighted:.1f} along one time sequence, while the exp(t^0.1) weight")
    print("  crushes it along another — no single decay rate describes this")
    print("  orbit.")
    print()

    steady = ss.lacunary_measure(0.5, (1.0,), 12)
    describe("equal exponents (1.0) x 12 — the control", steady, 0.7)
    print()
    print("  same atom positions, balanced weights: the t^0.7-weighted norm")
    print("  stays below the witness threshold (6.9) across the whole")
    print("  horizon, so this measure witnesses no oscillation.")
    print()

    print("== the full study emits the witness measure itself ==")
    report = ss.study("gdelta-witness", scale_base=0.5, exponents=(0.5, 4.0), n_atoms=12)
    for verdict in report.verdicts:
        print("  " + verdict.line())
    for note in report.notes:
        print("  note:", note)
    text = report.artifacts["witness.measure"]
    print(f"  witness.measure artifact: {len(text.splitlines())} lines, "
          f"round-trips through measure_from_text: "
          f"{ss.measure_from_text(text).n_atoms == 12}")


if __name__ == "__main__":
    main()
