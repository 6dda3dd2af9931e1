"""Two ways to approximate a Schrodinger operator, with opposite fates.

Truncating a well outside |x| <= k converges to the original operator
in the potential metric, and the resolvent difference of the boxed
operators is dominated by that metric at every step.  Shifting the
well by a/(l+1) also converges in the metric, yet every shifted
operator keeps its top eigenvalue below -a/(l+1): a sequence of
exponentially stable operators whose limit keeps no uniform gap.
"""

import semistab as ss

WELL = ss.gaussian_well(depth=1.0, width=1.0, nu=1, a_bound=1.0)
L, H_STEP = 12.0, 0.1


def print_table(report, columns):
    table = report.table("approximation")
    idx = [table.header.index(c) for c in columns]
    print("  " + "  ".join(f"{c:>12}" for c in columns))
    for row in table.rows:
        cells = (f"{float(row[i]):>12.4e}" if "." in str(row[i]) else f"{row[i]:>12}"
                 for i in idx)
        print("  " + "  ".join(cells))
    for verdict in report.verdicts:
        print("  " + verdict.line())
    print()


def main():
    print(f"gaussian well, boxed on [-{L}, {L}], step {H_STEP}")
    print()

    print("== truncation: V_k = V inside |x| <= k, 0 outside ==")
    report = ss.study("approximation", potential=WELL, seq_kind="truncation",
                      indices=range(1, 9), n_probes=2, L=L, h=H_STEP, seed=3)
    print_table(report, ("index", "metric_d", "lambda_max", "lhs_1", "rhs_1"))
    print("metric_d collapses super-exponentially (the tail of the well),")
    print("lambda_max drifts toward the free operator's, and the resolvent")
    print("probe columns keep lhs <= rhs: metric closeness dominates")
    print("resolvent closeness along the whole sequence.")
    print()

    print("== shift: V_l = V - 1/(l+1), a gap by construction ==")
    report = ss.study("approximation", potential=WELL, seq_kind="shift",
                      indices=range(1, 9), n_probes=2, L=L, h=H_STEP, seed=3)
    print_table(report, ("index", "metric_d", "lambda_max", "shift_cap"))
    print("every member respects lambda_max <= -1/(l+1) = shift_cap, so each")
    print("is exponentially stable; the caps tend to 0, so no uniform rate")
    print("survives the limit even though the metric converges.")


if __name__ == "__main__":
    main()
