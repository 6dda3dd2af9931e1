"""How the spectral gap of a boxed operator depends on the box size.

Dirichlet discretization on [-L, L]^nu gives every operator a gap; the
physically meaningful part is what survives as L grows.  For the free
operator the gap closes like (pi / 2L)^2 — quartering each time L
doubles — and a compactly supported well inherits that fate.  The
study emits one row per box plus a final row that is a reporting rule
for the L -> infinity limit, deliberately never computed.
"""

import semistab as ss

H_STEP = 0.25
BOXES = [2.0, 4.0, 8.0, 16.0]


def print_report(title, report):
    print(f"== {title} ==")
    table = report.table("gap-vs-box")
    print("  " + ",".join(table.header))
    for row in table.rows:
        print("  " + ",".join(str(cell) for cell in row))
    for verdict in report.verdicts:
        print("  " + verdict.line())
    for note in report.notes:
        print("  note:", note)
    print()


def main():
    free = ss.constant_potential(0.0, nu=1, a_bound=1.0)
    report = ss.study("gap-vs-box", potential=free, L_list=BOXES, h=H_STEP)
    print_report("free operator (V = 0)", report)

    gaps = [float(r[2]) for r in report.table("gap-vs-box").rows[:-1]]
    print("quartering check (gap ratio when L doubles, exact limit 4):")
    for L, ratio in zip(BOXES, (a / b for a, b in zip(gaps, gaps[1:]))):
        print(f"  L {L:>4} -> {2 * L:<4}  ratio {ratio:.4f}")
    print()

    well = ss.square_well(depth=1.0, radius=2.0, nu=1, a_bound=1.0)
    report = ss.study("gap-vs-box", potential=well, L_list=BOXES, h=H_STEP)
    print_report("square well, depth 1 on [-2, 2]", report)

    print("a potential with unbounded support is refused up front:")
    try:
        ss.study("gap-vs-box", potential=ss.constant_potential(-0.5, nu=1, a_bound=1.0),
                 L_list=BOXES, h=H_STEP)
    except ss.PreconditionError as exc:
        print("  PreconditionError:", exc)


if __name__ == "__main__":
    main()
