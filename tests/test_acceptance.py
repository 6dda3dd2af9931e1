"""Acceptance gate: one test per contract, each printing a single
PASS/FAIL line with the measured evidence and asserting the stated
tolerance and runtime budget.  Every expected value is recomputed here
from its closed form or from an independently coded predicate; the
package under test never supplies its own oracle.
"""

import glob
import math
import os
import time

import numpy as np

import semistab as ss


def _verdict(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {name}  {detail}"
    print(line, flush=True)
    assert ok, line


def _random_atomic(rng, n_atoms: int, lo: float, hi: float) -> ss.AtomicMeasure:
    positions = rng.uniform(lo, hi, n_atoms)
    weights = rng.uniform(0.05, 1.0, n_atoms)
    return ss.AtomicMeasure.from_points(positions, weights)


def test_01_profile_ball_mass_matches_closed_form():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for delta in (0.6, 0.75, 0.9):
        mu = ss.monomial_profile_measure(delta)
        power = 2.0 * delta + 1.0
        for eps in rng.uniform(1e-12, 1.0, 20):
            exact = eps**power / power
            rel = abs(mu.ball_mass(eps) - exact) / exact
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _verdict("profile-ball-mass", ok,
             f"worst rel err {worst:.3e} (tol 1e-10), {elapsed:.2f}s (budget 1s)")


def test_02_decay_exponents_mirror_scaling_exponents():
    start = time.perf_counter()
    worst = 0.0
    cases = [(f"gamma={g}", ss.power_law_measure(g)) for g in (0.5, 1.0, 2.0, 3.5)]
    cases += [(f"delta={d}", ss.monomial_profile_measure(d)) for d in (0.6, 0.75, 0.9)]
    for _, mu in cases:
        scaling = ss.scaling_exponents(mu, 1e-6, 1e-1, n_scales=200)
        decay = ss.decay_exponents(ss.evolve_norms(mu, 10.0, 1e6, 400))
        worst = max(worst,
                    abs(decay.limsup_est + scaling.d_minus),
                    abs(decay.liminf_est + scaling.d_plus))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.05 and elapsed < 30.0
    _verdict("decay-scaling-duality", ok,
             f"{len(cases)} measures, worst |decay + scaling| {worst:.3e} "
             f"(tol 0.05), {elapsed:.2f}s (budget 30s)")


def test_03_range_bound_holds_and_equality_witness_is_sharp():
    rng = np.random.default_rng(33)
    start = time.perf_counter()
    violations = 0
    worst = -math.inf
    for _ in range(100):
        mu = _random_atomic(rng, 20, -10.0, 0.0)
        check = ss.range_bound_check(mu)
        assert check.n_t == 200
        worst = max(worst, float(check) / check.norm_x)
        if float(check) > check.tol:
            violations += 1
    witness = ss.AtomicMeasure.from_points([-2.7], [1.0])
    sharp = ss.range_bound_check(witness, [1.0 / 2.7])
    gap = abs(float(sharp))
    elapsed = time.perf_counter() - start
    ok = violations == 0 and gap <= 1e-12 * sharp.norm_x and elapsed < 10.0
    _verdict("orbit-range-bound", ok,
             f"0 of 100 violations beyond 1e-12*norm (worst {worst:.3e}*norm), "
             f"equality gap {gap:.3e} at t=1/2.7, {elapsed:.2f}s (budget 10s)")


def test_04_shifted_range_bound_holds():
    rng = np.random.default_rng(44)
    start = time.perf_counter()
    violations = 0
    checked = 0
    for a in (0.5, 1.0, 2.0):
        for _ in range(50):
            mu = _random_atomic(rng, 20, -10.0, -a)
            check = ss.shifted_range_bound_check(mu, a)
            checked += 1
            if float(check) > check.tol:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    _verdict("shifted-range-bound", ok,
             f"0 of {checked} violations across shifts 0.5/1/2, "
             f"{elapsed:.2f}s (budget 10s)")


def test_05_classification_agrees_with_gap_threshold_predicate():
    rng = np.random.default_rng(55)
    start = time.perf_counter()
    disagreements = 0
    n_exponential = 0
    for _ in range(50):
        top = -(10.0 ** rng.uniform(-12.0, 1.0))
        positions = np.concatenate([[top], top - rng.uniform(0.1, 5.0, 4)])
        mu = ss.AtomicMeasure.from_points(positions, rng.uniform(0.05, 1.0, 5))
        # a member of some F_n with n <= 1e8 iff the top of support
        # clears the coarsest threshold -1/1e8 (the thresholds increase
        # with n, so the largest n decides existence)
        predicate = top <= -1e-8
        verdict = ss.classify_stability(mu, gap_tol=1e-8)
        classified = verdict.classification == "ExponentiallyStable"
        member = ss.check_fn_membership(mu, 10**8)
        n_exponential += classified
        if classified != predicate or member != predicate:
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and 0 < n_exponential < 50 and elapsed < 1.0
    _verdict("gap-threshold-classification", ok,
             f"0 of 50 disagreements ({n_exponential} exponential, "
             f"{50 - n_exponential} not), {elapsed:.2f}s (budget 1s)")


def test_06_density_sequence_studies():
    V = ss.gaussian_well(depth=1.0, width=1.0, nu=1, a_bound=1.0)
    start = time.perf_counter()
    trunc = ss.study("approximation", potential=V, seq_kind="truncation",
                     indices=range(1, 13), n_probes=3, L=20.0, h=0.05)
    shift = ss.study("approximation", potential=V, seq_kind="shift",
                     indices=range(1, 21), n_probes=3, L=20.0, h=0.05)
    elapsed = time.perf_counter() - start

    rows = trunc.table("approximation").rows
    metric = [float(r[1]) for r in rows]
    monotone = all(b <= a for a, b in zip(metric, metric[1:]))
    final_metric = metric[-1]
    worst_resolvent = max(float(r[j]) - float(r[j + 1])
                          for r in rows for j in (3, 5, 7))

    worst_cap = -math.inf
    for r in shift.table("approximation").rows:
        l = int(r[0])
        worst_cap = max(worst_cap, float(r[2]) - (-1.0 / (l + 1.0)))

    ok = (monotone and final_metric < 1e-3 and worst_resolvent <= 0.0
          and worst_cap <= 0.0 and elapsed < 60.0)
    _verdict("density-sequences", ok,
             f"metric monotone to {final_metric:.3e} by k=12 (tol 1e-3), "
             f"resolvent worst lhs-rhs {worst_resolvent:.3e}, "
             f"shift worst max-eig minus -a/(l+1) cap {worst_cap:.3e}, "
             f"{elapsed:.2f}s (budget 60s)")


def test_07_discretization_matches_dirichlet_sine_spectrum():
    start = time.perf_counter()
    worst_1d = 0.0
    for n in (100, 500, 1000):
        H = ss.discretize(ss.constant_potential(0.0, 1, 1.0), (n + 1) / 2.0, 1.0)
        j = np.arange(1, n + 1)
        exact = np.sort(-4.0 * np.sin(j * np.pi / (2.0 * (n + 1))) ** 2)
        numeric = np.sort(H.eigenvalues)
        worst_1d = max(worst_1d, float(np.max(np.abs(numeric - exact) / np.abs(exact))))
    H2 = ss.discretize(ss.constant_potential(0.0, 2, 1.0), 4.5, 1.0)
    j = np.arange(1, 9)
    lam1 = -4.0 * np.sin(j * np.pi / 18.0) ** 2
    tensor = np.sort((lam1[:, None] + lam1[None, :]).ravel())
    worst_2d = float(np.max(np.abs(np.sort(H2.eigenvalues) - tensor) / np.abs(tensor)))
    elapsed = time.perf_counter() - start
    ok = worst_1d <= 1e-9 and worst_2d <= 1e-9 and elapsed < 60.0
    _verdict("dirichlet-spectrum-oracle", ok,
             f"1-D worst rel err {worst_1d:.3e} (n=100/500/1000), "
             f"2-D tensor-sum worst {worst_2d:.3e} (8x8), tol 1e-9, "
             f"{elapsed:.2f}s (budget 60s)")


def test_08_lacunary_measure_witnesses_oscillation():
    start = time.perf_counter()
    mu = ss.lacunary_measure(0.5, (0.5, 4.0), 12)
    window = (ss.parse_scale_token("2^-2048"), ss.parse_scale_token("2^-1"))
    scaling = ss.scaling_exponents(mu, log_window=window, n_scales=240)
    verdict = ss.classify_stability(mu)
    probe = ss.gdelta_probe(mu, 0.7, ss.BetaDescriptor(0.1),
                            horizon=(10.0, 1e12), n_t=4001)
    elapsed = time.perf_counter() - start
    ok = (scaling.d_minus <= 0.7 and scaling.d_plus >= 3.0
          and verdict.classification == "StableNotExponential"
          and probe.log_max_alpha_weighted >= 6.9
          and probe.log_min_beta_weighted <= -6.9
          and elapsed < 10.0)
    _verdict("lacunary-oscillation-witness", ok,
             f"d=({scaling.d_minus:.3f},{scaling.d_plus:.3f}) "
             f"(need <=0.7 / >=3.0), {verdict.classification}, "
             f"ln max alpha-weighted {probe.log_max_alpha_weighted:.3f} (>=6.9), "
             f"ln min beta-weighted {probe.log_min_beta_weighted:.3f} (<=-6.9), "
             f"{elapsed:.2f}s (budget 10s)")


STUDY_CONFIGS = {
    "approximation": """
[study]
kind = approximation
seed = 5

[potential]
kind = gaussian-well
a_bound = 1
depth = 1
width = 1

[approximation]
seq_kind = truncation
indices = 1..6
L = 8
h = 0.1
n_probes = 2
""",
    "gap-vs-box": """
[study]
kind = gap-vs-box
seed = 0

[potential]
kind = constant
a_bound = 1
value = 0

[box]
L_list = 2, 4, 8
h = 0.25
""",
    "exponent-table": """
[study]
kind = exponent-table
seed = 3

[exponents]
delta_list = 0.75
gamma_list = 1
n_scales = 60
n_times = 80
""",
    "gdelta-witness": """
[study]
kind = gdelta-witness
seed = 1
""",
    "section3-bounds": """
[study]
kind = section3-bounds
seed = 7

[bounds]
n_measures = 6
n_atoms = 8
n_shifted = 3
n_t = 80
""",
}


def test_09_study_reruns_are_byte_identical(tmp_path):
    start = time.perf_counter()
    compared = 0
    mismatched = []
    for kind, text in STUDY_CONFIGS.items():
        config = ss.parse_study_config(text)
        dir_a = tmp_path / kind / "a"
        dir_b = tmp_path / kind / "b"
        ss.write_report(ss.run_study(config), dir_a)
        ss.write_report(ss.run_study(config), dir_b)
        for path_a in sorted(glob.glob(str(dir_a / "*"))):
            name = os.path.basename(path_a)
            if name == "summary.txt":
                continue  # carries a generation timestamp
            with open(path_a, "rb") as fh:
                bytes_a = fh.read()
            with open(dir_b / name, "rb") as fh:
                bytes_b = fh.read()
            compared += 1
            if bytes_a != bytes_b:
                mismatched.append(f"{kind}/{name}")
    elapsed = time.perf_counter() - start
    ok = not mismatched and compared >= 10
    _verdict("study-determinism", ok,
             f"{compared} artifacts byte-identical across re-runs of all "
             f"{len(STUDY_CONFIGS)} study kinds"
             + (f"; mismatched: {mismatched}" if mismatched else "")
             + f", {elapsed:.2f}s")
