"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import scipy.special

from hilbtrunc.core import singular_values
from hilbtrunc.elements import Func, Seq, inner
from hilbtrunc.operators import (
    MultiplicationX,
    RightShift,
    Volterra,
    WeightedRightShift,
    power_law,
)
from hilbtrunc.bases import (
    adversarial_test_basis,
    canonical_basis,
    fourier_basis,
    krylov_basis,
    legendre_basis,
)
from hilbtrunc.truncation import compress, lift, solve_cg, solve_direct, solve_gmres
from hilbtrunc.diagnostics import (
    NoiseModel,
    classify,
    evaluate,
    noise_series,
    noisy_pipeline_check,
)

ZETA3 = float(scipy.special.zeta(3))

VOLTERRA = Volterra()
MULT = MultiplicationX((1.0, 2.0))
G1 = Func.from_poly((0.0, 1.0), [0, 0, 0.5])
F1 = Func.from_poly((0.0, 1.0), [0, 1])
G2 = Func.from_poly((1.0, 2.0), [0, 0, 1])
F2 = Func.from_poly((1.0, 2.0), [0, 1])


def check(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_volterra_singular_value_law():
    """Singular values of the N=100 Legendre compression follow the
    2/((2n+1) pi) law."""
    leg = legendre_basis((0.0, 1.0))
    p = compress(VOLTERRA, leg, leg, 100, G1)
    sv = singular_values(p.A_N)
    law = np.array([2.0 / ((2 * n + 1) * math.pi) for n in range(6)])
    dev = float(np.max(np.abs(sv[:6] - law)))
    top = abs(sv[0] - 2.0 / math.pi)
    check(
        f"criterion 1: compression singular values match the decay law "
        f"(max dev {dev:.2e}, top dev {top:.2e}, tol 1e-3)",
        dev <= 1e-3 and top <= 1e-3,
    )


def test_criterion_2_first_problem_legendre_qr():
    """Integration problem in the Legendre pair: error <= 1e-6, residual
    <= 1e-8, solution norm 1/sqrt(3) +- 1e-6 at N in {4, 10, 50, 100}."""
    leg = legendre_basis((0.0, 1.0))
    base = compress(VOLTERRA, leg, leg, 100, G1)
    ok = True
    worst = {"err": 0.0, "res": 0.0, "sol": 0.0}
    for N in (4, 10, 50, 100):
        rec = evaluate(
            VOLTERRA, G1, solve_direct(base.leading(N)), leg, leg, f_exact=F1
        )
        worst["err"] = max(worst["err"], rec.err_norm)
        worst["res"] = max(worst["res"], rec.res_norm)
        worst["sol"] = max(worst["sol"], abs(rec.sol_norm - 1.0 / math.sqrt(3.0)))
        ok = ok and rec.err_norm <= 1e-6 and rec.res_norm <= 1e-8
        ok = ok and abs(rec.sol_norm - 1.0 / math.sqrt(3.0)) <= 1e-6
    check(
        f"criterion 2: first problem exact in the polynomial pair "
        f"(worst err {worst['err']:.2e}, res {worst['res']:.2e}, "
        f"sol dev {worst['sol']:.2e})",
        ok,
    )


def test_criterion_3_second_problem_legendre_qr():
    """Coordinate-multiplication problem: solution norm sqrt(7/3) +- 1e-6
    for every N >= 3."""
    leg = legendre_basis((1.0, 2.0))
    base = compress(MULT, leg, leg, 100, G2)
    expect = math.sqrt(7.0 / 3.0)
    devs = []
    for N in list(range(3, 13)) + [25, 50, 100]:
        sol = solve_direct(base.leading(N))
        devs.append(abs(np.linalg.norm(sol.f_N_coeffs) - expect))
    check(
        f"criterion 3: second problem solution norm locks at sqrt(7/3) "
        f"(worst dev {max(devs):.2e}, tol 1e-6)",
        max(devs) <= 1e-6,
    )


def test_criterion_4_basis_contrast():
    """Fourier truncation error is >= 1e6 times the Legendre one at N=100
    and still decreases monotonically over paired-mode sizes."""
    four = fourier_basis((0.0, 1.0))
    leg = legendre_basis((0.0, 1.0))
    baseF = compress(VOLTERRA, four, four, 129, G1)
    errF = {}
    for N in (9, 17, 33, 65, 100, 129):
        sol = solve_direct(baseF.leading(N))
        errF[N] = (F1 - lift(sol, four)).norm()
    recL = evaluate(
        VOLTERRA, G1, solve_direct(compress(VOLTERRA, leg, leg, 100, G1)), leg, leg,
        f_exact=F1,
    )
    ratio = errF[100] / max(recL.err_norm, 1e-300)
    paired = [errF[N] for N in (9, 17, 33, 65, 129)]
    monotone = all(b < a for a, b in zip(paired, paired[1:]))
    check(
        f"criterion 4: basis contrast (ratio {ratio:.2e} >= 1e6, Fourier error "
        f"monotone over paired sizes: {monotone})",
        ratio >= 1e6 and monotone,
    )


def test_criterion_5_gmres_second_problem():
    """GMRES reaches 1e-10 within 50 steps with non-increasing residuals."""
    sols, _ = solve_gmres(MULT, G2, 50, tol=1e-10)
    res = [s.eps_norm for s in sols]
    monotone = all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(res, res[1:]))
    check(
        f"criterion 5: gmres hits {res[-1]:.2e} in {len(res)} steps, "
        f"monotone residuals: {monotone}",
        res[-1] <= 1e-10 and len(res) <= 50 and monotone,
    )


def test_criterion_6_cg_contraction_and_energy():
    """CG on the [1,2] multiplication operator contracts the error by
    <= 0.2 per step on average over iterations 5..15 (condition number 2
    gives the 0.172 bound) and never increases the energy functional."""
    sols, _ = solve_cg(MULT, G2, 16)
    errs = [(F2 - s.element).norm() for s in sols]
    factor = (errs[14] / errs[4]) ** (1.0 / 10.0)

    def phi(h):
        return inner(h, MULT.apply(h)).real - 2.0 * inner(h, G2).real

    vals = [phi(s.element) for s in sols]
    energy_ok = all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))
    check(
        f"criterion 6: cg contraction {factor:.4f} <= 0.2, energy "
        f"non-increasing: {energy_ok}",
        factor <= 0.2 and energy_ok,
    )


def test_criterion_7_adversarial_truncations_singular():
    """The constructed test family makes every truncation singular."""
    leg = legendre_basis((0.0, 1.0))
    adv = adversarial_test_basis(VOLTERRA, leg, 20)
    base = compress(VOLTERRA, leg, adv, 20, G1)
    worst = 0.0
    for N in range(1, 21):
        worst = max(worst, float(singular_values(base.leading(N).A_N)[-1]))
    check(
        f"criterion 7: adversarial sigma_min <= 1e-10 for all N <= 20 "
        f"(worst {worst:.2e})",
        worst <= 1e-10,
    )


def test_criterion_8_exact_coefficients_asymptotic_defect():
    """In the Fourier pair the truncated exact-solution coefficients solve
    the truncated problem asymptotically: defect(200) <= 1e-3 and at most
    half of defect(25)."""
    four = fourier_basis((0.0, 1.0))
    base = compress(VOLTERRA, four, four, 200, G1)
    defect = {}
    for N in (25, 200):
        fN = np.array([inner(four.element(n), F1) for n in range(1, N + 1)])
        defect[N] = float(
            np.linalg.norm(base.leading(N).A_N @ fN - base.leading(N).g_N)
        )
    check(
        f"criterion 8: defect(200) = {defect[200]:.2e} <= 1e-3 and <= half "
        f"of defect(25) = {defect[25]:.2e}",
        defect[200] <= 1e-3 and defect[200] <= 0.5 * defect[25],
    )


def test_criterion_9_noise_model():
    """Spectral noise: pipeline equals closed forms to 1e-10; residual
    plateaus at the noise norm; scaled-noise error semiconverges; alpha
    grows like log N."""
    model = NoiseModel(
        sigma_law=power_law(1.0, 1.0),
        g_law=power_law(1.0, 2.0),
        nu_law=power_law(1.0, 1.5),
    )
    op = WeightedRightShift(power_law(1.0, 1.0))
    disc = noisy_pipeline_check(op, model, 40, tail_window=80)
    series = noise_series(model, 2000)
    plateau_dev = abs(series.res_sq[-1] - ZETA3) / ZETA3
    scaled = noise_series(
        NoiseModel(
            sigma_law=power_law(1.0, 1.0),
            g_law=power_law(1.0, 2.0),
            nu_law=power_law(0.4, 1.5),
        ),
        60,
    )
    diffs = np.diff(scaled.err_sq)
    interior = 1 <= scaled.n_min < 60
    shape = interior and np.all(diffs[: scaled.n_min] < 0) and np.all(
        diffs[scaled.n_min :] > 0
    )
    big = noise_series(model, 10_000)
    ratio = big.alpha[-1] / math.log(10_000.0)
    check(
        f"criterion 9: pipeline discrepancy {disc:.2e} <= 1e-10; residual "
        f"plateau dev {plateau_dev:.2%} <= 2%; semiconvergent minimum at "
        f"N={scaled.n_min}; alpha/log N = {ratio:.3f} in [0.9, 1.2]",
        disc <= 1e-10 and plateau_dev <= 0.02 and shape and 0.9 <= ratio <= 1.2,
    )


def test_criterion_10_shift_weak_residual():
    """The e_N family for the zero-datum shift problem keeps residual norm
    exactly one while every tracked component dies; classified
    weak-not-strong."""
    op = RightShift()
    basis = canonical_basis()
    base = compress(op, basis, basis, 100, Seq.zero())
    records = []
    res_exact = True
    comps_ok = True
    for N in range(1, 101):
        sol = solve_direct(base.leading(N), family="kernel-unit")
        rec = evaluate(op, Seq.zero(), sol, basis, basis, f_exact=Seq.zero())
        records.append(rec)
        res_exact = res_exact and rec.res_norm == 1.0
        for n, _, res_c in rec.tracked_components:
            if N > n and abs(res_c) != 0.0:
                comps_ok = False
    verdict = classify(records, "residual")
    check(
        f"criterion 10: residual norm pinned at one ({res_exact}), components "
        f"vanish ({comps_ok}), classified {verdict.label}",
        res_exact and comps_ok and verdict.label == "weak-not-strong",
    )


def test_criterion_11_solver_equivalence_oracles():
    """GMRES equals direct least squares over the same Krylov space to
    1e-10 (both model problems, every computed step up to 30); CG iterates
    match the dense variational minimizer to 1e-8 up to step 15."""
    worst_gmres = 0.0
    for op, g in ((VOLTERRA, G1), (MULT, G2)):
        sols, kb = solve_gmres(op, g, 30, tol=0.0)
        assert len(sols) >= 12
        frame = []
        resid = g
        for sol in sols:
            n = sol.iterations
            if n > kb.size:
                break
            w = op.apply(kb.element(n))
            pre = w.norm()
            for q in frame:
                w = w - inner(q, w) * q
            if w.norm() > 1e-12 * pre:
                q = (1.0 / w.norm()) * w
                frame.append(q)
                resid = resid - inner(q, resid) * q
            worst_gmres = max(worst_gmres, abs(resid.norm() - sol.eps_norm))

    worst_cg = 0.0
    sols, _ = solve_cg(MULT, G2, 15)
    kb = krylov_basis(MULT, G2, 15)
    for sol in sols:
        n = sol.iterations
        if n > kb.size:
            break
        Q = [kb.element(i) for i in range(1, n + 1)]
        T = np.array([[inner(qi, MULT.apply(qj)) for qj in Q] for qi in Q])
        rhs = np.array([inner(qi, G2) for qi in Q])
        y = np.linalg.solve(T, rhs)
        minimizer = None
        for yi, qi in zip(y, Q):
            term = yi * qi
            minimizer = term if minimizer is None else minimizer + term
        worst_cg = max(worst_cg, (sol.element - minimizer).norm())
    check(
        f"criterion 11: gmres vs direct least squares dev {worst_gmres:.2e} "
        f"<= 1e-10; cg vs variational minimizer dev {worst_cg:.2e} <= 1e-8",
        worst_gmres <= 1e-10 and worst_cg <= 1e-8,
    )
