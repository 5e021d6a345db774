"""High-precision oracles for the oscillatory integrals and moments.

The oracle integrates x^p e^{iwx} by its power series in (iw), summed in
mpmath at a working precision far above the cancellation the series
suffers, and expands the orthonormal shifted Legendre polynomials into
monomials in the same precision.  Neither shares a branch with the
library's closed form.  At high frequency and degree a second oracle
takes the spherical Bessel functions from Miller's recurrence in mpmath
and the factors x as Jacobi steps in the same precision; the Fourier
transform of a Legendre polynomial it rests on is checked term by term
against the exact series of int t^n P_k(t) dt.  Mixed Legendre/Fourier
compressions are checked against a pointwise Gauss-Legendre rule, and a
noise tail with no closed form in the library against mpmath's Hurwitz
zeta.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from hilbtrunc.bases import fourier_basis, legendre_basis
from hilbtrunc import elements
from hilbtrunc.diagnostics import NoiseModel, evaluate, noise_series
from hilbtrunc.elements import Func, _moment_block, iosc, leg_osc_integral
from hilbtrunc.operators import MultiplicationX, Volterra, parse_law
from hilbtrunc.truncation import compress, solve_direct
from oracles import eval_at


def osc_moments(interval, w, pmax, dps):
    """[integral_a^b x^p e^{iwx} dx for p = 0..pmax] as mpmath numbers."""
    with mp.workdps(dps):
        a, b = mp.mpf(interval[0]), mp.mpf(interval[1])
        big = max(abs(a), abs(b))
        coef = [mp.mpf(1)]
        while len(coef) <= abs(w) * big or (
            abs(coef[-1]) * big ** (pmax + len(coef)) > mp.mpf(10) ** (5 - dps)
        ):
            coef.append(coef[-1] * mp.mpc(0, w) / len(coef))
        # mono[q] = integral_a^b x^q dx
        mono = [(b ** (q + 1) - a ** (q + 1)) / (q + 1) for q in range(pmax + len(coef))]
        return [mp.fdot(coef, mono[p:]) for p in range(pmax + 1)]


def legendre_monomials(interval, n, dps):
    """Monomial coefficients in x of the orthonormal shifted Legendre L_n."""
    with mp.workdps(dps):
        a, b = mp.mpf(interval[0]), mp.mpf(interval[1])
        prev, cur = [mp.mpf(0)], [mp.mpf(1)]  # P_{k-1}, P_k in t
        for k in range(n):
            nxt = [mp.mpf(0)] * (k + 2)
            for j, c in enumerate(cur):
                nxt[j + 1] += (2 * k + 1) * c / (k + 1)
            for j, c in enumerate(prev):
                nxt[j] -= k * c / (k + 1)
            prev, cur = cur, nxt
        alpha, beta = 2 / (b - a), -(a + b) / (b - a)  # t = alpha x + beta
        out = [mp.mpf(0)] * (n + 1)
        for j, c in enumerate(cur):
            for i in range(j + 1):
                out[i] += c * mp.binomial(j, i) * alpha ** i * beta ** (j - i)
        scale = mp.sqrt((2 * n + 1) / (b - a))
        return [c * scale for c in out]


def bessel_moments(interval, n, m, w, dps=40):
    """[int L_k x^m e^{iwx} for k = 0..n] as mpmath numbers.

    j_k(wh) (h the half-width, c the centre) comes from Miller's downward
    recurrence, started far enough past max(n + m, wh) that the seed is
    below the working precision and rescaled to the larger of the exact
    j_0 and j_1.  The m = 0 moments are sqrt((2k+1)(b-a)) i^k j_k(wh)
    e^{iwc}; each factor x is x L_k = c L_k + h (b_{k+1} L_{k+1} + b_k
    L_{k-1}), b_k = k / sqrt(4k^2 - 1), with no binomial expansion.
    """
    with mp.workdps(dps):
        a, b = mp.mpf(interval[0]), mp.mpf(interval[1])
        c, h = (a + b) / 2, (b - a) / 2
        z, top = abs(mp.mpf(w) * h), n + m
        start = int(max(top, z) + 30 * z ** (mp.mpf(1) / 3) + 50)
        j = [mp.mpf(0)] * (start + 2)
        j[0 if z == 0 else start] = mp.mpf(1)  # j_k(0) = 0 for k > 0
        for k in range(start, 0, -1) if z else ():
            j[k - 1] = (2 * k + 1) / z * j[k] - j[k + 1]
        exact = [mp.sin(z) / z, mp.sin(z) / z ** 2 - mp.cos(z) / z] if z else [1, 0]
        i = int(abs(exact[1]) > abs(exact[0]))
        scale = exact[i] / j[i]
        sign = 1 if w > 0 else -1  # j_k(-z) = (-1)^k j_k(z)
        mom = [
            mp.sqrt((2 * k + 1) * (b - a)) * (sign * mp.j) ** k * scale * j[k]
            * mp.expj(mp.mpf(w) * c)
            for k in range(top + 1)
        ]
        beta = [mp.mpf(k) / mp.sqrt(4 * k * k - 1) if k else mp.mpf(0) for k in range(top + 1)]
        for _ in range(m):
            mom = [
                c * mom[k] + h * (beta[k + 1] * mom[k + 1] + (beta[k] * mom[k - 1] if k else 0))
                for k in range(len(mom) - 1)
            ]
        return mom


def legendre_fourier_series(k, z, dps):
    """int_{-1}^{1} P_k(t) e^{izt} dt from int t^n P_k(t) dt = 2^{k+1} n!
    ((n+k)/2)! / (((n-k)/2)! (n+k+1)!) for n - k even: the power series
    of the integral, term by term, at a precision above its cancellation."""
    with mp.workdps(dps):
        z = mp.mpf(z)
        term = (mp.j * z) ** k * 2 ** (k + 1) * mp.factorial(k) / mp.factorial(2 * k + 1)
        total, s = mp.mpc(0), 0
        while s < z or abs(term) > mp.mpf(10) ** (-dps):
            total += term
            term *= -z * z * (k + s + 1) / ((s + 1) * (2 * k + 2 * s + 2) * (2 * k + 2 * s + 3))
            s += 1
        return total


def monomial_norm(interval, m):
    """||x^m|| in L2(interval)."""
    a, b = interval
    return math.sqrt((b ** (2 * m + 1) - a ** (2 * m + 1)) / (2 * m + 1))


IOSC_INTERVALS = [(0.0, 1.0), (1.0, 2.0), (0.5, 2.25), (-1.0, 1.0)]
IOSC_FREQS = [0.0, 0.1, 0.3, 0.49, 0.6, 1.0, 3.0, 2 * math.pi, 14 * math.pi, -30.0]


def test_series_oracle_matches_adaptive_quadrature():
    """The series oracle against mpmath's own adaptive quadrature."""
    for interval, p, w in [((0.5, 2.25), 9, -30.0), ((-1.0, 1.0), 1, 0.49)]:
        with mp.workdps(30):
            ref = mp.quad(
                lambda x: x ** p * mp.expj(w * x),
                mp.linspace(interval[0], interval[1], 9),
            )
            assert abs(osc_moments(interval, w, p, 60)[p] - ref) < 1e-25


@pytest.mark.parametrize("w", IOSC_FREQS)
@pytest.mark.parametrize("interval", IOSC_INTERVALS)
def test_iosc_against_oracle(interval, w):
    """Zero, small and large phases (w h from 0 to 22, below and above
    m) for m = 0..15, relative to sqrt(b-a) ||x^m||."""
    ref = osc_moments(interval, w, 15, 60)
    root = math.sqrt(interval[1] - interval[0])
    for m in range(16):
        err = abs(complex(ref[m]) - iosc(interval, m, w))
        assert err <= 1e-10 * root * monomial_norm(interval, m), (m, err)


@pytest.mark.parametrize("w", [1e-9, -1e-12])
@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.5, 2.25)])
def test_iosc_at_tiny_frequency(interval, w):
    """|w| h far below 1, where a downward Bessel recurrence seeded at the
    top order underflows, for m = 0..15, relative to sqrt(b-a) ||x^m||."""
    ref = osc_moments(interval, w, 15, 60)
    root = math.sqrt(interval[1] - interval[0])
    for m in range(16):
        err = abs(complex(ref[m]) - iosc(interval, m, w))
        assert err <= 1e-13 * root * monomial_norm(interval, m), (m, err)


@pytest.mark.parametrize("interval,m", [((1e4, 1e4 + 1e-3), 2), ((1000.0, 1000.001), 3)])
def test_iosc_zero_frequency_on_narrow_interval_far_out(interval, m):
    """b^{m+1} - a^{m+1} cancels on a narrow interval far from the origin;
    the Jacobi route does not."""
    with mp.workdps(50):
        a, b = mp.mpf(interval[0]), mp.mpf(interval[1])
        exact = (b ** (m + 1) - a ** (m + 1)) / (m + 1)
        assert abs(iosc(interval, m, 0.0) - exact) <= 1e-14 * abs(exact)


@pytest.mark.parametrize("w", [0.0, 3.0, -2 * math.pi, 30.0])
def test_iosc_far_from_origin_high_power(w):
    """x^20 e^{iwx} on [10, 11], where a binomial expansion about the
    centre would cancel, against mpmath's adaptive quadrature."""
    interval, m = (10.0, 11.0), 20
    with mp.workdps(30):
        ref = mp.quad(lambda x: x ** m * mp.expj(w * x), mp.linspace(10, 11, 9))
    err = abs(complex(ref) - iosc(interval, m, w))
    assert err <= 1e-13 * monomial_norm(interval, m), err


def test_iosc_odd_moment_on_symmetric_interval():
    """integral_{-1}^{1} x e^{iwx} = 2i (sin w - w cos w) / w^2 at a small
    phase, where the even terms of its power series vanish."""
    w = 0.49
    exact = 2j * (math.sin(w) - w * math.cos(w)) / w ** 2
    assert abs(iosc((-1.0, 1.0), 1, w) - exact) < 1e-15


LEG_DEGREES = list(range(9)) + [15, 40]


@pytest.mark.parametrize("w", [0.05, 1.0, 2 * math.pi, 14 * math.pi, -30.0])
@pytest.mark.parametrize("interval", [(0.0, 1.0), (1.0, 2.0), (0.5, 2.25)])
def test_leg_osc_integral_against_oracle(interval, w):
    """Moments of degrees 0..8, 15 and 40 (both sides of a block
    boundary), relative to ||x^m||."""
    dps = 100
    mono = {n: legendre_monomials(interval, n, dps) for n in LEG_DEGREES}
    moments = osc_moments(interval, w, 9 + max(LEG_DEGREES), dps)
    for m in (0, 1, 3, 9):
        got = leg_osc_integral(interval, max(LEG_DEGREES), m, w)
        for n in LEG_DEGREES:
            with mp.workdps(dps):
                ref = mp.fsum(c * moments[m + j] for j, c in enumerate(mono[n]))
            err = abs(complex(ref) - got[n])
            assert err <= 1e-12 * monomial_norm(interval, m), (n, m, err)


@pytest.mark.parametrize("w", [1e-9, -1e-12])
@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.5, 2.25)])
def test_leg_osc_integral_at_tiny_frequency(interval, w):
    """Degrees 0..8, 15 and 40 at |w| h far below 1, where a downward
    Bessel recurrence seeded at the top order underflows, relative to
    ||x^m||."""
    dps = 100
    mono = {n: legendre_monomials(interval, n, dps) for n in LEG_DEGREES}
    moments = osc_moments(interval, w, 9 + max(LEG_DEGREES), dps)
    for m in (0, 1, 3, 9):
        got = leg_osc_integral(interval, max(LEG_DEGREES), m, w)
        for n in LEG_DEGREES:
            with mp.workdps(dps):
                ref = mp.fsum(c * moments[m + j] for j, c in enumerate(mono[n]))
            err = abs(complex(ref) - got[n])
            assert err <= 1e-13 * monomial_norm(interval, m), (n, m, err)


HIGH_FREQUENCY = [((0.0, 1.0), 2 * math.pi * 500), ((0.75, 2.0), 2 * math.pi * 240)]


@pytest.mark.parametrize("interval,w", HIGH_FREQUENCY)
def test_leg_osc_integral_at_high_frequency(interval, w):
    """Every degree up to 1000 against the Miller/Jacobi oracle, for
    m = 0, 3 and 12, relative to ||x^m||."""
    for m in (0, 3, 12):
        ref = np.array([complex(v) for v in bessel_moments(interval, 1000, m, w)])
        err = np.max(np.abs(leg_osc_integral(interval, 1000, m, w) - ref))
        assert err <= 1e-13 * monomial_norm(interval, m), (m, err)


@pytest.mark.parametrize("interval,w", HIGH_FREQUENCY)
def test_legendre_fourier_transform_term_by_term(interval, w):
    """The identity under both the library and the Bessel oracle,
    int_{-1}^{1} P_k(t) e^{izt} dt = 2 i^k j_k(z), at degrees 0, 31, 32 and
    999 from the exact power series of the integral, against the m = 0
    moments: int L_k e^{iwx} dx = sqrt((2k+1)(b-a)) / 2 e^{iwc} times it."""
    a, b = interval
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    got = leg_osc_integral(interval, 999, 0, w)
    for k in (0, 31, 32, 999):
        ref = legendre_fourier_series(k, w * h, 40 + int(0.45 * w * h))
        ref = complex(ref) * math.sqrt((2 * k + 1) * (b - a)) / 2 * np.exp(1j * w * c)
        assert abs(got[k] - ref) <= 1e-13, (k, abs(got[k] - ref))


@pytest.mark.parametrize("w", [0.0, 3.0, -2 * math.pi])
def test_leg_osc_integral_far_from_origin_high_power(w):
    """x^20 on [10, 11]: binomial expansion about the centre would cancel;
    degrees 0..40 against the Jacobi steps in mpmath, relative to ||x^20||."""
    interval, m = (10.0, 11.0), 20
    ref = np.array([complex(v) for v in bessel_moments(interval, 40, m, w)])
    err = np.max(np.abs(leg_osc_integral(interval, 40, m, w) - ref))
    assert err <= 1e-13 * monomial_norm(interval, m), err


@pytest.mark.parametrize("m,w", [(0, 14 * math.pi), (3, -2.5)])
def test_moment_does_not_depend_on_requested_degree(m, w):
    """Each moment has one value, whatever maximum degree is asked for
    and whether or not the memo already holds it."""
    interval = (0.75, 2.0)
    _moment_block.cache_clear()
    full = leg_osc_integral(interval, 70, m, w).copy()
    assert full.shape == (71,)
    for k in (0, 5, 31, 32, 40):
        _moment_block.cache_clear()
        part = leg_osc_integral(interval, k, m, w)
        assert part.shape == (k + 1,)
        assert np.array_equal(part, full[: k + 1])


def test_memos_are_bounded():
    """The memos are bounded lru_caches; no module-level dict grows for
    the life of the process."""
    for memo in (_moment_block, elements._moment_map, iosc):
        assert memo.cache_info().maxsize is not None
    assert not [
        name for name, value in vars(elements).items()
        if isinstance(value, dict) and not name.startswith("__")
    ]


def test_moments_read_only():
    for n in (3, 40):
        with pytest.raises(ValueError):
            leg_osc_integral((0.0, 1.0), n, 1, 2.0)[0] = 0.0


def test_legendre_trial_fourier_test_residual():
    """mult-x on [0.75, 2] with a cubic datum, Legendre trial and Fourier
    test: A_N and g_N see the same moments, so the N = 28 residual sits
    at roundoff."""
    interval = (0.75, 2.0)
    op = MultiplicationX(interval)
    g = Func.from_poly(interval, [0.5, -1.25, 0.75, 0.5])
    trial, test = legendre_basis(interval), fourier_basis(interval)
    p = compress(op, trial, test, 28, g)
    rec = evaluate(op, g, solve_direct(p), trial, test)
    assert rec.res_norm <= 1e-11


@pytest.mark.parametrize("operator", [Volterra(), MultiplicationX((0.75, 2.0))])
@pytest.mark.parametrize("pair", ["legendre-fourier", "fourier-legendre"])
def test_mixed_compression_against_pointwise_quadrature(operator, pair):
    """Mixed Legendre/Fourier compressions at N = 40 against a 400-point
    Gauss-Legendre rule (numpy's, not the library's) applied to pointwise
    values of the basis elements and of the applied trial elements."""
    interval = operator.space[1]
    make = {"legendre": legendre_basis, "fourier": fourier_basis}
    trial, test = (make[name](interval) for name in pair.split("-"))
    N = 40
    A = compress(operator, trial, test, N, Func.zero(interval)).A_N
    x, w = np.polynomial.legendre.leggauss(400)
    a, b = interval
    x = 0.5 * (b - a) * x + 0.5 * (a + b)
    w = 0.5 * (b - a) * w
    V = np.array([eval_at(v, x) for v in test.elements(N)])
    AU = np.array([eval_at(operator.apply(u), x) for u in trial.elements(N)])
    oracle = (np.conj(V) * w) @ AU.T
    assert np.max(np.abs(A - oracle)) <= 1e-12 * np.max(np.abs(A))


def test_mixed_power_solution_tail_against_hurwitz_zeta():
    """g_n = n^-2 over sigma_n = (n+1)^-1 has no closed form in the library:
    its solution law f_n = (n+1)/n^2 goes through the generic tail, where
    sum_{n>N} f_n^2 = zeta(2,N+1) + 2 zeta(3,N+1) + zeta(4,N+1).  Warnings
    are errors here; the old quadrature bound warned and was 1.7 % off at
    N = 1000."""
    model = NoiseModel(
        sigma_law=parse_law("pow1:1,1"),
        g_law=parse_law("pow:1,2"),
        nu_law=parse_law("pow:1,1.5"),
    )
    series = noise_series(model, 1000)
    with mp.workdps(30):
        for N in (0, 50, 1000):
            exact = mp.zeta(2, N + 1) + 2 * mp.zeta(3, N + 1) + mp.zeta(4, N + 1)
            assert abs(series.beta[N] - exact) <= 1e-9 * exact
