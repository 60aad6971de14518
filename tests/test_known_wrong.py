"""The ledger of known wrong answers: each case asserts a right value the package does not give yet.

Every case is a strict xfail named after the ROADMAP item that fixes it, so
the change that fixes one has to turn its xfail into a plain test, and an
accidental fix shows up as an unexpected pass.  The right values come from
judges outside ``src``: mpmath closed forms of the offset-cosine
coefficients and norm, the exact 0 of an orthogonal pair, the domain
theorem's verdicts for a trig polynomial, and verify's exit code.  Inputs
are fixed; nothing is drawn.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from semifourier import (
    Branch, FunctionHandle, InsufficientModesError, Mode, SpectralConfig, TrigPolynomial, Verdict,
    classical_coeffs, derivative_evaluator, leftdef_coeffs, membership_classify,
)
from semifourier import catalog
from semifourier.cli import main

VERIFY_CONFIGS = [(0.0, math.pi, 1.0), (7.5, 10.3, 0.5), (-2.5, 0.75, 2.2)]

# Digits carried by the mpmath judges.  The difference of cos(nu x) / nu**2
# at the endpoints cancels about 2 log10(1 / |nu|) digits; on (0, fl(pi)) the
# frequency nu = omega_1 - 1 = pi / fl(pi) - 1 is about 3.9e-17, so 33 of them.
_DPS = 60


def _report(capsys, argv):
    """(exit code, parsed JSON report) of one CLI run."""
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def _offset_cosine_truth(a, b, ms):
    """mpmath coefficients (a_m, b_m) of cos(x) (x - c) for m in ms, and its squared L2 norm.

    The basis is the package's: omega_m = (2m - 1) pi / L and sqrt(2 / L)
    with L = fl(b - a), on [a, b]; c is the handle's center fl(a + b) / 2.
    cos x cos(omega x) and cos x sin(omega x) split into waves of frequency
    omega - 1 and omega + 1, and (x - c) times a wave of frequency nu has
    the antiderivatives (x - c) sin(nu x)/nu + cos(nu x)/nu**2 and
    -(x - c) cos(nu x)/nu + sin(nu x)/nu**2.
    """
    with mp.workdps(_DPS):
        left, right, length = mp.mpf(a), mp.mpf(b), mp.mpf(b - a)
        c = mp.mpf((a + b) / 2.0)

        def integrals(nu):
            def fc(x):
                return (x - c) * mp.sin(nu * x) / nu + mp.cos(nu * x) / nu**2

            def fs(x):
                return -(x - c) * mp.cos(nu * x) / nu + mp.sin(nu * x) / nu**2

            return fc(right) - fc(left), fs(right) - fs(left)

        amp = mp.sqrt(2 / length)
        coeffs = []
        for m in ms:
            omega = (2 * m - 1) * mp.pi / length
            cm, sm = integrals(omega - 1)
            cp, sp = integrals(omega + 1)
            coeffs.append((amp * (cm + cp) / 2, amp * (sp + sm) / 2))

        def norm_antiderivative(x):
            # cos(x)**2 (x - c)**2 = ((x - c)**2 + (x - c)**2 cos 2x) / 2
            u = x - c
            return u**3 / 6 + (u**2 * mp.sin(2 * x) / 2 + u * mp.cos(2 * x) / 2 - mp.sin(2 * x) / 4) / 2

        return coeffs, norm_antiderivative(right) - norm_antiderivative(left)


@pytest.mark.xfail(strict=True, reason="items 12 and 4: converge reads the residual on a rule "
                                       "that cannot resolve mode 512 (0.0759 at M = 256, 2.0458 at M = 512)")
def test_converge_offset_cosine_reads_the_true_l2_error(capsys):
    code, report = _report(capsys, ["converge", "--function", "offset-cosine", "--N", "512"])
    assert code == 0
    got = {row["M"]: row["l2_error"] for row in report["rows"]}
    coeffs, norm_sq = _offset_cosine_truth(0.0, math.pi, range(1, 513))
    with mp.workdps(_DPS):
        for M in (256, 512):
            want = float(mp.sqrt(norm_sq - mp.fsum(x * x + y * y for x, y in coeffs[:M])))
            # the exact value is the root of a tail of about 6e-3 and 3e-3 that rounding
            # leaves good to about 1e-13 relative; 1e-10 leaves room for any exact route
            assert abs(got[M] - want) <= 1e-10 * want, (M, got[M], want)


@pytest.mark.parametrize("a,b,k", VERIFY_CONFIGS)
@pytest.mark.xfail(strict=True, reason="item 15: offset-cosine coefficients from the 64 x 10 rule "
                                       "drift from m = 77 (3.5e-4 at m = 200, 0.17 at m = 300)")
def test_offset_cosine_coefficients_match_mpmath(capsys, a, b, k):
    code, report = _report(capsys, ["coeffs", "--function", "offset-cosine", "--N", "512",
                                    "--a", repr(a), "--b", repr(b), "--k", repr(k)])
    assert code == 0
    rows = {row["m"]: row for row in report["rows"]}
    ms = (200, 300, 512)
    for m, (ta, tb) in zip(ms, _offset_cosine_truth(a, b, ms)[0]):
        ga, gb = rows[m]["a"]["re"], rows[m]["b"]["re"]
        rel = math.hypot(ga - float(ta), gb - float(tb)) / float(mp.hypot(ta, tb))
        assert rel <= 1e-12, (m, rel)


def _trig_handle(cfg):
    """z_{3,sin} + z_{5,sin} + 0.5i z_{2,cos} as a handle with derivatives 0..3."""
    p = TrigPolynomial(cfg, {Mode(3, Branch.SIN): 1.0, Mode(5, Branch.SIN): 1.0, Mode(2, Branch.COS): 0.5j})
    return FunctionHandle(tuple(derivative_evaluator(p, j) for j in range(4)))


@pytest.mark.parametrize("N", [64, 100])
@pytest.mark.xfail(strict=True, reason="item 3: the decay fit reads quadrature noise of a trig "
                                       "polynomial handle as decay (critical_r -6.29 at N = 64, -1.01 at N = 100)")
def test_trig_polynomial_handle_is_in_every_ladder_space(N):
    # a trig polynomial lies in every ladder space: every derivative is anti-periodic
    cfg = SpectralConfig(7.5, 10.3, 0.5)
    f = _trig_handle(cfg)
    report = membership_classify(classical_coeffs(f, N, cfg), 3, f)
    assert report.verdict_per_n == {1: Verdict.MEMBER, 2: Verdict.MEMBER, 3: Verdict.MEMBER}
    assert report.critical_r == math.inf


@pytest.mark.xfail(strict=True, reason="item 11: quadrature noise above the fixed floor is fitted "
                                       "as decay (critical_r -6.30 at N = 512)")
def test_offset_cosine_critical_exponent_is_one_half():
    # offset-cosine breaks anti-periodicity at order 0 on (0, pi), so its
    # coefficients decay like 1/m and critical_r = j0 + 1/2 = 1/2
    cfg = SpectralConfig(0.0, math.pi, 1.0)
    report = membership_classify(catalog.coeff_vector("offset-cosine", 512, cfg), 1)
    assert abs(report.critical_r - 0.5) <= 0.1, report.critical_r


@pytest.mark.parametrize("flags", [["--b", "0.001"], ["--a", "1e5", "--b", "100000.01"], ["--b", "50"]],
                         ids=["b=0.001", "a=1e5,b=100000.01", "b=50"])
@pytest.mark.xfail(strict=True, reason="items 20, 19 and 12: verify fails rows on admissible intervals "
                                       "(6, 12 and 1 rows)")
def test_verify_passes_on_every_admissible_interval(capsys, flags):
    code, report = _report(capsys, ["verify", "--N", "8"] + flags)
    assert code == 0, [(row["suite"], row["check"]) for row in report["rows"] if not row["passed"]]


@pytest.mark.xfail(strict=True, reason="item 4: the 640-node rule aliases mode 200000 onto mode 1 "
                                       "(a_1 = -109570.58 against the exact 0)")
def test_direct_ladder_coefficients_of_an_unresolved_mode():
    # coeffs --function mode:200000:cos --N 2 --n 1 --method direct
    cfg = SpectralConfig(0.0, math.pi, 1.0)
    f = catalog.resolve("mode:200000:cos").handle(cfg)
    try:
        cv = leftdef_coeffs(f, 2, 1, cfg, method="direct")
    except InsufficientModesError:
        return
    # z_{200000,cos} is orthogonal to modes 1 and 2 in every ladder inner product; one
    # ladder sum rounds to about eps * L * omega_200000 * sqrt(2 / L), near 1e-10
    values = np.concatenate([cv.cos_coeffs, cv.sin_coeffs])
    assert np.max(np.abs(values)) <= 1e-8, values
