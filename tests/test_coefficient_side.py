"""The coefficient side of the ladder, read from ``CoeffVector``.

A vector owns its eigenvalues, its per-mode power |a_m|^2 + |b_m|^2 and the
power sums.  The references below rebuild each value from
``spectral.eigenvalues`` and the formulas the callers used to write out for
themselves; the library must reproduce them bit for bit.  The work counts
pin that one operation builds the eigenvalue array at most once per vector
and not at all when no eigenvalue is read.
"""

import contextlib
import io
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from semifourier import (
    DEFAULT_QUADRATURE,
    Branch,
    CoeffVector,
    Mode,
    SemiFourierError,
    SpectralConfig,
    TrigPolynomial,
    Verdict,
    catalog,
    leftdef_coeffs,
    leftdef_inner,
    membership_classify,
    parseval_defect,
    spectral,
    spectral_inner_r,
)
from semifourier.cli import main
from semifourier.expansion import _rescale, classical_coeffs
from semifourier.ladder import (
    FLOOR_REACH,
    INCONCLUSIVE_BAND,
    NOISE_FLOOR,
    PLATEAU_FRACTION,
    _boundary_defects,
)
from semifourier.quadrature import l2_inner
from semifourier.spectral import eigenvalues
from semifourier.verify import _trig_fixture

# the three verify configurations of the golden digests and one more
CONFIGS = [(0.0, math.pi, 1.0), (7.5, 10.3, 0.5), (-2.5, 0.75, 2.2), (3.3, 5.9, 0.3)]
SIZES = [32, 400, 100000]


def _bits(value) -> bytes:
    """The IEEE bytes of a float, a complex number or an array of them."""
    arr = np.asarray(value)
    return arr.dtype.str.encode() + arr.tobytes()


def _power(cv):
    return np.abs(cv.cos_coeffs) ** 2 + np.abs(cv.sin_coeffs) ** 2


def _inner_r_reference(cf, cg, r):
    lam = eigenvalues(cf.config, cf.size)
    cross = cf.cos_coeffs * np.conjugate(cg.cos_coeffs) + cf.sin_coeffs * np.conjugate(cg.sin_coeffs)
    return complex(np.sum(lam**r * cross))


_RANK = {Verdict.MEMBER: 2, Verdict.INCONCLUSIVE: 1, Verdict.NON_MEMBER: 0}


def _membership_reference(cf, n_max, f=None, spec=DEFAULT_QUADRATURE):
    """(slope, critical_r, verdicts) with eigenvalues and power rebuilt here."""
    N = cf.size
    j0 = _boundary_defects(f, n_max, cf.config, spec)[1] if f is not None else n_max
    lam, c2 = eigenvalues(cf.config, N), _power(cf)
    # fit the upper half of modes 1..M, M the last mode above the floor
    # relative to the L2 norm of the coefficients, unless c_M stands more
    # than FLOOR_REACH above that floor with modes after it
    floor = NOISE_FLOOR * math.sqrt(float(np.sum(c2)))
    above = np.sqrt(c2) > floor
    M = int(np.max(np.nonzero(above)[0], initial=-1)) + 1
    finite_support = M < N and M > 0 and math.sqrt(c2[M - 1]) > FLOOR_REACH * floor
    keep = (np.arange(N) + 1 > M // 2) & above
    if finite_support or np.count_nonzero(keep) < 2:
        slope, critical_r = math.nan, math.inf
    else:
        slope = float(np.polyfit(np.log(lam[keep]), np.log(c2[keep]), 1)[0])
        critical_r = -slope - 0.5
    verdicts, rank = {}, _RANK[Verdict.MEMBER]
    for n in range(1, n_max + 1):
        if n > j0:
            verdict = Verdict.NON_MEMBER
        elif math.isinf(critical_r):
            verdict = Verdict.MEMBER
        elif abs(n - critical_r) <= INCONCLUSIVE_BAND:
            verdict = Verdict.INCONCLUSIVE
        elif n > critical_r:
            verdict = Verdict.NON_MEMBER
        else:
            full = float(np.sum(lam[:N] ** n * c2[:N]))
            half = float(np.sum(lam[: N // 2] ** n * c2[: N // 2]))
            plateau = full <= 0.0 or (full - half) <= PLATEAU_FRACTION * full
            verdict = Verdict.MEMBER if plateau else Verdict.INCONCLUSIVE
        rank = min(rank, _RANK[verdict])
        verdicts[n] = next(v for v, q in _RANK.items() if q == rank)
    return slope, critical_r, verdicts


@pytest.fixture(scope="module", params=[(c, N) for c in CONFIGS for N in SIZES],
                ids=[f"{a}:{b}:{k}-N{N}" for a, b, k in CONFIGS for N in SIZES])
def vectors(request):
    (a, b, k), N = request.param
    cfg = SpectralConfig(a, b, k)
    rng = np.random.default_rng(N)
    noise = CoeffVector(cfg, rng.standard_normal(N) + 1j * rng.standard_normal(N),
                        rng.standard_normal(N) - 0.5j * rng.standard_normal(N))
    return {
        "cfg": cfg,
        "sawtooth": catalog.coeff_vector("sawtooth", N, cfg),
        "synthetic": catalog.coeff_vector("synthetic:3.5", N, cfg),
        "noise": noise,
    }


@pytest.mark.parametrize("r", [0.5, 1, 1.2, 2, 3])
def test_spectral_inner_r_bit_identical(vectors, r):
    saw, syn, noise = vectors["sawtooth"], vectors["synthetic"], vectors["noise"]
    for cf, cg in ((saw, saw), (syn, syn), (noise, noise), (noise, saw), (saw, noise)):
        assert _bits(spectral_inner_r(cf, cg, r)) == _bits(_inner_r_reference(cf, cg, r))


def test_power_sums_bit_identical(vectors):
    for cv in (vectors["sawtooth"], vectors["synthetic"], vectors["noise"]):
        lam, c2 = eigenvalues(cv.config, cv.size), _power(cv)
        assert _bits(cv.eigenvalues) == _bits(lam)
        assert _bits(cv.power) == _bits(c2)
        half = cv.size // 2
        assert _bits(cv.power_sum()) == _bits(float(np.sum(c2)))
        assert _bits(cv.power_sum(start=half)) == _bits(float(np.sum(c2[half:])))
        for r in (1, 2, 3):
            assert _bits(cv.power_sum(r)) == _bits(float(np.sum(lam**r * c2)))
            assert _bits(cv.power_sum(r, start=half)) == _bits(float(np.sum(lam[half:] ** r * c2[half:])))
            assert _bits(cv.power_sum(r, stop=half)) == _bits(float(np.sum(lam[:half] ** r * c2[:half])))


def test_membership_classify_bit_identical(vectors):
    cfg = vectors["cfg"]
    saw_handle = catalog.resolve("sawtooth").handle(cfg)
    cases = [(vectors["sawtooth"], None), (vectors["sawtooth"], saw_handle),
             (vectors["synthetic"], None), (vectors["noise"], None)]
    for cv, f in cases:
        rep = membership_classify(cv, 3, f=f)
        slope, critical_r, verdicts = _membership_reference(cv, 3, f)
        assert _bits(rep.decay_slope) == _bits(slope)
        assert _bits(rep.critical_r) == _bits(critical_r)
        assert rep.verdict_per_n == verdicts


def test_parseval_defect_bit_identical(vectors):
    cfg = vectors["cfg"]
    saw = catalog.resolve("sawtooth").handle(cfg)
    cv = vectors["sawtooth"]
    lam, c2 = eigenvalues(cfg, cv.size), _power(cv)
    assert _bits(parseval_defect(saw, cv)) == _bits(
        l2_inner(saw, saw, cfg).real - float(np.sum(np.ones(cv.size) * c2)))
    for n in (1, 2):
        norm_sq = leftdef_inner(saw, saw, n, cfg).real
        expected = norm_sq - float(np.sum(lam ** float(n) * c2))
        assert _bits(parseval_defect(saw, cv, n)) == _bits(expected)
        ladder = _rescale(cv, n)
        assert _bits(parseval_defect(saw, ladder, n)) == _bits(norm_sq - float(np.sum(_power(ladder))))
        with pytest.raises(SemiFourierError):
            parseval_defect(saw, ladder, 3 - n)


def test_rescale_bit_identical(vectors):
    cfg = vectors["cfg"]
    N = vectors["sawtooth"].size
    # classical_coeffs resolves only the first modes of a handle, and a trig
    # polynomial's tail is all zeros: the closed forms carry N = 1e5
    fs = [_trig_fixture(cfg), catalog.resolve("sawtooth").handle(cfg)] if N <= 400 else []
    classical = [classical_coeffs(f, N, cfg) for f in fs]
    for n in (1, 2, 3):
        factor = eigenvalues(cfg, N) ** (n / 2.0)
        for f, cv in zip(fs, classical):
            got = leftdef_coeffs(f, N, n, cfg, method="rescale")
            assert _bits(got.cos_coeffs) == _bits(factor * cv.cos_coeffs)
            assert _bits(got.sin_coeffs) == _bits(factor * cv.sin_coeffs)
        for cv in (vectors["sawtooth"], vectors["synthetic"]):
            got = _rescale(cv, n)
            assert _bits(got.cos_coeffs) == _bits(factor * cv.cos_coeffs)
            assert _bits(got.sin_coeffs) == _bits(factor * cv.sin_coeffs)


# ------------------------------------------------------- the fitted exponent

def _tail_share(lam, r, p):
    """Share of sum_m lambda_m**(r-p) that the upper half of the modes adds."""
    terms = lam ** (r - p)
    return float(np.sum(terms[terms.size // 2:]) / np.sum(terms))


@pytest.mark.parametrize("length", [math.pi, 0.1, 0.01])
@pytest.mark.parametrize("N", SIZES[1:] + [20000])
@pytest.mark.parametrize("p", [2.5, 3.5, 5.0])
def test_synthetic_critical_exponent_is_p_minus_half(p, N, length):
    # |c_m| = lambda_m**(-p/2) falls below 1e-14 long before mode N on short
    # intervals and at large N; the fit must still find p - 1/2.
    cfg = SpectralConfig(0.0, length, 1.0)
    report = membership_classify(catalog.coeff_vector(f"synthetic:{p}", N, cfg), 4)
    # independent oracle, as in criterion 9: the partial sums of
    # lambda_m**(r-p) settle just below p - 1/2 and keep growing just above
    lam = eigenvalues(cfg, N)
    assert _tail_share(lam, p - 0.75, p) < PLATEAU_FRACTION < _tail_share(lam, p - 0.25, p)
    assert abs(report.critical_r - (p - 0.5)) <= 0.1


@pytest.mark.parametrize("N", SIZES)
def test_critical_exponent_ignores_the_scale_of_the_coefficients(cfg, N):
    cv = catalog.coeff_vector("sawtooth", N, cfg)
    reports = [membership_classify(CoeffVector(cfg, s * cv.cos_coeffs, s * cv.sin_coeffs), 3)
               for s in (1e-12, 1.0, 1e12)]
    for rep in reports:
        assert abs(rep.critical_r - 1.5) <= 0.1
        assert rep.critical_r == pytest.approx(reports[1].critical_r, rel=1e-12)
        assert rep.verdict_per_n == reports[1].verdict_per_n
    single = membership_classify(catalog.coeff_vector("mode:5:sin", N, cfg), 3)
    assert math.isinf(single.critical_r)


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("modes", [(3, 5), (3, 20, 25), (40, 50, 60)])
@pytest.mark.parametrize("abk", CONFIGS)
def test_finitely_supported_coefficients_are_members_of_every_space(abk, modes, N):
    # a trig polynomial lies in every ladder space; its coefficients stop at
    # its last mode, far above the noise floor, and nothing is fitted
    cfg = SpectralConfig(*abk)
    terms = {Mode(m, Branch.SIN): 1.0 for m in modes} | {Mode(2, Branch.COS): 0.5j}
    cv = classical_coeffs(TrigPolynomial(cfg, terms), N, cfg)
    report = membership_classify(cv, 4)
    assert math.isinf(report.critical_r) and math.isnan(report.decay_slope)
    assert report.verdict_per_n == {n: Verdict.MEMBER for n in range(1, 5)}


# ------------------------------------------------------------------ ownership

def test_eigenvalues_and_power_built_once_and_read_only(cfg):
    cv = catalog.coeff_vector("sawtooth", 64, cfg)
    for name in ("eigenvalues", "power"):
        first = getattr(cv, name)
        assert getattr(cv, name) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0


def test_power_sum_without_eigenvalues_builds_none(cfg):
    cv = catalog.coeff_vector("sawtooth", 64, cfg)
    cv.power_sum()
    cv.power_sum(0, start=10)
    assert "eigenvalues" not in vars(cv)
    cv.power_sum(1)
    assert "eigenvalues" in vars(cv)


# ---------------------------------------------------------------- work counts

def _count_calls(monkeypatch, name: str) -> list:
    """Record each call of spectral.<name>, patched in every package module that holds it."""
    original = getattr(spectral, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key.startswith("semifourier") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_readme_example_squares_frequencies_at_most_twice(monkeypatch):
    # one pass for the sawtooth closed form, one for the vector's eigenvalues
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    calls = _count_calls(monkeypatch, "angular_frequencies")
    with contextlib.redirect_stdout(io.StringIO()):
        exec(example, {})
    assert 1 <= len(calls) <= 2


def test_converge_on_a_handle_builds_no_eigenvalues(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, "eigenvalues")
    assert main(["converge", "--function", "sawtooth", "--n", "1"]) == 0
    assert capsys.readouterr().out
    assert calls == []
