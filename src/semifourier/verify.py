"""Self-check suites wired to the ``verify`` subcommand.

Each suite re-runs one family of structural identities (orthonormality, the
eigenvalue formula, the fundamental coefficient relation, power sum
monotonicity, ...) at pinned tolerances and reports one row per check.  A
single failing row makes the whole run fail.
"""

from __future__ import annotations

import math

import numpy as np

from . import catalog
from .expansion import _expansion_errors, classical_coeffs, leftdef_coeffs, partial_sum
from .ladder import (
    Verdict,
    _ladder_scales,
    domain_indicator,
    fundamental_relation_defects,
    in_v_space,
    leftdef_inner,
    lower_bound_margin,
    membership_classify,
    mode_sequence,
    operator_matrix,
    spectral_inner_r,
)
from .quadrature import QuadratureSpec, _basis_side, _ladder_matrix, _wave_memo, integrate, l2_inner
from .report import Report
from .spectral import (
    Branch,
    Mode,
    SpectralConfig,
    TrigPolynomial,
    _basis_blocks,
    _derivative_wave,
    apply_ell_power,
    basis_polynomial,
    eigenvalue,
    eigenvalues,
)

__all__ = ["SUITES", "run_suites", "default_params"]

_RNG_SEED = 8191


def default_params() -> dict:
    return {"modes": 8, "n_max": 3, "trunc": 200, "samples": 25}


def _row(suite: str, check: str, observed: float, tolerance: float, passed: bool | None = None) -> dict:
    """One check; it passes when observed <= tolerance unless passed says otherwise."""
    observed, tolerance = float(observed), float(tolerance)
    passed = observed <= tolerance if passed is None else passed
    return {"suite": suite, "check": check, "observed": observed, "tolerance": tolerance,
            "passed": bool(passed)}


def _flag(suite: str, check: str, ok: bool) -> dict:
    """A yes/no check: observed 0 when it holds, 1 when it does not."""
    return _row(suite, check, 0.0 if ok else 1.0, 0.0, ok)


def _trig_fixture(cfg: SpectralConfig) -> TrigPolynomial:
    return TrigPolynomial(
        cfg,
        {
            Mode(1, Branch.COS): 0.7,
            Mode(2, Branch.SIN): 0.2 + 0.1j,
            Mode(4, Branch.SIN): -0.3,
            Mode(7, Branch.COS): 1.1,
        },
    )


def suite_eigenvalues(cfg, spec, params):
    modes = params["modes"]
    lam = eigenvalues(cfg, modes + 1).tolist()
    expected = [((2 * m - 1) * math.pi / (cfg.b - cfg.a)) ** 2 + cfg.k for m in range(1, modes + 2)]
    rel = max(abs(l - e) / e for l, e in zip(lam, expected))
    rows = [_row("eigenvalues", "closed-form", rel, 1e-15)]
    gap = min(b - a for a, b in zip(lam, lam[1:]))
    rows.append(_row("eigenvalues", "strictly-increasing", gap, 0.0, gap > 0.0))
    margin = min(lam) - cfg.k
    rows.append(_row("eigenvalues", "above-shift", margin, 0.0, margin > 0.0))
    return rows


def suite_basis_boundary(cfg, spec, params):
    # |z^(j)(a) + z^(j)(b)| for every basis function and order from one walk
    # of the waves at the two endpoints; boundary_antisymmetry_defect on
    # basis_polynomial gives the same bits, one evaluation per function and order
    worst = max(abs(sum(_derivative_wave(cfg, branch, *row, order).tolist()))
                for block in _basis_blocks(cfg, range(1, params["modes"] + 1), np.array([cfg.a, cfg.b]))
                for row in zip(*block) for branch in Branch for order in range(7))
    return [_row("basis-boundary", "antisymmetry-defect-orders-0-6", worst, 1e-12)]


def suite_quadrature(cfg, spec, params):
    rows = []
    # polynomial exactness at degree 2q - 1, on (x - a)^d: its integral
    # L^(d+1) / (d + 1) has no b^(d+1) - a^(d+1), which cancels far from the origin
    q = spec.nodes_per_panel
    length = cfg.b - cfg.a
    worst = 0.0
    for deg in (q, 2 * q - 2, 2 * q - 1):
        exact = length ** (deg + 1) / (deg + 1)
        got = integrate(lambda x, d=deg: (x - cfg.a) ** d, cfg, spec)
        scale = max(abs(exact), 1.0)
        worst = max(worst, abs(got - exact) / scale)
    rows.append(_row("quadrature", "polynomial-exactness", worst, 1e-12))

    # halving the panel width cuts the error by >= 10x until the noise floor.
    # The probe is u^d, d = 6, the first monomial the 3-node rule misses: its
    # sixth derivative is constant, so the Gauss-Legendre error term is exact
    # and each doubling divides the error by exactly 2^6 = 64, with no
    # pre-asymptotic step.  Rounding model: a node x = fl(a + t) is off by
    # about eps max(|a|, |b|), which moves the integral by that times
    # integral d u^(d-1) / L dx = 1, i.e. (d + 1) eps max(|a|, |b|) / L
    # relative to the exact L / (d + 1); evaluating u^d and summing add a few
    # eps relative, hence L inside the max.  A ratio counts only when its
    # later error clears 10x that model.
    errors = []
    for panels in (1, 2, 4, 8):
        low = QuadratureSpec(panels=panels, nodes_per_panel=3)
        val = integrate(lambda x: ((x - cfg.a) / length) ** 6, cfg, low)
        errors.append(abs(val - length / 7) / (length / 7))
    floor = 10 * 7 * np.finfo(float).eps * max(abs(cfg.a), abs(cfg.b), length) / length
    ratios = [before / after for before, after in zip(errors, errors[1:]) if after > floor]
    observed = min(ratios) if ratios else math.inf
    rows.append(_row("quadrature", "panel-doubling-gain", observed, 10.0, observed >= 10.0))

    # fixed-grid linearity
    f = basis_polynomial(cfg, Mode(2, Branch.COS))
    g = basis_polynomial(cfg, Mode(3, Branch.SIN))
    lhs = integrate(lambda x: 2.5 * np.asarray(f(x)) - 1.25 * np.asarray(g(x)), cfg, spec)
    rhs = 2.5 * integrate(f, cfg, spec) - 1.25 * integrate(g, cfg, spec)
    resid = abs(lhs - rhs)
    rows.append(_row("quadrature", "linearity", resid, 1e-13))

    # bit-stable repetition
    twice = integrate(f, cfg, spec)
    again = integrate(f, cfg, spec)
    rows.append(_flag("quadrature", "deterministic-repeat", twice == again))
    return rows


def _random_polynomials(cfg, count):
    rng = np.random.default_rng(_RNG_SEED)
    polys = []
    for _ in range(count):
        terms = {}
        for _ in range(int(rng.integers(1, 11))):
            mode = Mode(int(rng.integers(1, 13)), Branch.COS if rng.integers(2) else Branch.SIN)
            terms[mode] = complex(rng.standard_normal(), rng.standard_normal())
        polys.append(TrigPolynomial(cfg, terms))
    return polys


def suite_ell_power(cfg, spec, params):
    worst_pair = 0.0
    worst_diag = 0.0
    for i, poly in enumerate(_random_polynomials(cfg, params["samples"])):
        n = i % 5 + 1
        via_iter = apply_ell_power(poly, n, method="iterate")
        via_binom = apply_ell_power(poly, n, method="binomial")
        for mode in poly.modes():
            ci, cb = via_iter.coefficient(mode), via_binom.coefficient(mode)
            scale = max(abs(ci), abs(cb), 1e-300)
            worst_pair = max(worst_pair, abs(ci - cb) / scale)
            diag = eigenvalue(cfg, mode.m) ** n * poly.coefficient(mode)
            worst_diag = max(worst_diag, abs(ci - diag) / max(abs(diag), 1e-300))
    return [
        _row("ell-power", "binomial-vs-iterated", worst_pair, 1e-10),
        _row("ell-power", "diagonal-action", worst_diag, 1e-10),
    ]


def suite_orthonormality(cfg, spec, params):
    modes = mode_sequence(params["modes"])
    rows = []
    for n in (0, *range(1, min(params["n_max"], 4) + 1)):
        basis = _basis_side(modes, _ladder_scales(modes, n, cfg), cfg, spec)
        gram = _ladder_matrix(basis, basis, n, cfg, spec)
        worst = float(np.max(np.abs(gram - np.eye(len(modes)))))
        check = f"ladder-gram-quadrature-n{n}" if n else "l2-gram-quadrature"
        rows.append(_row("orthonormality", check, worst, 1e-8))
    return rows


def suite_fundamental_relation(cfg, spec, params):
    rows = []
    modes = mode_sequence(params["modes"])
    saw = catalog.resolve("sawtooth").handle(cfg)
    worst = 0.0
    for mode, d in zip(modes, fundamental_relation_defects(modes, saw, 1, cfg, spec).tolist()):
        worst = max(worst, d / eigenvalue(cfg, mode.m))
    rows.append(_row("fundamental-relation", "sawtooth-n1", worst, 1e-7))

    fixture = _trig_fixture(cfg)
    worst = 0.0
    for n in range(1, min(3, params["n_max"]) + 1):
        for mode, d in zip(modes, fundamental_relation_defects(modes, fixture, n, cfg, spec).tolist()):
            worst = max(worst, d / eigenvalue(cfg, mode.m) ** n)
    rows.append(_row("fundamental-relation", "trig-fixture", worst, 1e-7))
    return rows


def suite_rescale(cfg, spec, params):
    rows = []
    saw = catalog.resolve("sawtooth").handle(cfg)
    for label, f, n in (
        ("sawtooth-n1", saw, 1),
        ("trig-fixture-n2", _trig_fixture(cfg), min(2, params["n_max"])),
    ):
        modes = min(params["modes"], 12)
        direct = leftdef_coeffs(f, modes, n, cfg, spec, method="direct")
        rescaled = leftdef_coeffs(f, modes, n, cfg, spec, method="rescale")
        scale = max(np.max(np.abs(rescaled.cos_coeffs)), np.max(np.abs(rescaled.sin_coeffs)))
        worst = max(
            np.max(np.abs(direct.cos_coeffs - rescaled.cos_coeffs)),
            np.max(np.abs(direct.sin_coeffs - rescaled.sin_coeffs)),
        ) / max(scale, 1e-300)
        rows.append(_row("rescale", label, worst, 1e-7))
    return rows


def suite_lower_bound(cfg, spec, params):
    rows = []
    fixtures = [
        catalog.resolve("sawtooth").handle(cfg),
        catalog.resolve("offset-cosine").handle(cfg),
        _trig_fixture(cfg),
    ]
    worst = math.inf
    for f in fixtures:
        for n in range(1, min(4, params["n_max"] + 1) + 1):
            worst = min(worst, lower_bound_margin(f, n, cfg, spec))
    rows.append(_row("lower-bound", "margin-nonnegative", worst, -1e-8, worst >= -1e-8))
    return rows


def suite_diagonal_identity(cfg, spec, params):
    p = _trig_fixture(cfg)
    q = basis_polynomial(cfg, Mode(4, Branch.SIN)) + 0.5 * basis_polynomial(cfg, Mode(1, Branch.COS))
    worst = 0.0
    for n in range(1, min(5, params["n_max"] + 2) + 1):
        lhs = leftdef_inner(p, q, n, cfg)
        rhs = l2_inner(apply_ell_power(p, n), q, cfg)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return [_row("diagonal-identity", "ladder-vs-ell-power", worst, 1e-13)]


def suite_norm_ladder(cfg, spec, params):
    cf = catalog.coeff_vector("sawtooth", max(params["trunc"], 64), cfg, spec)
    worst = -math.inf
    for r, s in ((1, 2), (1, 3), (2, 3), (2, 4), (0.5, 1.5)):
        lhs = spectral_inner_r(cf, cf, r).real
        rhs = cfg.k ** (r - s) * spectral_inner_r(cf, cf, s).real
        worst = max(worst, (lhs - rhs) / max(abs(rhs), 1e-300))
    return [_row("norm-ladder", "power-sum-monotone", worst, 1e-12)]


def suite_operator_matrix(cfg, spec, params):
    rows = []
    N = min(params["modes"], 8)
    lam = np.repeat(eigenvalues(cfg, N), 2)
    for n in range(1, min(3, params["n_max"]) + 1):
        mat = operator_matrix(n, N, cfg, spec, force_quadrature=True)
        off = mat - np.diag(np.diag(mat))
        worst_off = float(np.max(np.abs(off)))
        worst_diag = float(np.max(np.abs(np.diag(mat) - lam)))
        rows.append(_row("operator-matrix", f"offdiag-quadrature-n{n}", worst_off, 1e-8))
        rows.append(_row("operator-matrix", f"diag-eigenvalues-n{n}", worst_diag, 1e-10))
    # each entry is lambda * (lambda * lambda**-1/2) * lambda**-1/2: five
    # roundings, at most about 2.5 eps lambda, so the tolerance scales with
    # the largest eigenvalue once 4 eps lambda_N passes 1e-12
    exact = operator_matrix(1, N, cfg, spec)
    resid = float(np.max(np.abs(exact - np.diag(lam))))
    tol = max(1e-12, 4 * np.finfo(float).eps * float(lam[-1]))
    rows.append(_row("operator-matrix", "exact-route-diagonal", resid, tol))
    return rows


def suite_parseval(cfg, spec, params):
    rows = []
    L = cfg.length
    saw_entry = catalog.resolve("sawtooth")
    saw = saw_entry.handle(cfg)
    norm_sq = l2_inner(saw, saw, cfg, spec).real
    exact = L**3 / 12.0
    err = abs(norm_sq - exact) / exact
    rows.append(_row("parseval", "l2-norm-closed-form", err, 1e-10))

    N = max(params["trunc"], 200)
    cv = catalog.coeff_vector(saw_entry, N, cfg, spec)
    defect = exact - cv.power_sum()
    rows.append(_row("parseval", "classical-tail", abs(defect), 1e-7))

    N1 = max(params["trunc"], 400)
    cv1 = catalog.coeff_vector(saw_entry, N1, cfg, spec)
    ladder_exact = L + cfg.k * L**3 / 12.0
    series = spectral_inner_r(cv1, cv1, 1).real
    tail = ladder_exact - series
    ok = 0.0 < tail < 5e-3 * ladder_exact
    rows.append(_row("parseval", "ladder-tail-positive", tail, 5e-3 * ladder_exact, ok))

    half = catalog.coeff_vector(saw_entry, N1 // 2, cfg, spec)
    tail_half = ladder_exact - spectral_inner_r(half, half, 1).real
    rows.append(_row("parseval", "ladder-tail-decreasing", tail, tail_half, 0.0 < tail < tail_half))
    return rows


def suite_bessel(cfg, spec, params):
    saw_entry = catalog.resolve("sawtooth")
    saw = saw_entry.handle(cfg)
    cv = catalog.coeff_vector(saw_entry, 64, cfg, spec)
    norm_sq = l2_inner(saw, saw, cfg, spec).real
    c2 = np.cumsum(cv.power)
    monotone = bool(np.all(np.diff(c2) >= 0.0))
    bounded = float(c2[-1]) <= norm_sq + 1e-10
    overshoot = float(c2[-1]) - norm_sq
    return [
        _flag("bessel", "partial-sums-monotone", monotone),
        _row("bessel", "bounded-by-norm", overshoot, 1e-10, bounded),
    ]


def suite_idempotence(cfg, spec, params):
    cv = classical_coeffs(_trig_fixture(cfg), 8, cfg, spec)
    back = classical_coeffs(partial_sum(cv, 8), 8, cfg, spec)
    same = bool(
        np.array_equal(cv.cos_coeffs, back.cos_coeffs)
        and np.array_equal(cv.sin_coeffs, back.sin_coeffs)
    )
    return [_flag("idempotence", "coeffs-of-partial-sum", same)]


def suite_error_tail(cfg, spec, params):
    rows = []
    L = cfg.length
    saw_entry = catalog.resolve("sawtooth")
    saw = saw_entry.handle(cfg)
    cv = catalog.coeff_vector(saw_entry, 64, cfg, spec)
    M = 10
    # exact infinite power sums of the closed-form coefficients
    total_l2 = L**3 / 12.0
    total_n1 = L + cfg.k * L**3 / 12.0
    tail_l2 = total_l2 - cv.power_sum(stop=M)
    tail_n1 = total_n1 - cv.power_sum(1, stop=M)
    [(err_l2, err_n1)] = _expansion_errors(saw, cv, [M], 1, spec)
    for label, err, tail in (("l2", err_l2, tail_l2), ("ladder-n1", err_n1, tail_n1)):
        resid = abs(err**2 - tail)
        tol = 2.0 * spec.abs_tol + 1e-12 * max(tail, 1.0)
        rows.append(_row("error-tail", f"duality-{label}", resid, tol))
    return rows


def suite_domains(cfg, spec, params):
    rows = []
    saw = catalog.resolve("sawtooth").handle(cfg)
    offset = catalog.resolve("offset-cosine").handle(cfg)
    # cos(x)(x - c) breaks anti-periodicity at order 0 except on intervals
    # where the endpoint values happen to cancel; assert the classifier
    # against the analytically expected verdict for this interval
    center = (cfg.a + cfg.b) / 2.0
    endpoint_sum = abs(math.cos(cfg.a) * (cfg.a - center)
                       + math.cos(cfg.b) * (cfg.b - center))
    offset_in_v1 = endpoint_sum <= 1e-10
    saw_domain = domain_indicator(saw, 0, cfg, spec)
    checks = [
        ("sawtooth-in-v1", in_v_space(saw, 1, cfg, spec), True),
        ("sawtooth-not-in-v2", in_v_space(saw, 2, cfg, spec), False),
        ("sawtooth-sqrt-domain", saw_domain.in_sqrt_domain, True),
        ("sawtooth-not-operator-domain", saw_domain.in_operator_domain, False),
        ("offset-cosine-v1-as-expected", in_v_space(offset, 1, cfg, spec), offset_in_v1),
    ]
    for m in (1, 5):
        z = basis_polynomial(cfg, Mode(m, Branch.COS))
        checks.append((f"mode{m}-in-v6", in_v_space(z, 6, cfg, spec), True))
        checks.append((f"mode{m}-operator-domain-n3", domain_indicator(z, 3, cfg, spec).in_operator_domain, True))
    for label, got, want in checks:
        rows.append(_flag("domains", label, got == want))
    return rows


def suite_ladder_fixtures(cfg, spec, params):
    rows = []
    saw_entry = catalog.resolve("sawtooth")
    N = max(params["trunc"], 400)
    cv = catalog.coeff_vector(saw_entry, N, cfg, spec)
    rep = membership_classify(cv, 2, f=saw_entry.handle(cfg), spec=spec)
    ok1 = rep.verdict_per_n[1] is Verdict.MEMBER
    ok2 = rep.verdict_per_n[2] is Verdict.NON_MEMBER
    rows.append(_flag("ladder-fixtures", "sawtooth-member-n1", ok1))
    rows.append(_flag("ladder-fixtures", "sawtooth-nonmember-n2", ok2))
    dev = abs(rep.critical_r - 1.5)
    rows.append(_row("ladder-fixtures", "sawtooth-critical-exponent", dev, 0.1))

    p = 3.5
    cv_syn = catalog.coeff_vector(f"synthetic:{p}", N, cfg, spec)
    rep_syn = membership_classify(cv_syn, 2, spec=spec)
    # density-corrected convergence threshold of sum lambda**(r-p): r = p - 1/2
    dev = abs(rep_syn.critical_r - (p - 0.5))
    rows.append(_row("ladder-fixtures", "synthetic-critical-exponent", dev, 0.1))

    cv_mode = catalog.coeff_vector("mode:5:sin", 64, cfg, spec)
    rep_mode = membership_classify(cv_mode, 4, spec=spec)
    all_member = all(v is Verdict.MEMBER for v in rep_mode.verdict_per_n.values())
    inf_ok = math.isinf(rep_mode.critical_r)
    rows.append(_flag("ladder-fixtures", "basis-member-every-n", all_member))
    rows.append(_flag("ladder-fixtures", "basis-critical-infinite", inf_ok))
    return rows


SUITES = {
    "eigenvalues": suite_eigenvalues,
    "basis-boundary": suite_basis_boundary,
    "quadrature": suite_quadrature,
    "ell-power": suite_ell_power,
    "orthonormality": suite_orthonormality,
    "fundamental-relation": suite_fundamental_relation,
    "rescale": suite_rescale,
    "lower-bound": suite_lower_bound,
    "diagonal-identity": suite_diagonal_identity,
    "norm-ladder": suite_norm_ladder,
    "operator-matrix": suite_operator_matrix,
    "parseval": suite_parseval,
    "bessel": suite_bessel,
    "idempotence": suite_idempotence,
    "error-tail": suite_error_tail,
    "domains": suite_domains,
    "ladder-fixtures": suite_ladder_fixtures,
}


def run_suites(names, cfg: SpectralConfig, spec: QuadratureSpec, params: dict | None = None) -> Report:
    merged = default_params()
    if params:
        merged.update({k: v for k, v in params.items() if v is not None})
    rows: list[dict] = []
    with _wave_memo():  # the suites evaluate the same modes on the same rule
        for name in names:
            if name not in SUITES:
                raise KeyError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
            rows.extend(SUITES[name](cfg, spec, merged))
    passed = sum(1 for r in rows if r["passed"])
    return Report(
        kind="verify",
        config=cfg,
        params={"suites": list(names), **{k: merged[k] for k in sorted(merged)}},
        rows=rows,
        summary={"pass": passed, "fail": len(rows) - passed},
    )
