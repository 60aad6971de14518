"""Reference checks for benchmark outputs, run outside the timed region.

Every check recomputes the expected numbers with numpy from the operation's
parameters and formulas in PAPER.md, never through the package:

- `verify`: exit code 0 and no failing row.
- closed-form outputs (spectrum, sawtooth and synthetic coefficients, norms
  and converge on coefficient-only entries): the eigenvalue formula and the
  closed-form coefficients.
- quadrature-route outputs (offset-cosine coefficients, direct ladder
  coefficients, handle norms and expansion errors): an independent composite
  Gauss-Legendre sum over the same rule (panels x nodes), with the basis and
  the catalog functions' derivatives written out here.

A check returns (ok, reason, diagnostics).  `truth_dev` in the diagnostics is
the deviation of quadrature coefficients from the closed form; it is
reported, not judged.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# The CLI's default rule; the benchmark never overrides it.
PANELS, NODES = 64, 10

# Tolerances, relative to the natural scale of each quantity.  Observed
# deviations stay below 1e-15 (closed form) and 2e-12 (same-rule quadrature,
# which differs here only in how the oscillatory factor is reduced).
CLOSED_RTOL = 1e-12
QUAD_RTOL = 1e-9
CRITICAL_R_ATOL = 1e-6


# ----------------------------------------------------------------- parsing

_NON_FINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}


def _number(value):
    if isinstance(value, str):
        return _NON_FINITE.get(value, value)
    if isinstance(value, dict) and set(value) == {"re", "im"}:
        return complex(_number(value["re"]), _number(value["im"]))
    return value


def parse_report(text: str, fmt: str) -> tuple[list[dict], dict | None]:
    """Rows (numbers as float/complex) and the summary (JSON only)."""
    if fmt == "json":
        doc = json.loads(text)
        rows = [{k: _number(v) for k, v in row.items()} for row in doc["rows"]]
        return rows, doc["summary"]
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row: dict = {}
        for key, cell in raw.items():
            if key.endswith("_re") or key.endswith("_im"):
                base = key[:-3]
                part = float(cell)
                prev = row.get(base, 0j)
                row[base] = prev + (part if key.endswith("_re") else 1j * part)
            else:
                try:
                    row[key] = float(cell)
                except ValueError:
                    row[key] = cell
        rows.append(row)
    return rows, None


def column(rows: list[dict], key: str) -> np.ndarray:
    return np.array([row[key] for row in rows])


# ---------------------------------------------------------------- formulas

def eigenvalues(cfg, N: int) -> np.ndarray:
    a, b, k = cfg
    m = np.arange(1, N + 1, dtype=float)
    return ((2 * m - 1) * np.pi / (b - a)) ** 2 + k


def omegas(cfg, N: int) -> np.ndarray:
    a, b, _ = cfg
    return (2 * np.arange(1, N + 1, dtype=float) - 1) * np.pi / (b - a)


def sawtooth_coeffs(cfg, N: int) -> tuple[np.ndarray, np.ndarray]:
    a, b, _ = cfg
    w = omegas(cfg, N)
    scale = -2.0 * np.sqrt(2.0 / (b - a)) / w**2
    return scale * np.cos(w * a), scale * np.sin(w * a)


def synthetic_coeffs(cfg, N: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    return eigenvalues(cfg, N) ** (-p / 2.0), np.zeros(N)


def _cos_derivative(d: int, t: np.ndarray) -> np.ndarray:
    """d-th derivative of cos at t."""
    return (np.cos(t), -np.sin(t), -np.cos(t), np.sin(t))[d % 4]


def handle_derivative(function: str, cfg, j: int, x: np.ndarray) -> np.ndarray:
    """j-th derivative of a pointwise catalog function on points x."""
    a, b, _ = cfg
    c = (a + b) / 2.0
    if function == "sawtooth":
        return x - c if j == 0 else np.full_like(x, 1.0 if j == 1 else 0.0)
    if function == "offset-cosine":  # Leibniz rule on cos(x) * (x - c)
        out = _cos_derivative(j, x) * (x - c)
        return out + j * _cos_derivative(j - 1, x) if j else out
    raise ValueError(function)


def basis_derivative(cfg, N: int, j: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, len(x)) tables of the j-th derivative of the cos and sin eigenfunctions."""
    a, b, _ = cfg
    w = omegas(cfg, N)
    t = np.outer(w, x)
    cos_t, sin_t = np.cos(t), np.sin(t)
    cycle_c = (cos_t, -sin_t, -cos_t, sin_t)[j % 4]
    cycle_s = (sin_t, cos_t, -sin_t, -cos_t)[j % 4]
    amp = (np.sqrt(2.0 / (b - a)) * w**j)[:, None]
    return amp * cycle_c, amp * cycle_s


def leggauss_rule(cfg) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights of the CLI's rule on [a, b]."""
    a, b, _ = cfg
    x, w = np.polynomial.legendre.leggauss(NODES)
    h = (b - a) / PANELS
    starts = a + h * np.arange(PANELS)
    nodes = (starts[:, None] + (x[None, :] + 1.0) * (h / 2.0)).ravel()
    return nodes, np.tile(w * (h / 2.0), PANELS)


def quad_coeffs(function: str, cfg, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Classical coefficients by the same-rule quadrature."""
    x, w = leggauss_rule(cfg)
    wf = w * handle_derivative(function, cfg, 0, x)
    zc, zs = basis_derivative(cfg, N, 0, x)
    return zc @ wf, zs @ wf


def ladder_weights(cfg, n: int) -> list[float]:
    k = cfg[2]
    return [math.comb(n, j) * k ** (n - j) for j in range(n + 1)]


def offset_cosine_truth(cfg, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact coefficients of cos(x) * (x - c) from product-to-sum identities."""
    a, b, _ = cfg
    c = (a + b) / 2.0
    gx, gw = np.polynomial.legendre.leggauss(40)
    gx = (b - a) / 2.0 * gx + (a + b) / 2.0
    gw = gw * (b - a) / 2.0

    def integrals(nu: float) -> tuple[float, float]:
        # integral over [a, b] of (x - c) cos(nu x) and of (x - c) sin(nu x)
        if abs(nu) < 1.0:  # low frequency: a 40-point rule is exact to rounding
            return float(gw @ ((gx - c) * np.cos(nu * gx))), float(gw @ ((gx - c) * np.sin(nu * gx)))
        def fc(x):
            return (x - c) * math.sin(nu * x) / nu + math.cos(nu * x) / nu**2
        def fs(x):
            return -(x - c) * math.cos(nu * x) / nu + math.sin(nu * x) / nu**2
        return fc(b) - fc(a), fs(b) - fs(a)

    amp = math.sqrt(2.0 / (b - a))
    ca, sb = np.empty(N), np.empty(N)
    for i, w in enumerate(omegas(cfg, N)):
        cm, sm = integrals(w - 1.0)
        cp, sp = integrals(w + 1.0)
        ca[i] = amp * 0.5 * (cm + cp)
        sb[i] = amp * 0.5 * (sp + sm)
    return ca, sb


def reference_coeffs(function: str, cfg, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients the catalog should produce: closed form or same-rule quadrature."""
    if function == "sawtooth":
        return sawtooth_coeffs(cfg, N)
    if function.startswith("synthetic:"):
        return synthetic_coeffs(cfg, N, float(function.split(":", 1)[1]))
    return quad_coeffs(function, cfg, N)


def _rel_dev(got, ref, scale) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(ref)) / scale))


def _checkpoints(limit: int) -> list[int]:
    out, m = [], 1
    while m < limit:
        out.append(m)
        m *= 2
    return out + [limit]


# ------------------------------------------------------------------ checks

def check_op(op, rc: int, result) -> tuple[bool, str, dict]:
    """Judge one operation; `result` is captured stdout, or the README tuple."""
    try:
        if op.kind == "readme":
            return _check_readme(op, result)
        if rc != 0:
            return False, f"exit code {rc}", {}
        rows, summary = parse_report(result, op.fmt)
        return _CHECKS[op.kind](op, rows, summary)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return False, f"unparseable output: {type(exc).__name__}: {exc}", {}


def _verdict(dev: float, tol: float, what: str, diag: dict | None = None):
    ok = bool(dev <= tol)  # NaN fails
    return ok, "" if ok else f"{what}: deviation {dev:.3e} > {tol:.1e}", diag or {}


def _check_verify(op, rows, summary):
    if summary["fail"] != 0 or summary["pass"] < 1 or len(rows) != summary["pass"]:
        return False, f"verify summary {summary}", {}
    return True, "", {}


def _check_spectrum(op, rows, summary):
    N = op.params["N"]
    if len(rows) != N:
        return False, f"{len(rows)} rows, expected {N}", {}
    lam = eigenvalues(op.cfg, N)
    if not np.array_equal(column(rows, "m"), np.arange(1, N + 1)):
        return False, "mode indices out of order", {}
    return _verdict(_rel_dev(column(rows, "eigenvalue"), lam, lam), CLOSED_RTOL, "eigenvalue")


def _check_coeffs(op, rows, summary):
    p, cfg = op.params, op.cfg
    N, fn, n = p["N"], p["function"], p.get("n")
    if len(rows) != N:
        return False, f"{len(rows)} rows, expected {N}", {}
    got_a, got_b = column(rows, "a"), column(rows, "b")
    if p.get("method") == "direct":
        x, w = leggauss_rule(cfg)
        lam = eigenvalues(cfg, N)
        ref_a, ref_b = np.zeros(N), np.zeros(N)
        for j, cj in enumerate(ladder_weights(cfg, n)):
            wf = cj * w * handle_derivative(fn, cfg, j, x)
            zc, zs = basis_derivative(cfg, N, j, x)
            ref_a += zc @ wf
            ref_b += zs @ wf
        ref_a, ref_b = ref_a * lam ** (-n / 2.0), ref_b * lam ** (-n / 2.0)
        scale = max(np.max(np.abs(ref_a)), np.max(np.abs(ref_b)))
        return _verdict(max(_rel_dev(got_a, ref_a, scale), _rel_dev(got_b, ref_b, scale)),
                        QUAD_RTOL, "direct ladder coefficients")
    ref_a, ref_b = reference_coeffs(fn, cfg, N)
    if n is not None:
        factor = eigenvalues(cfg, N) ** (n / 2.0)
        ref_a, ref_b = factor * ref_a, factor * ref_b
    diag = {}
    if fn == "offset-cosine":
        true_a, true_b = offset_cosine_truth(cfg, N)
        amp = np.hypot(true_a, true_b)
        diag["truth_dev"] = max(_rel_dev(got_a, true_a, amp), _rel_dev(got_b, true_b, amp))
        # |coefficient| <= max|f| * sqrt(2 (b - a)); judge against that bound per unit max|f|
        scale, tol = math.sqrt(2.0 * (cfg[1] - cfg[0])), QUAD_RTOL
    else:
        # closed forms: judge each mode against its own amplitude
        scale, tol = np.hypot(ref_a, ref_b), CLOSED_RTOL
    dev = max(_rel_dev(got_a, ref_a, scale), _rel_dev(got_b, ref_b, scale))
    return _verdict(dev, tol, f"{fn} coefficients", diag)


def _norm_ref(fn, cfg, n) -> float:
    x, w = leggauss_rule(cfg)
    total = sum(cj * float(w @ handle_derivative(fn, cfg, j, x) ** 2)
                for j, cj in enumerate(ladder_weights(cfg, n)))
    return math.sqrt(max(total, 0.0))


def _series_norm(cfg, ca, cb, weight) -> float:
    lam = eigenvalues(cfg, len(ca))
    return math.sqrt(max(float(np.sum(lam**weight * (ca**2 + cb**2))), 0.0))


def _check_norms(op, rows, summary):
    p, cfg = op.params, op.cfg
    fn = p["function"]
    N = p.get("N", 200)
    ca, cb = reference_coeffs(fn, cfg, N)
    if "r" in p:
        if len(rows) != 1 or rows[0]["method"] != "coefficient-series":
            return False, "unexpected norms rows", {}
        ref = _series_norm(cfg, ca, cb, p["r"])
        return _verdict(abs(rows[0]["value"] - ref) / ref, CLOSED_RTOL, "series norm")
    n = p["n"]
    if [r["method"] for r in rows] != ["definition-quadrature", "coefficient-series"]:
        return False, "unexpected norms rows", {}
    quad_ref = _norm_ref(fn, cfg, n)
    series_ref = _series_norm(cfg, ca, cb, n)
    dev = max(abs(rows[0]["value"] - quad_ref) / quad_ref,
              abs(rows[1]["value"] - series_ref) / series_ref)
    return _verdict(dev, QUAD_RTOL, "ladder norms")


def _check_converge(op, rows, summary):
    p, cfg = op.params, op.cfg
    fn, N, n = p["function"], p["N"], p.get("n")
    points = _checkpoints(N)
    if [int(r["M"]) for r in rows] != points:
        return False, "unexpected checkpoints", {}
    ca, cb = reference_coeffs(fn, cfg, N)
    if fn.startswith("synthetic:"):
        lam = eigenvalues(cfg, N)
        c2 = ca**2 + cb**2
        ref_l2 = [math.sqrt(float(np.sum(c2[M:]))) for M in points]
        ref_ln = [math.sqrt(float(np.sum(lam[M:] ** n * c2[M:]))) for M in points]
        scale_l2, scale_ln = ref_l2[0], ref_ln[0]
        tol = CLOSED_RTOL
    else:
        x, w = leggauss_rule(cfg)
        orders = range((n or 0) + 1)
        tables = [basis_derivative(cfg, N, j, x) for j in orders]
        fvals = [handle_derivative(fn, cfg, j, x) for j in orders]
        weights = ladder_weights(cfg, n) if n else []
        ref_l2, ref_ln = [], []
        for M in points:
            res = [fvals[j] - (ca[:M] @ tables[j][0][:M] + cb[:M] @ tables[j][1][:M]) for j in orders]
            ref_l2.append(math.sqrt(max(float(w @ res[0] ** 2), 0.0)))
            if n:
                sq = sum(cj * float(w @ res[j] ** 2) for j, cj in enumerate(weights))
                ref_ln.append(math.sqrt(max(sq, 0.0)))
        scale_l2 = _norm_ref(fn, cfg, 0)
        scale_ln = _norm_ref(fn, cfg, n) if n else 1.0
        tol = QUAD_RTOL
    # judge each error against itself or the function's norm, whichever is larger
    dev = _rel_dev(column(rows, "l2_error"), ref_l2, np.maximum(ref_l2, scale_l2))
    if n:
        dev = max(dev, _rel_dev(column(rows, "ladder_error"), ref_ln, np.maximum(ref_ln, scale_ln)))
    return _verdict(dev, tol, "expansion errors")


def _check_readme(op, result):
    cv, series, report = result
    cfg, N = op.cfg, op.params["N"]
    ref_a, ref_b = sawtooth_coeffs(cfg, N)
    amp = np.hypot(ref_a, ref_b)
    dev = max(_rel_dev(cv.cos_coeffs, ref_a, amp), _rel_dev(cv.sin_coeffs, ref_b, amp))
    if not dev <= CLOSED_RTOL:
        return False, f"README coefficients: deviation {dev:.3e}", {}
    lam = eigenvalues(cfg, N)
    ref_series = float(np.sum(lam * amp**2))
    if not abs(series.real - ref_series) <= CLOSED_RTOL * ref_series or series.imag != 0.0:
        return False, f"README series {series} != {ref_series}", {}
    upper = np.arange(1, N + 1) > N // 2
    slope = np.polyfit(np.log(lam[upper]), np.log(amp[upper] ** 2), 1)[0]
    if not abs(report.critical_r - (-slope - 0.5)) <= CRITICAL_R_ATOL:
        return False, f"README critical_r {report.critical_r} != {-slope - 0.5}", {}
    verdicts = {n: v.value for n, v in report.verdict_per_n.items()}
    if verdicts != {1: "member", 2: "non-member", 3: "non-member"}:
        return False, f"README verdicts {verdicts}", {}
    return True, "", {}


_CHECKS = {
    "verify": _check_verify,
    "spectrum": _check_spectrum,
    "coeffs": _check_coeffs,
    "norms": _check_norms,
    "converge": _check_converge,
}
