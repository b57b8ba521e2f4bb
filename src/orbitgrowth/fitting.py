"""Growth-regime fitting and classification for Mertens series.

Four candidate regimes: k log N, k (log N)^delta, k (loglog N)^r, and
bounded.  Fits are ordinary least squares against {1, g(N)}: the exact
least-squares line of the float samples, rounded once, from integer sums
in the standard library.  A grid has a few dozen points, so the fits need
no arrays, and the commands that only fit load no array code.  The score
of a model is its sup-norm residual on the tail half of the grid (all the
asymptotics here have slowly decaying transients) times a penalty notch
per free parameter, with residuals below the rounding of the values
counted as that rounding.  Ties resolve to the slower-growing model.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ContractError

MODELS = ("bounded", "k_loglogr", "k_logdelta", "k_log")  # slow -> fast
PARAM_COUNT = {"bounded": 1, "k_log": 2, "k_logdelta": 3, "k_loglogr": 3}
PARAM_PENALTY = 3.0
MIN_SAMPLES = 8
MIN_DECADES = 3.0
LOGLOG_POWERS = (1, 2, 3)
GOLDEN_ITERS = 80


class FitReport(namedtuple("FitReport", "model k delta r constant residual n_samples")):
    """A fitted model; k, delta and r are None where the model has none."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "k": self.k,
            "delta": self.delta,
            "r": self.r,
            "residual": self.residual,
            "n_samples": self.n_samples,
        }


def _clean_samples(samples) -> tuple[list[float], list[float]]:
    """The grid points and values as floats, sorted by N."""
    pts = sorted((int(n), float(v)) for n, v in samples)
    ns = [float(n) for n, _ in pts]
    vs = [v for _, v in pts]
    if len(ns) != len(set(ns)):
        raise ContractError("asymptotics-fit: duplicate grid points")
    if not all(map(math.isfinite, vs)):
        raise ContractError("asymptotics-fit: non-finite sample value")
    return ns, vs


def _tail_sup(pred: list[float], vs: list[float]) -> float:
    half = len(vs) // 2
    return max(abs(p - v) for p, v in zip(pred[half:], vs[half:]))


def _linear_fit(g, vs) -> tuple[float, float, list[float]]:
    """(slope, intercept, prediction) of vs against {1, g}: the package's one
    least-squares routine, behind every model that fit_model fits.

    Each float is an integer times a power of two, so over a common power
    of two the normal equations are integer sums: with X = g 2^-ex and
    Y = vs 2^-ey,

        slope = (n Sxy - Sx Sy) / (n Sxx - Sx^2) 2^(ey - ex),
        intercept = (Sy Sxx - Sx Sxy) / (n Sxx - Sx^2) 2^ey,

    each one int division, which Python rounds correctly: both are the
    exact least-squares line of the floats given, rounded once.  Any float
    sequences will do, arrays included."""
    g = [float(x) for x in g]
    vs = [float(v) for v in vs]
    xs, ex = _common_scale(g)
    ys, ey = _common_scale(vs)
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    det = n * sxx - sx * sx
    slope = _scaled_ratio(n * sxy - sx * sy, det, ey - ex)
    intercept = _scaled_ratio(sy * sxx - sx * sxy, det, ey)
    return slope, intercept, [intercept + slope * x for x in g]


def _common_scale(values: list[float]) -> tuple[list[int], int]:
    """Integers X and an exponent e with values = X 2^e exactly."""
    ratios = [v.as_integer_ratio() for v in values]  # power-of-two dens
    bits = max(den.bit_length() for _, den in ratios)
    return [num << (bits - den.bit_length()) for num, den in ratios], 1 - bits


def _scaled_ratio(num: int, den: int, e: int) -> float:
    """num / den * 2^e, rounded once."""
    return (num << e) / den if e >= 0 else num / (den << -e)


def fit_model(
    samples,
    model: str,
    strict: bool = True,
) -> FitReport:
    """Least-squares fit of one regime; delta by golden section on
    [0.05, 1], r the best of LOGLOG_POWERS.

    Strict mode enforces the growth-model grid contract (>= 8 samples over
    >= 3 decades); the classifier relaxes it since it only compares
    candidates on a shared grid.
    """
    ns, vs = _clean_samples(samples)
    if model not in MODELS:
        raise ContractError(f"asymptotics-fit: unknown model {model!r}")
    if strict and model != "bounded":
        decades = math.log10(ns[-1] / ns[0]) if ns and ns[0] > 0 else 0.0
        if len(ns) < MIN_SAMPLES or decades < MIN_DECADES:
            raise ContractError(
                f"asymptotics-fit: growth fits need >= {MIN_SAMPLES} samples over "
                f">= {MIN_DECADES} decades; got {len(ns)} over {decades:.2f}"
            )
    return _fit(ns, vs, model)


def _fit(ns: list[float], vs: list[float], model: str) -> FitReport:
    """fit_model on samples already cleaned by _clean_samples."""
    n_samples = len(ns)
    if n_samples < 4:
        raise ContractError("asymptotics-fit: need at least 4 samples")

    if model == "bounded":
        tail = vs[n_samples // 2:]
        return FitReport(
            model="bounded", k=None, delta=None, r=None,
            constant=math.fsum(tail) / len(tail), residual=max(tail) - min(tail),
            n_samples=n_samples,
        )

    if model == "k_log":
        if ns[0] < 2:
            raise ContractError("asymptotics-fit: k_log needs N >= 2")
        k, c, pred = _linear_fit([math.log(n) for n in ns], vs)
        return FitReport(
            model="k_log", k=k, delta=None, r=None, constant=c,
            residual=_tail_sup(pred, vs), n_samples=n_samples,
        )

    if model == "k_logdelta":
        if ns[0] < 2:
            raise ContractError("asymptotics-fit: k_logdelta needs N >= 2")
        logn = [math.log(n) for n in ns]

        def l2_at(d: float) -> float:
            _, _, pred = _linear_fit([x**d for x in logn], vs)
            return math.fsum((p - v) ** 2 for p, v in zip(pred, vs))

        delta = _golden_section(l2_at, 0.05, 1.0)
        k, c, pred = _linear_fit([x**delta for x in logn], vs)
        return FitReport(
            model="k_logdelta", k=k, delta=delta, r=None, constant=c,
            residual=_tail_sup(pred, vs), n_samples=n_samples,
        )

    # k_loglogr
    if ns[0] < 3:
        raise ContractError("asymptotics-fit: k_loglogr needs N >= 3")
    loglogn = [math.log(math.log(n)) for n in ns]
    best = None
    for rr in LOGLOG_POWERS:
        k, c, pred = _linear_fit([x**rr for x in loglogn], vs)
        res = _tail_sup(pred, vs)
        if best is None or res < best[0]:
            best = (res, rr, k, c)
    res, rr, k, c = best
    return FitReport(
        model="k_loglogr", k=k, delta=None, r=rr, constant=c,
        residual=res, n_samples=n_samples,
    )


def _golden_section(f, lo: float, hi: float) -> float:
    """Deterministic golden-section minimizer on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def classify_growth(samples) -> FitReport:
    """Best of the four regimes by penalized tail residual.

    Score = tail sup residual * PARAM_PENALTY^(free parameters); ties go to the
    slower-growing model.  A residual below one ulp of the largest tail
    value is rounding, so it scores as that ulp: among fits exact to
    rounding, the one with fewer parameters wins.  Deterministic and
    invariant under permutation of the samples, which are cleaned and
    sorted once for all four fits.
    """
    ns, vs = _clean_samples(samples)
    if len(ns) < MIN_SAMPLES:
        raise ContractError(
            f"asymptotics-fit: classification needs >= {MIN_SAMPLES} samples"
        )
    rounding = math.ulp(max(abs(v) for v in vs[len(vs) // 2:]))
    best = None
    for model in MODELS:  # slow -> fast, so strict < keeps the slower on ties
        try:
            rep = _fit(ns, vs, model)
        except ContractError:
            continue
        score = max(rep.residual, rounding) * PARAM_PENALTY ** PARAM_COUNT[model]
        if best is None or score < best[0]:
            best = (score, rep)
    if best is None:
        raise ContractError("asymptotics-fit: no model applicable to this grid")
    return best[1]
