"""Growth-regime fitting and classification for Mertens series.

Four candidate regimes: k log N, k (log N)^delta, k (loglog N)^r, and
bounded.  Fits are ordinary least squares against {1, g(N)}; the score of
a model is its sup-norm residual on the tail half of the grid (all the
asymptotics here have slowly decaying transients) times a penalty notch
per free parameter.  Ties resolve to the slower-growing model.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .arith import np
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


def _clean_samples(samples) -> tuple[np.ndarray, np.ndarray]:
    pts = sorted((int(n), float(v)) for n, v in samples)
    ns = np.array([n for n, _ in pts], dtype=np.float64)
    vs = np.array([v for _, v in pts], dtype=np.float64)
    if len(ns) != len(set(ns.tolist())):
        raise ContractError("asymptotics-fit: duplicate grid points")
    return ns, vs


def _tail_sup(pred: np.ndarray, vs: np.ndarray) -> float:
    half = len(vs) // 2
    return float(np.max(np.abs(pred[half:] - vs[half:])))


def _linear_fit(g: np.ndarray, vs: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(slope, intercept, prediction) of vs against {1, g}: the package's one
    least-squares routine, also behind mertens.squarefree_slope."""
    a = np.column_stack([np.ones_like(g), g])
    coef, *_ = np.linalg.lstsq(a, vs, rcond=None)
    pred = a @ coef
    return float(coef[1]), float(coef[0]), pred


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
    n_samples = len(ns)
    if model not in MODELS:
        raise ContractError(f"asymptotics-fit: unknown model {model!r}")
    if strict and model != "bounded":
        decades = math.log10(ns[-1] / ns[0]) if ns[0] > 0 else 0.0
        if n_samples < MIN_SAMPLES or decades < MIN_DECADES:
            raise ContractError(
                f"asymptotics-fit: growth fits need >= {MIN_SAMPLES} samples over "
                f">= {MIN_DECADES} decades; got {n_samples} over {decades:.2f}"
            )
    if n_samples < 4:
        raise ContractError("asymptotics-fit: need at least 4 samples")

    if model == "bounded":
        half = n_samples // 2
        tail = vs[half:]
        constant = float(np.mean(tail))
        residual = float(np.max(tail) - np.min(tail))
        return FitReport(
            model="bounded", k=None, delta=None, r=None,
            constant=constant, residual=residual, n_samples=n_samples,
        )

    if model == "k_log":
        if ns[0] < 2:
            raise ContractError("asymptotics-fit: k_log needs N >= 2")
        k, c, pred = _linear_fit(np.log(ns), vs)
        return FitReport(
            model="k_log", k=k, delta=None, r=None, constant=c,
            residual=_tail_sup(pred, vs), n_samples=n_samples,
        )

    if model == "k_logdelta":
        if ns[0] < 2:
            raise ContractError("asymptotics-fit: k_logdelta needs N >= 2")
        logn = np.log(ns)

        def l2_at(d: float) -> float:
            _, _, pred = _linear_fit(logn**d, vs)
            return float(np.sum((pred - vs) ** 2))

        delta = _golden_section(l2_at, 0.05, 1.0)
        k, c, pred = _linear_fit(logn**delta, vs)
        return FitReport(
            model="k_logdelta", k=k, delta=float(delta), r=None, constant=c,
            residual=_tail_sup(pred, vs), n_samples=n_samples,
        )

    # k_loglogr
    if ns[0] < 3:
        raise ContractError("asymptotics-fit: k_loglogr needs N >= 3")
    loglogn = np.log(np.log(ns))
    best = None
    for rr in LOGLOG_POWERS:
        k, c, pred = _linear_fit(loglogn**rr, vs)
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
    slower-growing model.  Deterministic and invariant under permutation of
    the samples (they are sorted internally).
    """
    ns, _ = _clean_samples(samples)
    if len(ns) < MIN_SAMPLES:
        raise ContractError(
            f"asymptotics-fit: classification needs >= {MIN_SAMPLES} samples"
        )
    best = None
    for model in MODELS:  # slow -> fast, so strict < keeps the slower on ties
        try:
            rep = fit_model(samples, model, strict=False)
        except ContractError:
            continue
        score = rep.residual * PARAM_PENALTY ** PARAM_COUNT[model]
        if best is None or score < best[0]:
            best = (score, rep)
    if best is None:
        raise ContractError("asymptotics-fit: no model applicable to this grid")
    return best[1]
