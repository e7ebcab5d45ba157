"""Inertia/relaxation parameter region shared by all solvers.

The admissible region couples the inertia cap ``alpha`` with two auxiliary
constants ``sigma`` and ``delta``: ``delta`` must exceed a lower bound
depending on ``alpha`` and ``sigma``, and the relaxation factors are then
confined to ``(0, lambda_max]`` with ``lambda_max < 2``.
"""

import functools
import math

import numpy as np

from .linalg import FrozenRecord, Record, check_gamma

__all__ = [
    "InfeasibleParameters",
    "delta_lower_bound",
    "max_relaxation",
    "delta_roots",
    "Schedule",
    "constant_schedule",
    "ramp_schedule",
    "InertialParams",
    "Coefficients",
    "constant_params",
    "default_params",
    "ValidationReport",
    "validate",
    "require_valid",
]


class InfeasibleParameters(ValueError):
    """Inputs outside the admissible region; ``key`` names the one at fault."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


def delta_lower_bound(alpha, sigma):
    """Strict lower bound on delta: (alpha^2 (1+alpha) + alpha sigma) / (1 - alpha^2)."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0,1)")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    return (alpha**2 * (1.0 + alpha) + alpha * sigma) / (1.0 - alpha**2)


def max_relaxation(alpha, sigma, delta):
    """Upper bound for the relaxation factors lambda_k.

    Returns ``2 (delta - alpha [alpha(1+alpha) + alpha delta + sigma]) /
    (delta [1 + alpha(1+alpha) + alpha delta + sigma])``, which lies in
    (0, 2) whenever delta exceeds its lower bound.
    """
    lb = delta_lower_bound(alpha, sigma)
    if delta <= lb or delta <= 0.0:
        raise InfeasibleParameters(
            "delta=%g must exceed its lower bound %g (alpha=%g, sigma=%g)"
            % (delta, lb, alpha, sigma)
        )
    bracket = alpha * (1.0 + alpha) + alpha * delta + sigma
    return 2.0 * (delta - alpha * bracket) / (delta * (1.0 + bracket))


def delta_roots(target, alpha, sigma):
    """The two delta values at which max_relaxation/2 equals ``target``.

    ``target`` is the desired value of the bracketed ratio, in (0, 1).
    Feasibility requires
    ``target (1 + alpha(1+alpha) + sigma) + alpha^2
    + 2 alpha sqrt(target) sqrt(alpha(1+alpha) + sigma) < 1``.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target ratio must lie in (0,1)")
    if alpha <= 0.0 or sigma <= 0.0:
        raise ValueError("alpha and sigma must be positive")
    base = alpha * (1.0 + alpha) + sigma
    lhs = target * (1.0 + base) + alpha**2 + 2.0 * alpha * math.sqrt(target) * math.sqrt(base)
    if lhs >= 1.0:
        raise InfeasibleParameters(
            "no delta attains ratio %g for alpha=%g, sigma=%g" % (target, alpha, sigma)
        )
    b = 1.0 - alpha**2 - target * (1.0 + base)
    disc = b * b - 4.0 * target * alpha**2 * base
    if disc < 0.0:
        raise RuntimeError("negative discriminant despite feasible inputs")
    sq = math.sqrt(disc)
    # stable quadratic roots: avoid cancellation in b - sq
    d2 = (b + sq) / (2.0 * alpha * target)
    d1 = base / (target * d2)  # product of roots is base / target (per alpha)
    return d1, d2


class Schedule(FrozenRecord):
    """Closed-form per-iteration schedule: constant or a linear ramp."""

    _fields = ("kind", "value", "start", "ramp_over")

    def __init__(self, kind, value, start=0.0, ramp_over=1):  # kind: "constant" | "ramp"
        self.__dict__.update(kind=kind, value=value, start=start, ramp_over=ramp_over)

    def __call__(self, k):
        if self.kind == "constant":
            return self.value
        # linear ramp from `start` at k=1 up to `value` at k=ramp_over
        if k >= self.ramp_over:
            return self.value
        frac = (k - 1) / max(self.ramp_over - 1, 1)
        return self.start + frac * (self.value - self.start)


def constant_schedule(value):
    return Schedule("constant", float(value))


def ramp_schedule(value, start=0.0, over=10):
    return Schedule("ramp", float(value), float(start), int(over))


class InertialParams(FrozenRecord):
    """Step parameter, inertia cap, region constants, and schedules."""

    _fields = ("gamma", "alpha", "sigma", "delta", "lambda_lo", "alpha_schedule",
               "lambda_schedule", "init_mode")

    def __init__(self, gamma, alpha, sigma, delta, lambda_lo, alpha_schedule,
                 lambda_schedule, init_mode="lambda1_alpha1_zero"):  # or "alpha2_zero" / "raw"
        check_gamma(gamma)
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must lie in [0,1)")
        if init_mode not in ("alpha2_zero", "lambda1_alpha1_zero", "raw"):
            raise ValueError("unknown init_mode %r" % (init_mode,))
        self.__dict__.update(zip(self._fields, (gamma, alpha, sigma, delta, lambda_lo,
                                                alpha_schedule, lambda_schedule, init_mode)))

    def replace(self, **changes):
        """This parameter set with ``changes`` to its fields, checked as the
        constructor checks them."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def alpha_at(self, k):
        """Effective inertia factor at iteration k >= 1 (init mode applied)."""
        if self.init_mode == "lambda1_alpha1_zero" and k == 1:
            return 0.0
        if self.init_mode == "alpha2_zero" and k <= 2:
            return 0.0
        return self.alpha_schedule(k)

    def lambda_at(self, k):
        """Effective relaxation factor at iteration k >= 1 (init mode applied)."""
        if self.init_mode == "lambda1_alpha1_zero" and k == 1:
            return 0.0
        return self.lambda_schedule(k)

    def max_relaxation(self):
        return max_relaxation(self.alpha, self.sigma, self.delta)

    @functools.cached_property
    def coefficients(self):
        """This parameter set's ``Coefficients``, built on first read."""
        return Coefficients(self)


def _steady(p):
    """The k from which ``p.alpha_at`` and ``p.lambda_at`` are constant: the
    init modes end at k = 3, a closed-form ramp at its ``ramp_over``.  None
    for an ``InertialParams`` subclass or a schedule that is not a
    ``Schedule``, which may change at any k."""
    if type(p) is not InertialParams:
        return None
    schedules = (p.alpha_schedule, p.lambda_schedule)
    if any(type(s) is not Schedule for s in schedules):
        return None
    return max([3] + [s.ramp_over for s in schedules if s.kind == "ramp"])


class CoefficientRow(float):
    """Iteration k's scalars, see ``Coefficients``.  The row is itself the
    float gamma: ``step`` passes it to ``x_update`` as gamma, and the
    x-update reads its ``gamma`` array from it."""

    __slots__ = ("gamma", "inv_gamma", "alpha", "lam", "rest", "rest_alpha", "next_lam",
                 "zbar_drift", "arg_drift", "gamma_alpha", "still", "relaxed")


class Coefficients:
    """The scalars ``admm.step`` and its x-update read at iteration k.

    ``params`` is one parameter set, or a batch: the pair (a list of P sets
    sharing gamma, a width).  ``at(k)`` holds gamma as a 0-d array;
    alpha_k, lambda_k, 1 - lambda_k, (1 - lambda_k) alpha_k, alpha_{k+1}
    lambda_k, (1 - lambda_k) alpha_k alpha_{k+1} / gamma, (1 - lambda_k)
    alpha_k / gamma and gamma alpha_k as numpy arrays: 0-d for one set, and
    for a batch (P, width) arrays whose row i repeats point i's value
    (``admm.run_iadmm_batch`` chooses the width from its rows' length); and
    1 / gamma (the prox parameter) as a float.  Each is formed once, in the
    order of the formulas that read it.  numpy 2 multiplies a vector by a
    0-d float64 array in about two thirds of the time it takes for a Python
    float, whose weak-scalar conversion it pays on every product; the bits
    are the same.  Rows up to the k from which the schedules are constant
    are built on first read and kept (a batch, which reads each k once,
    keeps the last only); every later k reads the last.  Other schedules
    build a row per read, but one with the values of the last row built
    reads that row.  Each schedule is called once per k when rows are read
    in order: alpha_k is the alpha_{k+1} of the row read last.  A row is
    ``still`` when alpha_k and alpha_{k+1} are zero, and ``relaxed`` unless
    lambda_k = 1, on every row of the table, which a batch rebuilds on its
    live rows.
    """

    def __init__(self, params):
        self._batch = isinstance(params, tuple)
        self._params, self._width = params if self._batch else ([params], None)
        steady = [_steady(q) for q in self._params]
        self.steady = None if None in steady else max(steady)
        self._rows, self._gamma = {}, np.array(self._params[0].gamma, dtype=float)
        self._from, self._built = math.inf, (None, None)  # see at, _row
        self._next = None, None

    @property
    def coefficients(self):  # a batch's table stands in for its parameter sets
        return self

    def at(self, k):
        if k >= self._from:  # the steady k's row, once built
            return self._last
        if self.steady is None:
            return self._row(k)
        k = min(k, self.steady)
        row = self._rows.get(k)
        if row is None:
            row = self._row(k)
            if k == self.steady:
                self._from, self._last = k, row
            elif not self._batch:
                self._rows[k] = row
        return row

    def _row(self, k):
        params = self._params
        after, alpha = self._next  # (k + 1, alpha_{k+1}) of the row read last
        if self._batch:
            if after != k:
                alpha = [q.alpha_at(k) for q in params]
            alpha_next = [q.alpha_at(k + 1) for q in params]
            values = [*alpha, *alpha_next, *[q.lambda_at(k) for q in params]]
        else:  # the same reads on floats, without the comprehensions: the
            # callable-schedule row of tools/speed.py reads 1.10x its closed
            # form with this branch and 1.14x without it
            q = params[0]
            alpha_next = q.alpha_at(k + 1)
            values = [alpha if after == k else q.alpha_at(k), alpha_next,
                      q.lambda_at(k)]
        self._next = k + 1, alpha_next
        built, row = self._built  # the values and the row built last
        if values == built and (0.0 not in values or _same_signs(values, built)):
            return row
        alpha, alpha_next, lam = np.array(values, dtype=float).reshape(3, -1, 1)
        row = CoefficientRow(params[0].gamma)
        row.still = not (alpha.any() or alpha_next.any())
        row.inv_gamma = 1.0 / row
        row.gamma = gamma = self._gamma  # one array for every k
        rest = 1.0 - lam
        row.relaxed = bool(rest.any())
        rest_alpha = rest * alpha
        for name, value in (("alpha", alpha), ("lam", lam), ("rest", rest),
                            ("rest_alpha", rest_alpha),
                            ("next_lam", alpha_next * lam),
                            ("zbar_drift", rest_alpha * alpha_next / gamma),
                            ("arg_drift", rest_alpha / gamma),
                            ("gamma_alpha", gamma * alpha)):
            setattr(row, name, np.repeat(value, self._width, 1) if self._batch
                    else value.reshape(()))
        self._built = values, row
        return row


def _same_signs(a, b):
    """Whether no zero of the list a is signed unlike b's (0.0 == -0.0)."""
    return all(math.copysign(1.0, x) == math.copysign(1.0, y) for x, y in zip(a, b))


def _require(ok, key, message, *args):
    if not ok:
        raise InfeasibleParameters(message % args, key)


def _default_delta(lb):
    return 1.5 * lb if lb > 0.0 else 1.0


def constant_params(gamma, alpha, sigma, delta=None, lam=None,
                    init_mode="lambda1_alpha1_zero"):
    """Checked parameters with constant alpha_k = alpha and lambda_k = lam.

    delta defaults to 1.5x its lower bound (1.0 when the bound vanishes at
    alpha = 0) and lam to 0.9 lambda_max (1.0 at alpha = 0).  Raises
    ``InfeasibleParameters``, whose ``key`` is "gamma", "alpha", "sigma",
    "delta" or "lambda", for inputs outside the admissible region: gamma not
    positive and finite, alpha outside [0, 1), sigma not positive, a delta
    lower bound that overflows, delta at or below that bound, lambda_max
    outside (0, 2] and lam, defaulted or not, outside (0, lambda_max].
    """
    _require(0.0 < gamma < math.inf, "gamma",
             "gamma must be positive and finite, got %r", gamma)
    _require(0.0 <= alpha < 1.0, "alpha", "alpha must lie in [0,1)")
    _require(sigma > 0.0, "sigma", "sigma must be positive")
    lb = delta_lower_bound(alpha, sigma)
    _require(math.isfinite(lb), "sigma",
             "sigma too large: the delta lower bound overflows")
    if delta is None:
        delta = _default_delta(lb)
    _require(delta > lb, "delta", "delta must exceed its lower bound %g", lb)
    lam_max = max_relaxation(alpha, sigma, delta)
    # a huge sigma or delta over- or underflows lambda_max to inf, nan or 0
    _require(0.0 < lam_max <= 2.0, "delta",
             "alpha, sigma and delta leave no admissible lambda (lambda_max = %g)",
             lam_max)
    if lam is None:
        lam = 0.9 * lam_max if alpha > 0.0 else 1.0
    _require(0.0 < lam <= lam_max, "lambda", "lambda must lie in (0, %g]", lam_max)
    return InertialParams(
        gamma=gamma,
        alpha=alpha,
        sigma=sigma,
        delta=delta,
        lambda_lo=min(lam, 1e-6),
        alpha_schedule=constant_schedule(alpha),
        lambda_schedule=constant_schedule(lam),
        init_mode=init_mode,
    )


def default_params(alpha, gamma=1.0, sigma=0.01):
    """Preset sitting strictly inside the admissible region.

    delta is 1.5x its lower bound (or 1.0 when the bound vanishes at
    alpha = 0), lambda_k is 0.9 times the admissible maximum
    (at alpha = 0 too), and alpha_k is constant with the first iteration
    un-inertial.
    """
    delta = _default_delta(delta_lower_bound(alpha, sigma))
    return constant_params(gamma, alpha, sigma, delta,
                           0.9 * max_relaxation(alpha, sigma, delta))


class ValidationReport(Record):
    _fields = ("violations",)

    def __init__(self, violations=None):
        self.violations = [] if violations is None else violations

    @property
    def ok(self):
        return not self.violations

    def add(self, condition, index=None):
        self.violations.append((condition, index))

    def __str__(self):
        if self.ok:
            return "parameters valid"
        lines = ["parameter violations:"]
        for cond, idx in self.violations:
            where = "" if idx is None else " (first at k=%d)" % idx
            lines.append("  - %s%s" % (cond, where))
        return "\n".join(lines)


def validate(p, horizon=1000):
    """Check every region and schedule condition over iterations 1..horizon."""
    report = ValidationReport()
    lb = delta_lower_bound(p.alpha, p.sigma)
    if p.delta <= lb:
        report.add("delta must exceed its lower bound %g" % lb)
        return report
    lam_max = max_relaxation(p.alpha, p.sigma, p.delta)
    if not 0.0 < p.lambda_lo:
        report.add("lambda lower bound must be positive")

    # closed-form schedules are constant from _steady(p) on; any other
    # callable is walked in full
    steady = _steady(p)
    if steady is not None:
        horizon = min(horizon, steady + 1)
    prev_alpha = None
    for k in range(1, horizon + 1):
        a_k = p.alpha_at(k)
        l_k = p.lambda_at(k)
        if not 0.0 <= a_k <= p.alpha:
            report.add("alpha_k must lie in [0, alpha]", k)
            break
        if prev_alpha is not None and a_k < prev_alpha:
            report.add("alpha schedule must be nondecreasing", k)
            break
        prev_alpha = a_k
        if k >= 2 and not (p.lambda_lo <= l_k <= lam_max):
            report.add(
                "lambda_k must lie in [%g, %g]" % (p.lambda_lo, lam_max), k
            )
            break
        if k == 1 and l_k != 0.0 and not (p.lambda_lo <= l_k <= lam_max):
            report.add("lambda_1 must be 0 or lie in the admissible interval", k)

    alpha2 = p.alpha_at(2)
    if alpha2 != 0.0 and not (p.lambda_at(1) == 0.0 and p.alpha_at(1) == 0.0):
        report.add("either alpha_2 = 0 or lambda_1 = alpha_1 = 0 is required")
    return report


def require_valid(p):
    """``validate``, raising ValueError with the report when it fails.  A pass
    is kept on ``p``, as its ``coefficients`` are, so a set is walked once."""
    if not p.__dict__.get("_valid"):
        report = validate(p)
        if not report.ok:
            raise ValueError(str(report))
        p.__dict__["_valid"] = True
