"""Per-iteration solve traces, their CSV serialization, and the iteration driver.

A row holds the solver states before and after its iteration, and builds
its ``vectors`` and objective columns (``primal``, ``dual``, ``gap``) from
them on first read: no stopping rule reads them, so a solve whose caller
never does pays nothing for them.  Writing into a state's array in place
before that read changes the values read, and numpy floating-point warnings
from diverging iterates appear at read time (in ``write_csv``, say).
"""

import math
import numbers

import numpy as np

from .duality import duality_gap
from .linalg import _norm

__all__ = ["TraceRow", "SolveTrace", "CSV_COLUMNS", "drive"]

CSV_COLUMNS = (
    "k",
    "primal",
    "dual",
    "gap",
    "feas_residual",
    "zbar_norm",
    "dw_norm",
    "dw_sq_sum",
)


_NO_SCHEMA = (lambda prev, new: {}, None)  # no vectors, NaN objective


class TraceRow:
    """One iteration's record.  Scalar columns go to CSV; vectors stay in memory.

    ``schema`` is the run's pair of functions of the states ``(prev, new)``
    before and after the iteration: ``vectors`` names the row's arrays and
    ``objective`` (``None``: NaN, NaN) returns ``(primal, dual)``.  Each is
    called on first read and its result kept (``vectors=`` presets it).
    """

    __slots__ = ("k", "feas_residual", "zbar_norm", "dw_norm", "dw_sq_sum",
                 "prev", "new", "_schema", "_vectors", "_primal", "_dual",
                 "_gap")

    def __init__(self, k, feas_residual=np.nan, zbar_norm=np.nan,
                 dw_norm=np.nan, dw_sq_sum=np.nan, vectors=None, prev=None,
                 new=None, schema=_NO_SCHEMA):
        self.k = k
        self.feas_residual = feas_residual
        self.zbar_norm = zbar_norm
        self.dw_norm = dw_norm
        self.dw_sq_sum = dw_sq_sum
        self.prev = prev
        self.new = new
        self._schema = schema
        self._vectors = vectors
        self._gap = None

    @property
    def vectors(self):
        if self._vectors is None:
            self._vectors = self._schema[0](self.prev, self.new)
        return self._vectors

    def _objective(self, slot):
        if self._gap is None:  # first read: one call of the objective
            objective = self._schema[1]
            self._primal, self._dual = ((np.nan, np.nan) if objective is None
                                        else objective(self.prev, self.new))
            self._gap = duality_gap(self._primal, self._dual)
        return getattr(self, slot)

    primal = property(lambda self: self._objective("_primal"))
    dual = property(lambda self: self._objective("_dual"))
    gap = property(lambda self: self._objective("_gap"))

    def scalars(self):
        return (self.k, self.primal, self.dual, self.gap, self.feas_residual,
                self.zbar_norm, self.dw_norm, self.dw_sq_sum)


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % value


class SolveTrace:
    """Append-only record of a solver run."""

    def __init__(self):
        self.rows = []
        self.converged = False
        self.nonfinite = False
        self.iterations = 0
        self.final = {}

    def append(self, row):
        self.rows.append(row)
        self.iterations = row.k

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def column(self, name):
        """All values of one scalar column as an array."""
        if name not in CSV_COLUMNS:
            raise ValueError("unknown trace column %r" % (name,))
        return np.array([getattr(row, name) for row in self.rows])

    def write_csv(self, path_or_file):
        """Write scalar columns; floats at 17 significant digits."""
        if hasattr(path_or_file, "write"):
            self._write(path_or_file)
        else:
            with open(path_or_file, "w") as fh:
                self._write(fh)

    def _write(self, fh):
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in self.rows:
            fh.write(",".join(_fmt(v) for v in row.scalars()) + "\n")


def drive(iterate, state, max_iters, tol, first_k):
    """Run ``iterate(state, k) -> (state, row, residuals)`` for k = 1, 2, ...

    Every solver's loop.  It stops converged at the first k >= first_k with
    max(residuals) <= tol, unconverged (``nonfinite`` set) as soon as a
    residual is NaN or infinite, and otherwise after ``max_iters``
    iterations.  For states with a ``w``, dw = ||w^{k+1} - w^k|| joins the
    residuals and fills the row's ``dw_norm`` and ``dw_sq_sum`` (the running
    sum of dw^2).  Returns the trace of all rows and the last state.
    """
    check_budget(max_iters, tol)
    trace = SolveTrace()
    dw_sq_sum = 0.0
    for k in range(1, max_iters + 1):
        new, row, residuals = iterate(state, k)
        if getattr(new, "w", None) is not None:
            dw = row.dw_norm = _norm(new.w - state.w)
            dw_sq_sum += dw * dw
            row.dw_sq_sum = dw_sq_sum
            residuals += (dw,)
        state = new
        trace.append(row)
        if stops(trace, residuals, k, first_k, tol):
            break
    return trace, state


def check_budget(max_iters, tol):
    """Reject a ``max_iters`` that is not an integer >= 1 or a ``tol`` that is
    not a number >= 0."""
    if isinstance(max_iters, bool) or not isinstance(max_iters, numbers.Integral):
        raise ValueError("max_iters must be an integer, got %r" % (max_iters,))
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1, got %r" % (max_iters,))
    if not tol >= 0.0:
        raise ValueError("tol must be a nonnegative number, got %r" % (tol,))


def stops(trace, residuals, k, first_k, tol):
    """``drive``'s stopping rule at iteration k: set the trace's ``nonfinite``
    or ``converged`` flag and return True, or return False to go on."""
    # checked first: max() silently drops a NaN after the first position
    if not all(map(math.isfinite, residuals)):
        trace.nonfinite = True
        return True
    if k >= first_k and max(residuals) <= tol:
        trace.converged = True
        return True
    return False
