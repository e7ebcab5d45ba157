"""Per-iteration solve traces, their CSV serialization, and the iteration driver.

A row's objective columns (``primal``, ``dual``, ``gap``) are computed on
first read, from the arrays the row holds, and cached: no stopping rule
reads them, so a solve whose caller never reads them does not pay for
them.  Writing into one of those arrays in place before the first read
changes the values read, and numpy floating-point warnings from diverging
iterates appear at read time (in ``write_csv``, say), not during the solve.
"""

import math

import numpy as np

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


class TraceRow:
    """One iteration's record.  Scalar columns go to CSV; vectors stay in memory.

    ``objective`` is ``(fn, *args)`` with ``fn(*args) -> (primal, dual)``,
    called once, on the first read of ``primal``, ``dual`` or ``gap``;
    without it both read NaN.
    """

    __slots__ = (
        "k",
        "_objective",  # (fn, *args) until first read, then (primal, dual, gap)
        "feas_residual",
        "zbar_norm",
        "dw_norm",
        "dw_sq_sum",
        "vectors",
    )

    def __init__(self, k, feas_residual=np.nan, zbar_norm=np.nan,
                 dw_norm=np.nan, dw_sq_sum=np.nan, vectors=None, objective=None):
        self.k = k
        self._objective = _NO_OBJECTIVE if objective is None else objective
        self.feas_residual = feas_residual
        self.zbar_norm = zbar_norm
        self.dw_norm = dw_norm
        self.dw_sq_sum = dw_sq_sum
        self.vectors = vectors or {}

    def _values(self):
        obj = self._objective
        if callable(obj[0]):
            obj = self._objective = _with_gap(*obj[0](*obj[1:]))
        return obj

    @property
    def primal(self):
        return self._values()[0]

    @property
    def dual(self):
        return self._values()[1]

    @property
    def gap(self):
        return self._values()[2]

    def scalars(self):
        return (self.k, self.primal, self.dual, self.gap, self.feas_residual,
                self.zbar_norm, self.dw_norm, self.dw_sq_sum)


def _with_gap(primal, dual):
    return (primal, dual,
            primal - dual if math.isfinite(primal) and math.isfinite(dual)
            else np.inf)


_NO_OBJECTIVE = _with_gap(np.nan, np.nan)


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
    iterations.  Returns the trace of all rows and the last state.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1, got %r" % (max_iters,))
    if not tol >= 0.0:
        raise ValueError("tol must be a nonnegative number, got %r" % (tol,))
    trace = SolveTrace()
    for k in range(1, max_iters + 1):
        state, row, residuals = iterate(state, k)
        trace.append(row)
        # checked first: max() silently drops a NaN after the first position
        if not all(map(math.isfinite, residuals)):
            trace.nonfinite = True
            break
        if k >= first_k and max(residuals) <= tol:
            trace.converged = True
            break
    return trace, state
