"""Per-iteration solve traces, their CSV serialization, and the iteration driver."""

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
    """One iteration's record.  Scalar columns go to CSV; vectors stay in memory."""

    __slots__ = (
        "k",
        "primal",
        "dual",
        "gap",
        "feas_residual",
        "zbar_norm",
        "dw_norm",
        "dw_sq_sum",
        "vectors",
    )

    def __init__(self, k, primal=np.nan, dual=np.nan, feas_residual=np.nan,
                 zbar_norm=np.nan, dw_norm=np.nan, dw_sq_sum=np.nan, vectors=None):
        self.k = k
        self.primal = primal
        self.dual = dual
        self.gap = (primal - dual if math.isfinite(primal) and math.isfinite(dual)
                    else np.inf)
        self.feas_residual = feas_residual
        self.zbar_norm = zbar_norm
        self.dw_norm = dw_norm
        self.dw_sq_sum = dw_sq_sum
        self.vectors = vectors or {}

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
        idx = CSV_COLUMNS.index(name)
        return np.array([row.scalars()[idx] for row in self.rows])

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
