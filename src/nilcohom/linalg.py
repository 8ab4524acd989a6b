"""Column-sparse exact matrices over the Gaussian integers and their rank.

Ranks are the only linear-algebra output the cohomology tables need, so the
module stays deliberately small: one matrix type with one product loop (for
del delbar and the differential identities), and one deterministic exact
elimination.

A vector is a column: a dict ``{row: (x, y)}`` of nonzero Gaussian integers
``x + y*i``.  A list of columns is the currency of the engine: ``exact_rank``
takes the row count and a list of columns, and ``ExactMatrix.apply`` maps a
list of columns to their images.  An :class:`ExactMatrix` is a built matrix
only (a structure's differential, a caller's matrix or a product), and
checks its shape once, when it is made.  ``exact_rank`` counts its pivot
columns by fraction-free (Bareiss) elimination.  It skips the arithmetic
that cannot change a pivot, so its pivots are the textbook step's, key for
key and in order (``reference_rank`` in ``tests/rank_oracle.py``).  Given the
pivot dict of an earlier elimination on the same rows, or a subset of it, it
resumes from it (the cohomology engine ranks blocks that share a target this
way) and leaves the pivot columns in it, a basis of the column span (which
is how the nilpotency check follows the lower central series).  ``vstack``
and ``hstack`` have no caller in the package; the benchmark's trace still
hooks them.

A matrix is stored by columns: column ``j`` is the image of source basis
vector ``j``.  That is how the engine produces a differential (one source
monomial at a time).  Zeros are never stored: 2.5% of the ranked entries are
nonzero over the 72 catalog rows, 65% over the 6d rows in a general coframe
(benchmark ``dense_coframe``, seed 7).

Entries are integral so that neither the elimination nor a product ever
takes a denominator.  A caller with Gaussian-rational entries clears them
once, as each structure does for its ``d`` by one common factor (see
:mod:`nilcohom.model`); a nonzero scale changes no rank or span.  The module
imports nothing from the rest of the package.
"""

from __future__ import annotations

from math import gcd


class ExactMatrix:
    """A rows x cols matrix of Gaussian integers ``(x, y)``, stored column by column.

    Matrices are immutable by convention, so results may share columns with
    their operands.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns=None):
        if columns is None:
            columns = [{} for _ in range(cols)]
        elif len(columns) != cols or any(
            col and (min(col) < 0 or max(col) >= rows) for col in columns
        ):
            raise ValueError("columns do not match the stated shape")
        self.rows = rows
        self.cols = cols
        self.columns = columns

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.columns == other.columns
        )

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} != {other.rows}")
        return ExactMatrix(self.rows, other.cols, self.apply(other.columns))

    def apply(self, columns: list) -> list:
        """The image of each column, a vector of the source space, as a column."""
        left = self.columns
        out = []
        for col in columns:
            acc = {}
            for k, (a, b) in col.items():
                for i, (x, y) in left[k].items():
                    re, im = a * x - b * y, a * y + b * x
                    cur = acc.get(i)
                    acc[i] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
            out.append({i: e for i, e in acc.items() if e[0] or e[1]})
        return out

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"


def vstack(top: ExactMatrix, bottom: ExactMatrix) -> ExactMatrix:
    """Stack vertically; the two blocks must act on the same source space."""
    if top.cols != bottom.cols:
        raise ValueError("column counts differ")
    shift = top.rows
    return ExactMatrix(
        top.rows + bottom.rows,
        top.cols,
        [{**a, **{shift + i: e for i, e in b.items()}}
         for a, b in zip(top.columns, bottom.columns)],
    )


def hstack(left: ExactMatrix, right: ExactMatrix) -> ExactMatrix:
    """Concatenate columns; the two blocks must share the target space."""
    if left.rows != right.rows:
        raise ValueError("row counts differ")
    return ExactMatrix(
        left.rows,
        left.cols + right.cols,
        left.columns + right.columns,
    )


def exact_rank(rows: int, columns: list, pivots: dict | None = None) -> int:
    """Rank over Q(i) of ``columns``, vectors with ``rows`` entries, by
    fraction-free elimination.

    rank M = rank M^T, so each column is reduced in turn against the pivot
    columns kept so far, all over the Gaussian integers: while a column's
    lowest row index ``r`` is the lead of a stored pivot ``p``, it becomes
    ``p[r] * v - v[r] * p`` (Bareiss-style cross-multiplication, no division
    in Q(i)), divided by the integer gcd of its entries.  A column left
    nonzero is a new pivot, led by its lowest row; every pivot's lead entry
    is made a positive integer.  The pivots are kept in a dict keyed by lead
    row, and span the columns.
    The order of columns and pivots is fixed, so the work is reproducible.

    Shortcuts that change no pivot (a pivot is a new dict, never one of ``columns``):

    * a real lead skips the conjugate product, a positive integer factor
      that the gcd step divides out: a lead 1 is copied (its gcd is 1) and a
      negative lead negated;
    * a pivot multiplier of 1 (after the gcd step) copies the column unscaled;
    * a real column multiplier skips the imaginary products, all 0;
    * an emptied column skips the gcd step, which has nothing to divide.

    Given ``pivots``, the pivot dict of an earlier call on the same rows, or
    any subset of one (a subset of pivots with distinct leads, each led by
    its lowest row, is again such a set), the elimination resumes from it and
    extends it in place: the result is the rank of those pivot columns and
    ``columns`` side by side, and the dict holds their pivots.  Without it,
    ``columns`` are ranked on their own.
    """
    if pivots is None:
        pivots = {}
    for v in columns:
        while v:
            lead = min(v)
            pivot = pivots.get(lead)
            if pivot is None:
                a, b = v[lead]
                if b:  # multiply by the conjugate of the lead: it becomes |lead|^2
                    pivots[lead] = _primitive(
                        {r: (a * x + b * y, a * y - b * x) for r, (x, y) in v.items()}
                    )
                elif a == 1:
                    pivots[lead] = dict(v)
                elif a < 0:
                    pivots[lead] = _primitive({r: (-x, -y) for r, (x, y) in v.items()})
                else:
                    pivots[lead] = _primitive(dict(v))
                break
            v = _eliminate(v, pivot, lead)
        if len(pivots) == rows:
            break
    return len(pivots)


def _primitive(v: dict) -> dict:
    # a running gcd, not gcd(*entries): argument tuples of every length
    # would pile up on the interpreter's tuple free lists
    g = 0
    for x, y in v.values():
        g = gcd(g, x, y)
        if g == 1:
            return v
    return {r: (x // g, y // g) for r, (x, y) in v.items()}


def _eliminate(v: dict, pivot: dict, lead: int) -> dict:
    """Clear ``v[lead]`` with a pivot whose lead entry is a positive integer."""
    p = pivot[lead][0]
    ha, hb = v[lead]
    g = gcd(p, ha, hb)
    p, ha, hb = p // g, ha // g, hb // g
    out = dict(v) if p == 1 else {r: (p * x, p * y) for r, (x, y) in v.items()}
    if hb:
        for r, (x, y) in pivot.items():
            ta = ha * x - hb * y
            tb = ha * y + hb * x
            if r in out:
                xa, xb = out[r]
                ta, tb = xa - ta, xb - tb
            else:
                ta, tb = -ta, -tb
            if ta or tb:
                out[r] = (ta, tb)
            else:
                del out[r]
    else:  # a real multiplier: no products with hb
        for r, (x, y) in pivot.items():
            if r in out:
                xa, xb = out[r]
                ta, tb = xa - ha * x, xb - ha * y
            else:
                ta, tb = -ha * x, -ha * y
            if ta or tb:
                out[r] = (ta, tb)
            else:
                del out[r]
    return _primitive(out) if out else out
