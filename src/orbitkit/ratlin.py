"""Exact linear algebra over the rationals.

Plain-list Gaussian elimination with Fraction entries, plus a p-local
column Hermite normalization used for lattices over the localization
Z_(p).  Everything here is deterministic: pivots are chosen by fixed rules
so repeated runs produce identical output.
"""

from __future__ import annotations

from fractions import Fraction

from .freelie import vp


def solve_right(matrix, rhs):
    """Solve M s = rhs exactly by Gauss-Jordan elimination, consuming
    columns left to right; returns None when inconsistent.

    The pivot row for a column is the first unused row with a nonzero
    entry, and free variables are set to zero.  The choice of pivot rows
    cannot change the result: with every earlier pivot column cleared from
    all rows, column j has a nonzero entry in an unused row exactly when it
    is independent of the columns before it.  So the pivot columns are the
    same under any pivot-row rule, and the solution returned is the unique
    one supported on them.
    """
    m = len(matrix)
    cols = len(matrix[0]) if m else 0
    rows = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
            for i, row in enumerate(matrix)]
    if m and any(len(row) != cols + 1 for row in rows):
        raise ValueError("ragged matrix")
    pivot_of_col: dict[int, int] = {}
    used: set[int] = set()
    for j in range(cols):
        pivot = next((i for i in range(m) if i not in used and rows[i][j]),
                     None)
        if pivot is None:
            continue
        used.add(pivot)
        pivot_of_col[j] = pivot
        inv = 1 / rows[pivot][j]
        rows[pivot] = [v * inv for v in rows[pivot]]
        for i in range(m):
            if i != pivot and rows[i][j]:
                f = rows[i][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pivot])]
    for i in range(m):
        if i not in used and rows[i][cols]:
            return None
    sol = [Fraction(0)] * cols
    for j, i in pivot_of_col.items():
        sol[j] = rows[i][cols]
    return sol


def rational_span_basis(vectors):
    """Row-reduce a list of rational vectors; returns an RREF basis of the span."""
    rows = [list(map(Fraction, v)) for v in vectors if any(v)]
    basis = []
    for row in rows:
        row = list(row)
        for b in basis:
            lead = next(j for j, x in enumerate(b) if x)
            if row[lead]:
                f = row[lead] / b[lead]
                row = [a - f * c for a, c in zip(row, b)]
        if any(row):
            basis.append(row)
    basis.sort(key=lambda b: next(j for j, x in enumerate(b) if x))
    out = []
    for b in basis:
        lead = next(j for j, x in enumerate(b) if x)
        out.append([x / b[lead] for x in b])
    # clear every entry above a pivot, top-down, so the result is a true
    # RREF and therefore independent of the generator order
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            lead = next(k for k, x in enumerate(out[j]) if x)
            if out[i][lead]:
                f = out[i][lead]
                out[i] = [a - f * c for a, c in zip(out[i], out[j])]
    return out


def _reduce_mod_p_power(e: Fraction, v: int, p: int) -> Fraction:
    """Canonical representative of e modulo p^v Z_(p), with p-power denominator."""
    ve = vp(e, p)
    if ve >= v:
        return Fraction(0)
    ve = int(ve)
    # e = p^ve * u with u a p-unit; reduce u mod p^(v - ve)
    unit = e / Fraction(p) ** ve
    mod = p ** (v - ve)
    num = unit.numerator % mod
    den_inv = pow(unit.denominator % mod, -1, mod)
    u_red = (num * den_inv) % mod
    return Fraction(u_red) * Fraction(p) ** ve


def p_local_hermite(columns, p: int):
    """Canonical basis of the Z_(p)-lattice spanned by rational columns.

    Column operations invertible over Z_(p) only.  Processing rows top-down,
    the pivot for a row is the remaining column of minimal valuation there;
    it is normalized to a power of p and cleared from the not-yet-finished
    columns, while finished columns are reduced modulo the pivot.  Zero
    columns are dropped, so the result's length is the lattice rank.
    """
    cols = [list(map(Fraction, c)) for c in columns]
    n_rows = len(cols[0]) if cols else 0
    done: list[list[Fraction]] = []
    pivots: list[tuple[int, int]] = []   # (row, valuation) per finished column
    active = [c for c in cols if any(c)]
    for r in range(n_rows):
        cand = [(vp(c[r], p), idx) for idx, c in enumerate(active) if c[r]]
        if not cand:
            continue
        v, idx = min(cand)
        v = int(v)
        col = active.pop(idx)
        unit = col[r] / Fraction(p) ** v
        col = [x / unit for x in col]
        for c in active:
            if c[r]:
                f = c[r] / col[r]
                for i in range(n_rows):
                    c[i] -= f * col[i]
        # reduce this pivot row inside previously finished columns
        for dcol in done:
            if dcol[r]:
                target = _reduce_mod_p_power(dcol[r], v, p)
                f = (dcol[r] - target) / col[r]
                for i in range(n_rows):
                    dcol[i] -= f * col[i]
        done.append(col)
        pivots.append((r, v))
        active = [c for c in active if any(c)]
    return done


def in_p_lattice(vector, basis_columns, p: int) -> bool:
    """Is the vector a Z_(p)-combination of the basis columns?"""
    if not basis_columns:
        return not any(vector)
    matrix = [[basis_columns[j][i] for j in range(len(basis_columns))]
              for i in range(len(vector))]
    sol = solve_right(matrix, list(vector))
    if sol is None:
        return False
    # solve_right eliminates fully, so the combination is exact iff the
    # residual vanishes
    residual = list(map(Fraction, vector))
    for j, c in enumerate(sol):
        for i in range(len(residual)):
            residual[i] -= c * Fraction(basis_columns[j][i])
    if any(residual):
        return False
    return all(vp(c, p) >= 0 for c in sol)
