"""Linear algebra over Z/p^K.

Subgroups of a finite module (Z/p^K)^d are handled through a Howell-style
normal form: an echelon generating set closed under the annihilator rows
p^t * row that a non-field modulus demands, so membership reduces to forward
row reduction.  Mixed-moduli groups Z/p^{k_1} x ... x Z/p^{k_d} embed into
(Z/p^K)^d, K = max k_i, by scaling coordinate i with p^(K - k_i).
"""

from __future__ import annotations


def _val(x: int, p: int, cap: int) -> int:
    if x == 0:
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def howell_form(rows, p: int, big: int) -> list[list[int]]:
    """Echelon generating rows of the span of ``rows`` in (Z/big)^d, big = p^K.

    Each returned row leads with a power of p, pivot columns strictly
    increase, and the annihilator closure property holds, so ``member`` is a
    complete test.
    """
    cap = _val(big, p, 10 ** 9)
    basis: list[list[int]] = []      # kept sorted by (pivot col, pivot valuation)
    work = [[x % big for x in r] for r in rows]

    def leading(row):
        for j, x in enumerate(row):
            if x:
                return j
        return None

    while work:
        row = work.pop()
        # forward-reduce against the basis wherever divisibility allows
        for b in basis:
            c = leading(b)
            if row[c]:
                vb = _val(b[c], p, cap)
                if _val(row[c], p, cap) >= vb:
                    f = row[c] // p ** vb
                    row = [(a - f * x) % big for a, x in zip(row, b)]
        c = leading(row)
        if c is None:
            continue
        v = _val(row[c], p, cap)
        inv = pow(row[c] // p ** v, -1, big)
        row = [(x * inv) % big for x in row]           # pivot becomes p^v
        clash = next((i for i, b in enumerate(basis)
                      if leading(b) == c and _val(b[c], p, cap) > v), None)
        if clash is not None:
            work.append(basis.pop(clash))
        basis.append(row)
        basis.sort(key=lambda b: (leading(b), _val(b[leading(b)], p, cap)))
        if v > 0:
            ann = [(x * p ** (cap - v)) % big for x in row]
            ann[c] = 0
            if any(ann):
                work.append(ann)
    # clear entries above each pivot where divisibility allows (determinism)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            c = leading(basis[j])
            vj = _val(basis[j][c], p, cap)
            if basis[i][c] and _val(basis[i][c], p, cap) >= vj:
                f = basis[i][c] // p ** vj
                basis[i] = [(a - f * x) % big
                            for a, x in zip(basis[i], basis[j])]
    return basis


def member(vector, rows, p: int, big: int) -> bool:
    """Is the vector in the row span (rows must come from howell_form)?"""
    cap = _val(big, p, 10 ** 9)
    rem = [x % big for x in vector]
    for row in rows:
        c = next(j for j, x in enumerate(row) if x)
        if rem[c]:
            v = _val(row[c], p, cap)
            if _val(rem[c], p, cap) < v:
                return False
            f = rem[c] // p ** v
            rem = [(a - f * x) % big for a, x in zip(rem, row)]
    return not any(rem)


def span_equal(rows_a, rows_b, p: int, big: int) -> bool:
    ha = howell_form(rows_a, p, big)
    hb = howell_form(rows_b, p, big)
    return (all(member(r, hb, p, big) for r in ha)
            and all(member(r, ha, p, big) for r in hb))


def _eliminate(work, ncols: int, p: int, big: int):
    """Smith-style elimination of the rows ``work`` over Z/big, in place.

    Each step pivots on an entry of least valuation v over the unused rows
    and the unused columns among the first ``ncols``, the first such entry
    scanning rows, then columns.  The pivot row is scaled so that the pivot
    becomes p^v, and the pivot column is cleared from the other unused
    rows, which the least valuation makes exact.  Returns the pivots
    (row, col, v) in the order taken.
    """
    cap = _val(big, p, 10 ** 9)
    free_rows = list(range(len(work)))
    free_cols = list(range(ncols))
    pivots: list[tuple[int, int, int]] = []
    while True:
        best = None
        for i in free_rows:
            for c in free_cols:
                if work[i][c]:
                    v = _val(work[i][c], p, cap)
                    if best is None or v < best[0]:
                        best = (v, i, c)
        if best is None:
            return pivots
        v, i, c = best
        inv = pow(work[i][c] // p ** v, -1, big)
        work[i] = [(x * inv) % big for x in work[i]]    # pivot becomes p^v
        free_rows.remove(i)
        free_cols.remove(c)
        for i2 in free_rows:
            if work[i2][c]:
                f = work[i2][c] // p ** v               # valuation >= v
                work[i2] = [(a - f * b) % big
                            for a, b in zip(work[i2], work[i])]
        pivots.append((i, c, v))


def cyclic_basis(rows, p: int, big: int) -> list[list[int]]:
    """Basis rows realizing the cyclic decomposition of the span of ``rows``.

    Every pivot is chosen with globally minimal valuation over the rows not
    yet used (``_eliminate``), so each basis row consists entirely of
    entries with valuation >= its pivot's valuation v: its additive order
    is exactly p^(K-v), its p^(K-v)-fold multiple vanishes identically (no
    annihilator rows arise), and the span is the internal direct sum of the
    cyclic groups the rows generate.  Howell pivots do not give this (the
    span of (2,1) in (Z/4)^2 is Z/4, not Z/2 x Z/2).  Rows come back sorted
    by pivot column.
    """
    work = [[x % big for x in r] for r in rows]
    pivots = _eliminate(work, len(work[0]) if work else 0, p, big)
    return [work[i] for i, _, _ in sorted(pivots, key=lambda t: t[1])]


def solve_mod(columns, target, p: int, big: int):
    """One solution c of sum_j c_j * columns[j] = target over Z/big, or None.

    Pivots are chosen globally by minimal valuation over the remaining
    submatrix (Smith style, ``_eliminate``), after which back-substitution
    with free variables at zero is complete: whenever the system is
    solvable at all, every divisibility it needs goes through.  The result
    is verified by substitution before being returned.
    """
    n = len(target)
    m = len(columns)
    if m == 0:
        return [] if not any(x % big for x in target) else None
    aug = [[columns[j][i] % big for j in range(m)] + [target[i] % big]
           for i in range(n)]
    pivots = _eliminate(aug, m, p, big)
    used = {i for i, _, _ in pivots}
    if any(aug[i][m] % big for i in range(n) if i not in used):
        return None
    sol = [0] * m
    for i, c, v in reversed(pivots):
        acc = aug[i][m] - sum(aug[i][c2] * sol[c2] for c2 in range(m) if c2 != c)
        if acc % p ** v:
            return None
        sol[c] = (acc // p ** v) % big
    for i in range(n):
        acc = sum(sol[j] * columns[j][i] for j in range(m))
        if (acc - target[i]) % big:
            return None
    return sol
