"""Coadjoint orbits, orbit characters, and the verification suites.

The coadjoint action is carried out exactly on exponent vectors: a
character f with weight row w (exponents scaled onto a common modulus p^K)
moves to w' = w @ M under x -> f(Ad(e^-g) x) with M = exp(ad(-g)), and w'
divides back down to an exponent vector because Ad* preserves the dual
lattice.  Orbits are permutation closures under the basis generators
e^{+-e_i}, audited afterwards on random full group elements.

The orbit character chi(e^x) = |Omega|^{-1/2} sum_{f in Omega} f(x) is
summed in exact exponent arithmetic and only then materialized as complex
values.  The convolution-identity suites reduce exhaustive claims about
conjugation-invariant functions to class-indicator pairs (bilinearity) and
compare integer translation counts, so those checks are exact.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (PartitionFailure, PropertyFailed, RegimeViolation,
                     UnexpectedFailure)
from .harmonic import (ADDITIVE, GROUP, ClassFunction, DualFunction,
                       DualSpace, convolve, exp_star, fourier)
from .liering import FiniteLieRing, LazardGroup, Subring
from .oracle import (_conjugation_perm, character_table, closure_with_audit,
                     conjugacy_classes)

# largest |G| for which n x n index tables are materialized
_TABLE_LIMIT = 2048
_BLOCK_CELLS = 1 << 22


class CoadjointOrbit:
    """A G-orbit in the dual, held as sorted indices into a DualSpace."""

    __slots__ = ("space", "indices", "_members")

    def __init__(self, space: DualSpace, indices):
        self.space = space
        self.indices = np.asarray(indices, dtype=np.int64)
        self._members = None

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def members(self) -> frozenset:
        if self._members is None:
            self._members = frozenset(self.space.character(int(i))
                                      for i in self.indices)
        return self._members

    def representative(self):
        return self.space.character(int(self.indices[0]))

    def indicator(self) -> DualFunction:
        vals = np.zeros(len(self.space))
        vals[self.indices] = 1.0
        return DualFunction(self.space.ring, vals)

    def __repr__(self):
        return f"CoadjointOrbit(size={self.size}, rep={self.representative()})"


def _dual_permutation(space: DualSpace, matrix, g, lattice) -> np.ndarray:
    """Index permutation of a dual space under Ad*(e^g), given the matrix of
    Ad(e^-g) on the coordinates of the space's ring; ``lattice`` names the
    dual in the error when a character leaves it."""
    moved = (space.weights @ matrix) % space.ring.big
    if np.any(moved % space.scale):
        raise PropertyFailed(f"Ad*(e^{tuple(g)}) left the {lattice}")
    return space.index_batch(moved // space.scale)


def coadjoint_orbits(ring: FiniteLieRing, *, seed=0,
                     audits=50) -> list[CoadjointOrbit]:
    """Partition of g* under the coadjoint action.

    Closure runs over the basis generators e^{+-e_i}; a seeded audit then
    checks stability under Ad* of random full group elements, guarding the
    assumption that the basis exponentials generate G.
    """
    space = DualSpace(ring)

    def perm_for(g):
        m = ring.exp_ad_matrix(ring.negate(ring.element(g)))
        return _dual_permutation(space, m, g, "character lattice")

    _, orbit_sets = closure_with_audit(
        ring, len(space), perm_for,
        "Ad*(e^{g}) moves characters across orbits", seed=seed,
        audits=audits)
    return [CoadjointOrbit(space, idx) for idx in orbit_sets]


class KirillovCharacter:
    """chi(e^x) = |Omega|^{-1/2} sum_{f in Omega} f(x) as a ClassFunction."""

    __slots__ = ("orbit", "values")

    def __init__(self, orbit: CoadjointOrbit, values: ClassFunction):
        self.orbit = orbit
        self.values = values

    @property
    def degree(self) -> int:
        return math.isqrt(self.orbit.size)

    def __repr__(self):
        return f"KirillovCharacter(degree={self.degree}, |Omega|={self.orbit.size})"


def kirillov_character(ring: FiniteLieRing, orbit: CoadjointOrbit, *,
                       group=None, seed=0, samples=5,
                       tol=1e-9) -> KirillovCharacter:
    """Orbit character on G via the identity coordinate map exp.

    The orbit size must be a perfect square (its root is the degree), and
    the result is checked for conjugation-invariance on sampled elements.
    """
    size = orbit.size
    root = math.isqrt(size)
    if root * root != size:
        raise PropertyFailed(f"orbit size {size} is not a perfect square")
    group = group or LazardGroup(ring)
    X = group.elements
    n = len(X)
    weights = orbit.space.weights[orbit.indices]
    vals = np.zeros(n, dtype=np.complex128)
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for start in range(0, len(weights), step):
        E = (X @ weights[start:start + step].T) % ring.big
        vals += np.exp(2j * np.pi * E / ring.big).sum(axis=1)
    vals /= root
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        g = tuple(int(rng.integers(0, s)) for s in ring.sizes)
        perm = _conjugation_perm(group, g)
        dev = np.max(np.abs(vals[perm] - vals))
        if dev > tol:
            raise PropertyFailed(
                f"orbit character varies on a conjugacy class: "
                f"deviation {dev:.2e} under conjugation by e^{g}")
    return KirillovCharacter(orbit,
                             ClassFunction(group, vals, tolerance=tol,
                                           invariant=True))


# -- translation tables --------------------------------------------------------

def _group_table(group: LazardGroup) -> np.ndarray:
    """T[h, c] = index of (e^{x_h})^{-1} e^{x_c}; one row per left factor."""
    ring = group.ring
    E = group.elements
    n = len(E)
    neg = np.mod(-E, ring._mods)
    shape = (n, n, ring.rank)
    prod = ring.ch_batch(np.broadcast_to(neg[:, None, :], shape),
                         np.broadcast_to(E[None, :, :], shape))
    return prod @ ring.grid.strides


def _additive_table(group: LazardGroup) -> np.ndarray:
    """T[h, c] = index of x_c - x_h."""
    ring = group.ring
    E = group.elements
    diff = np.mod(E[None, :, :] - E[:, None, :], ring._mods)
    return diff @ ring.grid.strides


def _indicator_counts(table, labels, members, n_classes):
    """counts[b, c] = #{h in members : table[h, c] lies in class b}.

    Convolving two class indicators gives counts/|G|, so integer equality of
    these matrices across two tables is an exact all-pairs convolution test.
    """
    lab = labels[table[members]]
    n = table.shape[1]
    cols = np.broadcast_to(np.arange(n, dtype=np.int64), lab.shape)
    flat = lab * n + cols
    return np.bincount(flat.ravel(), minlength=n_classes * n).reshape(
        n_classes, n)


# -- verification suites --------------------------------------------------------

def verify_idempotents(ring: FiniteLieRing, *, group=None, orbits=None,
                       characters=None, seed=0, tol=1e-8) -> dict:
    """(a)-(d) idempotent package for e_Omega = |Omega|^{1/2} chi_Omega.

    (a) the Fourier transform of e_Omega pulled back to g is the indicator
    of Omega; (b) e_Omega is idempotent under group convolution; (c)
    distinct idempotents annihilate; (d) they sum to |G| delta_identity.
    ``seed`` drives the orbit and character audits when those are built
    here.
    """
    if ring.p < 3:
        raise RegimeViolation(f"p = {ring.p} < 3")
    group = group or LazardGroup(ring)
    n = len(group)
    if n > _TABLE_LIMIT:
        raise ValueError(f"|G| = {n} too large for the all-pairs sweep")
    orbits = orbits or coadjoint_orbits(ring, seed=seed)
    if characters is None:
        characters = [kirillov_character(ring, o, group=group, seed=seed)
                      for o in orbits]
    E = np.array([math.isqrt(o.size) * ch.values.values
                  for o, ch in zip(orbits, characters)])

    dev_fourier = 0.0
    for orbit, row in zip(orbits, E):
        F = fourier(exp_star(ClassFunction(group, row)))
        ind = np.zeros(n)
        ind[orbit.indices] = 1.0
        dev_fourier = max(dev_fourier, float(np.max(np.abs(F.values - ind))))

    table = _group_table(group)
    dev_idem, dev_orth, witness = 0.0, 0.0, None
    for j in range(len(E)):
        conv = (E @ E[j][table]) / n
        for i in range(len(E)):
            target = E[i] if i == j else 0.0
            dev = float(np.max(np.abs(conv[i] - target)))
            if i == j:
                dev_idem = max(dev_idem, dev)
            elif dev > dev_orth:
                dev_orth, witness = dev, (i, j, int(np.argmax(
                    np.abs(conv[i]))))

    identity_target = np.zeros(n)
    identity_target[group.index_of(ring.zero())] = n
    dev_complete = float(np.max(np.abs(E.sum(axis=0) - identity_target)))

    passed = max(dev_fourier, dev_idem, dev_orth, dev_complete) <= tol
    return {"orbits": len(E), "fourier_indicator": dev_fourier,
            "idempotent": dev_idem, "orthogonal": dev_orth,
            "complete": dev_complete, "tolerance": tol, "passed": passed,
            "witness": None if passed else witness}


def _assert_invariant(f: ClassFunction, partition):
    for cls in partition.classes:
        seg = f.values[cls]
        if np.max(np.abs(seg - seg[0])) > f.tolerance:
            raise ValueError("input is not conjugation-invariant; the "
                             "intertwining claim only concerns Fun(G)^G")


def verify_exp_star(ring: FiniteLieRing, trials=20, *, group=None, seed=0,
                    pairs=None, tol=1e-10) -> dict:
    """exp* intertwines group and additive convolution on Fun(G)^G.

    For |G| within table range the check is additionally exhaustive and
    exact: both laws reduce to integer translation counts over all pairs of
    class indicators, which span the invariant functions bilinearly.
    Random invariant pairs are checked numerically in every case, and
    explicit ``pairs`` are validated for invariance before use.
    """
    if ring.p < 3:
        raise RegimeViolation(f"p = {ring.p} < 3")
    group = group or LazardGroup(ring)
    n = len(group)
    part = conjugacy_classes(group, seed=seed)
    labels = part.labels
    r = len(part)
    report = {"group_order": n, "classes": r, "tolerance": tol,
              "exhaustive": False, "max_deviation": 0.0, "pairs_checked": 0,
              "passed": True, "witness": None}
    tabled = n <= _TABLE_LIMIT
    if tabled:
        t_grp = _group_table(group)
        t_add = _additive_table(group)

    def deviation(v1, v2):
        if tabled:
            return float(np.max(np.abs(v1 @ v2[t_grp] / n
                                       - v1 @ v2[t_add] / n)))
        f1 = ClassFunction(group, v1, invariant=True)
        f2 = ClassFunction(group, v2, invariant=True)
        g_side = convolve(f1, f2, GROUP)
        a_side = convolve(exp_star(f1, ring), exp_star(f2, ring), ADDITIVE)
        return float(np.max(np.abs(g_side.values - a_side.values)))

    if pairs is not None:
        for f1, f2 in pairs:
            _assert_invariant(f1, part)
            _assert_invariant(f2, part)
            report["max_deviation"] = max(report["max_deviation"],
                                          deviation(f1.values, f2.values))
            report["pairs_checked"] += 1

    if tabled:
        for a in range(r):
            cg = _indicator_counts(t_grp, labels, part.classes[a], r)
            ca = _indicator_counts(t_add, labels, part.classes[a], r)
            if not np.array_equal(cg, ca):
                b, c = np.unravel_index(int(np.argmax(cg != ca)), cg.shape)
                report["passed"] = False
                report["witness"] = (a, int(b), int(c))
                return report
        report["exhaustive"] = True

    rng = np.random.default_rng(seed)
    for _ in range(trials):
        f1 = (rng.standard_normal(r) + 1j * rng.standard_normal(r))[labels]
        f2 = (rng.standard_normal(r) + 1j * rng.standard_normal(r))[labels]
        report["max_deviation"] = max(report["max_deviation"],
                                      deviation(f1, f2))
        report["pairs_checked"] += 1
    report["passed"] = report["max_deviation"] <= tol
    return report


# -- p = 2 ----------------------------------------------------------------------

class P2Cell:
    """One orbit Omega in (2g)*, its idempotent e_Omega on G, and the
    irreducibles (table row indices) supported on it."""

    __slots__ = ("orbit", "idempotent", "irreducibles")

    def __init__(self, orbit, idempotent, irreducibles):
        self.orbit = orbit
        self.idempotent = idempotent
        self.irreducibles = tuple(int(i) for i in irreducibles)

    def __repr__(self):
        return (f"P2Cell(|Omega|={self.orbit.size}, "
                f"irreducibles={self.irreducibles})")


def _require_p2_uniform(ring):
    if ring.p != 2:
        raise RegimeViolation(f"p = {ring.p}, the 2-adic machinery needs p = 2")
    if ring.rank and ring.uniform_depth < 2:
        raise RegimeViolation(
            f"uniform depth {ring.uniform_depth} < 2: [g,g] must lie in 4g")


def _restricted_action(ring, sub: Subring, g):
    """Matrix of Ad(e^-g) on 2g in the subring basis (column convention)."""
    m = ring.exp_ad_matrix(ring.negate(ring.element(g)))
    cols = []
    for b in sub.basis_coords:
        moved = tuple(int(x) for x in (m @ np.array(b, dtype=np.int64))
                      % ring._mods)
        try:
            cols.append(sub.express(moved))
        except ValueError as exc:
            raise PropertyFailed(f"Ad(e^-{g}) does not preserve 2g") from exc
    k = len(sub.basis_coords)
    return np.array(cols, dtype=np.int64).reshape(k, k).T


def p2_orbit_partition(ring: FiniteLieRing, *, group=None, table=None,
                       seed=0, audits=50, tol=1e-8) -> list[P2Cell]:
    """Partition of the irreducibles of G by coadjoint orbits in (2g)*.

    For each G-orbit Omega in the dual of 2g, e_Omega extends the inverse
    Fourier transform of the orbit indicator by zero from G^2 = exp(2g) to
    G.  An irreducible rho belongs to the Omega cell when <chi_rho|_{G^2},
    e_Omega> is nonzero; membership is certified by checking that
    chi_rho|_{G^2} is a scalar multiple of e_Omega (normalized-vector
    comparison), and the cells must cover every irreducible exactly once.
    """
    _require_p2_uniform(ring)
    group = group or LazardGroup(ring)
    table = table if table is not None else character_table(group, seed=seed)
    sub = Subring(ring, [ring.scale(ring.basis(i), 2)
                         for i in range(ring.rank)], label="2g")
    K = sub.induced
    kspace = DualSpace(K)

    def perm_for(g):
        return _dual_permutation(kspace, _restricted_action(ring, sub, g), g,
                                 "(2g)* character lattice")

    _, orbit_sets = closure_with_audit(
        ring, len(kspace), perm_for,
        "Ad*(e^{g}) moves (2g)* characters across orbits", seed=seed,
        audits=audits)

    k_elems = kspace.exponents
    idx_g2 = sub.ambient_indices()
    chi_full = table.rows[:, table.partition.labels]
    chi_g2 = chi_full[:, idx_g2]

    cells = []
    assigned = np.full(len(table.rows), -1, dtype=np.int64)
    for idx in orbit_sets:
        orbit = CoadjointOrbit(kspace, idx)
        E = (k_elems @ kspace.weights[idx].T) % K.big
        ehat = np.exp(2j * np.pi * E / K.big).sum(axis=1)
        evals = np.zeros(len(group), dtype=np.complex128)
        evals[idx_g2] = ehat
        scores = np.abs(chi_g2 @ np.conj(ehat)) / len(k_elems)
        members = np.nonzero(scores > tol)[0]
        # normalize both vectors at the same entry (e_Omega's peak), else
        # float noise can move argmax and flip the comparison by a unit
        v_peak = int(np.argmax(np.abs(ehat)))
        vhat = ehat / ehat[v_peak]
        for rho in members:
            if assigned[rho] >= 0:
                raise PartitionFailure(
                    f"irreducible {int(rho)} lies in two cells "
                    f"({int(assigned[rho])} and {len(cells)})")
            assigned[rho] = len(cells)
            u = chi_g2[rho]
            if abs(u[v_peak]) <= tol:
                raise PartitionFailure(
                    f"chi_{int(rho)} vanishes where e_Omega peaks")
            dev = float(np.max(np.abs(u / u[v_peak] - vhat)))
            if dev > tol:
                raise PartitionFailure(
                    f"chi_{int(rho)} restricted to G^2 is not proportional "
                    f"to e_Omega: normalized deviation {dev:.2e}")
        cells.append(P2Cell(orbit,
                            ClassFunction(group, evals, tolerance=tol,
                                          invariant=True),
                            members))
    missing = np.nonzero(assigned < 0)[0]
    if missing.size:
        raise PartitionFailure(
            f"irreducibles {missing.tolist()} lie in no cell")
    return cells


def p2_convolution_check(ring: FiniteLieRing, *, group=None, seed=0,
                         trials=6, tol=1e-10) -> dict:
    """exp* intertwining on G^2-supported invariant functions, p = 2.

    Both factors supported on G^2 must always intertwine; one-factor
    support suffices when [g,g] lies in 8g (uniform depth >= 3).  When a
    conjugation-invariant pair outside those hypotheses breaks the identity
    at this size, it is recorded as the expected failure witness.
    """
    _require_p2_uniform(ring)
    group = group or LazardGroup(ring)
    n = len(group)
    part = conjugacy_classes(group, seed=seed)
    labels, r = part.labels, len(part)
    even = np.all(group.elements % 2 == 0, axis=1) if ring.rank \
        else np.ones(n, dtype=bool)
    inside = [a for a in range(r) if bool(even[part.classes[a]].all())]
    outside = [a for a in range(r) if a not in set(inside)]
    one_sided = ring.uniform_depth >= 3
    report = {"group_order": n, "classes": r, "supported_classes": len(inside),
              "tolerance": tol, "part_b": None,
              "part_a": None if one_sided else "skipped",
              "expected_failure": None, "pairs_checked": 0, "passed": True}

    if n <= _TABLE_LIMIT:
        t_grp = _group_table(group)
        t_add = _additive_table(group)
        counts = {}
        for a in range(r):
            counts[a] = (_indicator_counts(t_grp, labels, part.classes[a], r),
                         _indicator_counts(t_add, labels, part.classes[a], r))

        def mismatch_at(a, rows):
            cg, ca = counts[a]
            bad = cg[rows] != ca[rows]
            if not bad.any():
                return None
            b, c = np.unravel_index(int(np.argmax(bad)), bad.shape)
            return (a, int(np.asarray(rows)[b]), int(c))

        for a in inside:
            hit = mismatch_at(a, inside)
            if hit is not None:
                report["part_b"] = hit
                report["passed"] = False
                raise UnexpectedFailure(
                    f"G^2-supported pair breaks exp* at (classes, element) "
                    f"= {hit}")
        report["part_b"] = "exact"
        report["pairs_checked"] += len(inside) ** 2
        if one_sided:
            all_rows = list(range(r))
            for a in inside:
                hit = mismatch_at(a, all_rows)
                if hit is not None:
                    raise UnexpectedFailure(
                        f"one-sided G^2 pair breaks exp* at {hit}")
            for a in outside:
                hit = mismatch_at(a, inside)
                if hit is not None:
                    raise UnexpectedFailure(
                        f"one-sided G^2 pair breaks exp* at {hit}")
            report["part_a"] = "exact"
            report["pairs_checked"] += (2 * len(inside)) * len(outside)
        search = outside if one_sided else list(range(r))
        for a in outside:
            hit = mismatch_at(a, search)
            if hit is not None:
                report["expected_failure"] = hit
                break
    else:
        rng = np.random.default_rng(seed)

        def random_supported(class_pool):
            coeffs = np.zeros(r, dtype=np.complex128)
            pool = np.asarray(class_pool)
            vals = rng.standard_normal(len(pool)) \
                + 1j * rng.standard_normal(len(pool))
            coeffs[pool] = vals
            return ClassFunction(group, coeffs[labels], invariant=True)

        dev_b = 0.0
        for _ in range(trials):
            f1, f2 = random_supported(inside), random_supported(inside)
            g_side = convolve(f1, f2, GROUP)
            a_side = convolve(exp_star(f1), exp_star(f2), ADDITIVE)
            dev_b = max(dev_b, float(np.max(np.abs(
                g_side.values - a_side.values))))
            report["pairs_checked"] += 1
        if dev_b > tol:
            report["part_b"] = dev_b
            raise UnexpectedFailure(
                f"G^2-supported pair breaks exp*: deviation {dev_b:.2e}")
        report["part_b"] = dev_b
        if one_sided:
            dev_a = 0.0
            for _ in range(trials):
                f1 = random_supported(inside)
                f2 = random_supported(list(range(r)))
                g_side = convolve(f1, f2, GROUP)
                a_side = convolve(exp_star(f1), exp_star(f2), ADDITIVE)
                dev_a = max(dev_a, float(np.max(np.abs(
                    g_side.values - a_side.values))))
                report["pairs_checked"] += 1
            if dev_a > tol:
                raise UnexpectedFailure(
                    f"one-sided G^2 pair breaks exp*: deviation {dev_a:.2e}")
            report["part_a"] = dev_a
    return report
