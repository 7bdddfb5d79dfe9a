"""Coadjoint orbits, orbit characters, and the verification suites.

The coadjoint action is carried out exactly on exponent vectors: a
character f with weight row w (exponents scaled onto a common modulus p^K)
moves to w' = w @ M under x -> f(Ad(e^-g) x) with M = exp(ad(-g)), and w'
divides back down to an exponent vector because Ad* preserves the dual
lattice.  Orbits are permutation closures under the basis generators
e^{+-e_i}, audited afterwards on random full group elements.

The orbit character chi(e^x) = |Omega|^{-1/2} sum_{f in Omega} f(x) is the
inverse Fourier transform of the orbit's indicator, one library FFT on the
ring's grid; orbit membership stays exact, the values carry the FFT's
round-off.  The convolution-identity suites reduce exhaustive claims about
conjugation-invariant functions to class-indicator pairs (bilinearity) and
compare the integer counts N_a[b, c] = #{h in C_a : h^{-1} x_c in C_b}
under both laws, so those checks are exact at every group order: the group
side is Burnside's class matrix, the additive side is counted at every
element, and both come from ``harmonic.translates``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (PartitionFailure, PropertyFailed, RegimeViolation,
                     UnexpectedFailure)
from .harmonic import (ADDITIVE, GROUP, ClassFunction, DualFunction,
                       DualSpace, exp_star, fourier, inverse_fourier,
                       translates)
from .liering import FiniteLieRing, LazardGroup, Subring
from .oracle import (_conjugation_perm, character_table, class_matrix,
                     closure_with_audit, conjugacy_classes)

# largest |G| for which verify_idempotents materializes its n x n table
_TABLE_LIMIT = 2048


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
    vals = inverse_fourier(orbit.indicator()).values / root
    # the rng is seeded afresh on every call, so every orbit draws the same
    # elements g: their permutations are worked out once per group
    key = (seed, samples)
    if key not in group.audit_perms:
        rng = np.random.default_rng(seed)
        gs = [tuple(int(rng.integers(0, s)) for s in ring.sizes)
              for _ in range(samples)]
        group.audit_perms[key] = [(g, _conjugation_perm(group, g))
                                  for g in gs]
    for g, perm in group.audit_perms[key]:
        dev = np.max(np.abs(vals[perm] - vals))
        if dev > tol:
            raise PropertyFailed(
                f"orbit character varies on a conjugacy class: "
                f"deviation {dev:.2e} under conjugation by e^{g}")
    return KirillovCharacter(orbit,
                             ClassFunction(group, vals, tolerance=tol,
                                           invariant=True))


# -- class-indicator counts ------------------------------------------------------

def _count_mismatch(group, part, a, rows=None):
    """First (a, b, c), b in ``rows`` (every class when None) and c in G in
    row-major order, where N_a[b, c] = #{h in C_a : h^{-1} x_c in C_b}
    differs between the group and the additive law; None when they agree.

    Convolving the indicators of C_a and C_b gives N_a[b, .]/|G| under each
    law, so agreement for every a is the exact all-pairs intertwining test.
    The additive side is counted at every c.  The group side is class a's
    class matrix at the representatives, spread over ``part.labels``: the
    labels are orbits of <e^{+-e_i}>, and conjugation by that group permutes
    C_a and C_b, so the group counts are constant on each label.  Counts
    agree when the sorted label columns do, with labels outside ``rows``
    masked out; the count matrices are built only to read a witness.
    """
    labels, r = part.labels, len(part)
    members = part.classes[a]
    grp = labels[translates(group, GROUP, members, part.reps)]
    add = labels[translates(group, ADDITIVE, members)]
    if rows is None:
        rows = range(r)
        g_cols, a_cols = grp, add
    else:
        keep = np.zeros(r, dtype=bool)
        keep[rows] = True
        g_cols, a_cols = (np.where(keep[lab], lab, -1) for lab in (grp, add))
    if np.array_equal(np.sort(g_cols, axis=0)[:, labels],
                      np.sort(a_cols, axis=0)):
        return None
    n = len(labels)
    by_sum = np.bincount((add * n + np.arange(n)).ravel(),
                         minlength=r * n).reshape(r, n)
    rows = np.asarray(rows)
    bad = (class_matrix(group, part, a)[:, labels] != by_sum)[rows]
    b, c = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return (a, int(rows[b]), int(c))


def _pair_deviation(group, part, pairs) -> float:
    """max |f1 *_G f2 - f1 *_+ f2| over the pairs of class functions, read
    at the representatives, one class a of h at a time: the group side from
    the class matrix, (f1 *_G f2)(c) = (1/|G|) sum_{a,b} f1(C_a) f2(C_b)
    M_a[b, c], the additive side from the translates x_c - x_h."""
    if not pairs:
        return 0.0
    diff = np.zeros((len(pairs), len(group)), dtype=np.complex128)
    for a in range(len(part)):
        M = class_matrix(group, part, a)
        T = part.labels[translates(group, ADDITIVE, part.classes[a])]
        for k, (f1, f2) in enumerate(pairs):
            v2 = f2.values[part.reps]
            by_group = (v2 @ M)[part.labels]
            by_sum = v2[T].sum(axis=0)
            diff[k] += f1.values[part.reps[a]] * (by_group - by_sum)
    return float(np.max(np.abs(diff))) / len(group)


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

    table = translates(group, GROUP, slice(None))
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
                    pairs=None) -> dict:
    """exp* intertwines group and additive convolution on Fun(G)^G.

    The check is exhaustive and exact at every size: class indicators span
    the invariant functions, so by bilinearity it compares the integer
    counts N_a[b, c] of both laws for every pair of classes and every
    element (``_count_mismatch``).  Explicit ``pairs``, validated for
    invariance first, and ``trials`` random invariant pairs follow from the
    same counts: their deviation is 0.0 once the counts agree, and they are
    reported as ``pairs_checked`` and ``max_deviation``.  On a mismatch the
    explicit pairs' deviation is worked out class by class
    (``_pair_deviation``) and no random pair is counted.
    """
    if ring.p < 3:
        raise RegimeViolation(f"p = {ring.p} < 3")
    group = group or LazardGroup(ring)
    part = conjugacy_classes(group, seed=seed)
    pairs = list(pairs or [])
    for f1, f2 in pairs:
        _assert_invariant(f1, part)
        _assert_invariant(f2, part)
    report = {"group_order": len(group), "classes": len(part),
              "exhaustive": True, "max_deviation": 0.0,
              "pairs_checked": len(pairs) + trials, "passed": True,
              "witness": None}
    for a in range(len(part)):
        hit = _count_mismatch(group, part, a)
        if hit is not None:
            report.update(exhaustive=False, passed=False, witness=hit,
                          pairs_checked=len(pairs),
                          max_deviation=_pair_deviation(group, part, pairs))
            break
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
    kspace = DualSpace(sub.induced)

    def perm_for(g):
        return _dual_permutation(kspace, _restricted_action(ring, sub, g), g,
                                 "(2g)* character lattice")

    _, orbit_sets = closure_with_audit(
        ring, len(kspace), perm_for,
        "Ad*(e^{g}) moves (2g)* characters across orbits", seed=seed,
        audits=audits)

    idx_g2 = sub.ambient_indices()
    chi_full = table.rows[:, table.partition.labels]
    chi_g2 = chi_full[:, idx_g2]

    cells = []
    assigned = np.full(len(table.rows), -1, dtype=np.int64)
    for idx in orbit_sets:
        orbit = CoadjointOrbit(kspace, idx)
        ehat = inverse_fourier(orbit.indicator()).values
        evals = np.zeros(len(group), dtype=np.complex128)
        evals[idx_g2] = ehat
        scores = np.abs(chi_g2 @ np.conj(ehat)) / len(kspace)
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


def p2_convolution_check(ring: FiniteLieRing, *, group=None, seed=0) -> dict:
    """exp* intertwining on G^2-supported invariant functions, p = 2.

    Both factors supported on G^2 must always intertwine; one-factor
    support suffices when [g,g] lies in 8g (uniform depth >= 3).  Each claim
    is checked exactly at every size, by comparing the integer counts
    N_a[b, c] of both laws for the classes a, b it covers
    (``_count_mismatch``).  When a conjugation-invariant pair outside those
    hypotheses breaks the identity, its first (a, b, c) is recorded as the
    expected failure witness.
    """
    _require_p2_uniform(ring)
    group = group or LazardGroup(ring)
    n = len(group)
    part = conjugacy_classes(group, seed=seed)
    r = len(part)
    even = np.all(group.elements % 2 == 0, axis=1) if ring.rank \
        else np.ones(n, dtype=bool)
    inside = [a for a in range(r) if bool(even[part.classes[a]].all())]
    outside = [a for a in range(r) if a not in set(inside)]
    one_sided = ring.uniform_depth >= 3
    report = {"group_order": n, "classes": r, "supported_classes": len(inside),
              "part_b": None,
              "part_a": None if one_sided else "skipped",
              "expected_failure": None, "pairs_checked": 0, "passed": True}

    for a in inside:
        hit = _count_mismatch(group, part, a, inside)
        if hit is not None:
            report["part_b"] = hit
            report["passed"] = False
            raise UnexpectedFailure(
                f"G^2-supported pair breaks exp* at (classes, element) "
                f"= {hit}")
    report["part_b"] = "exact"
    report["pairs_checked"] += len(inside) ** 2
    if one_sided:
        checks = [(a, None) for a in inside] + [(a, inside) for a in outside]
        for a, rows in checks:
            hit = _count_mismatch(group, part, a, rows)
            if hit is not None:
                raise UnexpectedFailure(
                    f"one-sided G^2 pair breaks exp* at {hit}")
        report["part_a"] = "exact"
        report["pairs_checked"] += (2 * len(inside)) * len(outside)
    search = outside if one_sided else None
    for a in outside:
        hit = _count_mismatch(group, part, a, search)
        if hit is not None:
            report["expected_failure"] = hit
            break
    return report
