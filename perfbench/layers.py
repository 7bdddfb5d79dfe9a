"""What the traced run wraps, and how its spans become per-layer metrics.

Every target is wrapped from outside the program: a function is replaced
under each name by which any orbitkit module refers to it (so
``cli.character_table`` and ``orbitmethod.conjugacy_classes`` are traced
too), and a method is replaced on its class.  ``numpy.linalg.eig`` is
wrapped only as ``oracle`` reaches it, through a stand-in for oracle's
``np``.  A target the program no longer has is skipped and reported.

Each span's self time becomes the metric ``<span>_s``.  Layer metrics and
the end-to-end metric (and workload) each one should move:

  freelie      bch_s, bch_calls, exp_ad_apply_s -> bch_s, solve_s,
               setup_s and verify_s on small_rings
  chsolver     substituted_series_s, solve_phi_psi_s, check_identity_s,
               solves -> solve_s and verify_s on small_rings
  liering      make_ring_s, group_build_s -> setup_s on every workload;
               ch_batch_s, ch_products(_per_s), bracket_batch_s,
               bracket_pairs(_per_s), conjugate_batch_s, conjugations,
               exp_ad_matrix_s, exp_ad_matrix_calls -> chartable_s on
               u4_census, verify_s and peak_rss_mb on small_rings;
               twist_map_s -> verify_s on small_rings
  harmonic     fourier_s, inverse_fourier_s, exp_star_s, convolve_s,
               calls -> verify_s on small_rings
  orbitmethod  coadjoint_orbits_s, orbits, kirillov_character_s,
               kirillov_calls -> chartable_s on u4_census;
               verify_idempotents_s, verify_exp_star_s,
               p2_orbit_partition_s, p2_convolution_check_s -> verify_s
               on small_rings
  oracle       permutation_orbits_s, conjugacy_classes_s, classes,
               character_table_s, eig_s, eig_attempts, eig_useful_ratio,
               match_tables_s -> chartable_s on u4_census;
               restriction_multiplicity_s -> restrict_s on small_rings
  padic        uniform_chain_s, quotient_to_finite_s,
               restriction_harness_s -> restrict_s, wall_s on small_rings
  ratlin       busy_s, calls -> restrict_s, wall_s on small_rings
  modlin       busy_s, calls -> restrict_s, wall_s on small_rings
  cli          import_s, spec_load_s -> setup_s on every workload

No CLI command reaches harmonic.inverse_fourier, harmonic.convolve,
oracle.restriction_multiplicity or padic.quotient_to_finite, so their
metrics read 0 on every workload.  No layer queues work, so no time is
spent waiting and none is reported.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict

from spans import outermost, self_times, top_level_time


def _rows(args, kwargs, result):
    """Elements in a (..., rank) batch result."""
    return math.prod(result.shape[:-1])


def _length(args, kwargs, result):
    return len(result)


def _eig_attempts(args, kwargs, result):
    """Eigen-decompositions a returned table needed (attempts is 0-based)."""
    return result.attempts + 1


# (span name, orbitkit module, attribute or Class.method, work counter)
TARGETS = (
    ("freelie.bch", "freelie", "bch", None),
    ("freelie.exp_ad_apply", "freelie", "exp_ad_apply", None),
    ("chsolver.substituted_series", "chsolver", "substituted_series", None),
    ("chsolver.solve_phi_psi", "chsolver", "solve_phi_psi", None),
    ("chsolver.check_identity", "chsolver", "check_identity", None),
    ("liering.make_ring", "liering", "make_ring", None),
    ("liering.group_build", "liering", "LazardGroup.__init__", None),
    ("liering.ch_batch", "liering", "FiniteLieRing.ch_batch", _rows),
    ("liering.bracket_batch", "liering", "FiniteLieRing.bracket_batch",
     _rows),
    ("liering.conjugate_batch", "liering", "LazardGroup.conjugate_batch",
     _rows),
    ("liering.exp_ad_matrix", "liering", "FiniteLieRing.exp_ad_matrix",
     None),
    ("liering.twist_map", "liering", "twist_map", None),
    ("harmonic.fourier", "harmonic", "fourier", None),
    ("harmonic.inverse_fourier", "harmonic", "inverse_fourier", None),
    ("harmonic.exp_star", "harmonic", "exp_star", None),
    ("harmonic.convolve", "harmonic", "convolve", None),
    ("orbitmethod.coadjoint_orbits", "orbitmethod", "coadjoint_orbits",
     _length),
    ("orbitmethod.kirillov_character", "orbitmethod", "kirillov_character",
     None),
    ("orbitmethod.verify_idempotents", "orbitmethod", "verify_idempotents",
     None),
    ("orbitmethod.verify_exp_star", "orbitmethod", "verify_exp_star", None),
    ("orbitmethod.p2_orbit_partition", "orbitmethod", "p2_orbit_partition",
     None),
    ("orbitmethod.p2_convolution_check", "orbitmethod",
     "p2_convolution_check", None),
    ("oracle.permutation_orbits", "oracle", "permutation_orbits", None),
    ("oracle.conjugacy_classes", "oracle", "conjugacy_classes", _length),
    ("oracle.character_table", "oracle", "character_table", _eig_attempts),
    ("oracle.match_tables", "oracle", "match_tables", None),
    ("oracle.restriction_multiplicity", "oracle", "restriction_multiplicity",
     None),
    ("padic.uniform_chain", "padic", "uniform_chain", None),
    ("padic.quotient_to_finite", "padic", "quotient_to_finite", None),
    ("padic.restriction_harness", "padic", "restriction_harness", None),
    ("ratlin.busy", "ratlin", "solve_right", None),
    ("ratlin.busy", "ratlin", "rational_span_basis", None),
    ("ratlin.busy", "ratlin", "p_local_hermite", None),
    ("ratlin.busy", "ratlin", "in_p_lattice", None),
    ("modlin.busy", "modlin", "howell_form", None),
    ("modlin.busy", "modlin", "member", None),
    ("modlin.busy", "modlin", "span_equal", None),
    ("modlin.busy", "modlin", "cyclic_basis", None),
    ("modlin.busy", "modlin", "solve_mod", None),
    ("cli.spec_load", "cli", "load_ring_spec", None),
    ("cli.spec_load", "cli", "load_qp_spec", None),
    ("cli.spec_load", "cli", "load_subring_spec", None),
)

# Spans recorded without a TARGETS entry: the import of orbitkit.cli, timed
# by the job's process, and numpy's eig as oracle calls it.
EXTRA_SPANS = ("cli.import", "oracle.eig")

SPAN_NAMES = tuple(dict.fromkeys([t[0] for t in TARGETS] + list(EXTRA_SPANS)))


class _Forward:
    """Stand-in for a module: the given attributes, then the module's."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(recorder):
    """Wrap every target in the loaded orbitkit modules; return the misses."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "orbitkit"
                                     or name.startswith("orbitkit."))]
    missing = []
    for span, modname, path, counter in TARGETS:
        owner = sys.modules.get(f"orbitkit.{modname}")
        cls_name, _, attr = path.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            missing.append(f"{modname}.{path}")
            continue
        wrapped = recorder.wrap(span, original, counter)
        if cls_name:
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
    oracle = sys.modules.get("orbitkit.oracle")
    numpy = sys.modules.get("numpy")
    if oracle is not None and getattr(oracle, "np", None) is numpy:
        linalg = _Forward(numpy.linalg,
                          eig=recorder.wrap("oracle.eig", numpy.linalg.eig))
        oracle.np = _Forward(numpy, linalg=linalg)
    else:
        missing.append("oracle.np.linalg.eig")
    return missing


def layer_metrics(jobs):
    """Per-layer metrics of one pass; ``jobs`` holds (job seconds, spans).

    The self times of all spans plus ``trace.unattributed_s`` add up to
    ``trace.job_s``, the summed duration of the jobs.
    """
    own_s = defaultdict(float)
    inclusive_s = defaultdict(float)
    calls = Counter()
    work = Counter()
    entries = Counter()
    tables = 0
    job_s = unattributed_s = 0.0
    for total, spans in jobs:
        job_s += total
        unattributed_s += total - top_level_time(spans)
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            name, start, end, parent, count = span
            own_s[name] += own
            calls[name] += 1
            work[name] += count
            if outermost(spans, i):
                inclusive_s[name] += end - start
            layer = name.split(".")[0]
            if parent < 0 or spans[parent][0].split(".")[0] != layer:
                entries[layer] += 1
            if name == "oracle.character_table" and count:
                tables += 1

    def rate(span):
        return work[span] / inclusive_s[span] if inclusive_s[span] else 0.0

    out = {f"{name}_s": own_s[name] for name in SPAN_NAMES}
    out.update({
        "freelie.bch_calls": calls["freelie.bch"],
        "chsolver.solves": calls["chsolver.solve_phi_psi"],
        "liering.ch_products": work["liering.ch_batch"],
        "liering.ch_products_per_s": rate("liering.ch_batch"),
        "liering.bracket_pairs": work["liering.bracket_batch"],
        "liering.bracket_pairs_per_s": rate("liering.bracket_batch"),
        "liering.conjugations": work["liering.conjugate_batch"],
        "liering.exp_ad_matrix_calls": calls["liering.exp_ad_matrix"],
        "harmonic.calls": entries["harmonic"],
        "orbitmethod.orbits": work["orbitmethod.coadjoint_orbits"],
        "orbitmethod.kirillov_calls": calls["orbitmethod.kirillov_character"],
        "oracle.classes": work["oracle.conjugacy_classes"],
        "oracle.eig_attempts": calls["oracle.eig"],
        "oracle.eig_useful_ratio": (tables / work["oracle.character_table"]
                                    if work["oracle.character_table"]
                                    else 0.0),
        "ratlin.calls": entries["ratlin"],
        "modlin.calls": entries["modlin"],
        "trace.job_s": job_s,
        "trace.unattributed_s": unattributed_s,
    })
    return out
