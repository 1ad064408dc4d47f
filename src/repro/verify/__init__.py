"""Differential fuzzing and invariant auditing (the correctness backstop).

Algebraic factorization is function-preserving, so simulation is a
universal oracle: run any factorization path on a random network and the
primary outputs must not change.  This package industrializes that
oracle:

- :mod:`~repro.verify.generator` — seeded random-network families
  (dense, sparse, duplicate-cube, shared-kernel, degenerate),
- :mod:`~repro.verify.paths` — the registry of factorization paths
  driven differentially,
- :mod:`~repro.verify.fuzz` — the fuzz driver (structure, equivalence,
  literal-count bounds),
- :mod:`~repro.verify.shrink` — the greedy failure minimizer,
- :mod:`~repro.verify.corpus` — minimal-repro persistence and replay
  (``tests/fuzz_corpus/``),
- :mod:`~repro.verify.audit` — the ``REPRO_CHECK=1`` sanitizer-style
  invariant audits wired into :class:`KCMatrix`/:class:`CubeStateStore`.

Only :mod:`~repro.verify.audit` is imported eagerly — it is a dependency
of the rectangle search itself; everything else loads lazily so importing
:mod:`repro.rectangles` does not drag in the parallel algorithms.
"""

from repro.verify import audit
from repro.verify.audit import InvariantViolation, set_audits

_LAZY = {
    "random_network": "repro.verify.generator",
    "FAMILIES": "repro.verify.generator",
    "FactorPath": "repro.verify.paths",
    "all_paths": "repro.verify.paths",
    "get_path": "repro.verify.paths",
    "FuzzConfig": "repro.verify.fuzz",
    "FuzzFailure": "repro.verify.fuzz",
    "FuzzReport": "repro.verify.fuzz",
    "run_fuzz": "repro.verify.fuzz",
    "check_path": "repro.verify.fuzz",
    "shrink_network": "repro.verify.shrink",
    "save_repro": "repro.verify.corpus",
    "load_corpus": "repro.verify.corpus",
    "replay_entry": "repro.verify.corpus",
    "CorpusEntry": "repro.verify.corpus",
}

__all__ = ["audit", "InvariantViolation", "set_audits"] + sorted(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
