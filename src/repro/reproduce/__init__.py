"""``repro.reproduce`` — the artifact-grade one-command reproduction
harness.

One registry (:mod:`~repro.reproduce.registry`) declares every
EXPERIMENTS.md figure/table and the BENCH suite; :func:`~repro.
reproduce.harness.run_profile` runs it under a ``quick`` (warm-cache,
~5 min) or ``full`` (cold-cache) profile, validates fresh result
digests against the committed goldens in ``benchmarks/goldens/``, and
emits ``reproduce_report.json`` plus a human pass/fail table.  The doc
generator (``scripts/generate_experiments_md.py``) renders the same
registry, so the published document and the validator cannot drift.

Entry points: ``repro reproduce`` (CLI), ``scripts/run_all.sh``
(wrapper), ``repro reproduce --bless`` (golden-update workflow — see
docs/REPRODUCE.md).
"""

from .digest import canonical_json, result_digest
from .goldens import (
    DEFAULT_GOLDENS_DIR,
    load_golden,
    make_golden,
    save_golden,
    validate,
)
from .harness import (
    check_registry,
    render_document,
    run_profile,
)
from .registry import (
    EXEMPT_TITLES,
    EXPERIMENTS_HEADER,
    REGISTRY,
    EntryOutcome,
    ReproEntry,
    RunContext,
    Section,
    document_titles,
    entry_names,
    find,
    registered_titles,
)
from .report import (
    PROFILE_BUDGETS_S,
    REPORT_SCHEMA_VERSION,
    EntryReport,
    ReproduceReport,
)

__all__ = [
    "DEFAULT_GOLDENS_DIR",
    "EXEMPT_TITLES",
    "EXPERIMENTS_HEADER",
    "EntryOutcome",
    "EntryReport",
    "PROFILE_BUDGETS_S",
    "REGISTRY",
    "REPORT_SCHEMA_VERSION",
    "ReproEntry",
    "ReproduceReport",
    "RunContext",
    "Section",
    "canonical_json",
    "check_registry",
    "document_titles",
    "entry_names",
    "find",
    "load_golden",
    "make_golden",
    "registered_titles",
    "render_document",
    "result_digest",
    "run_profile",
    "save_golden",
    "validate",
]
