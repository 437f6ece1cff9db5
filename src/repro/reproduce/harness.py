"""One-command reproduction: run the registry, validate the goldens.

:func:`run_profile` is the engine behind ``repro reproduce`` and
``scripts/run_all.sh``: it materializes every :data:`~repro.reproduce.
registry.REGISTRY` entry under one of two profiles —

* ``quick`` — warm-cache friendly: experiments ride the user's explore
  result cache and BENCH runs its shrunk workloads.  The ~5-minute
  artifact-evaluation pass.
* ``full``  — cold by construction: the explore cache is redirected to
  an empty temporary directory (emptiness asserted before, misses
  asserted after) and BENCH runs its full workloads.

Both profiles start from empty in-process memos
(:func:`~repro.perf.bench.clear_process_caches`).

Fresh results are digested and compared against the committed goldens
(:mod:`repro.reproduce.goldens`); freshly rendered document sections
are compared against the committed EXPERIMENTS.md, so a stale document
fails the same run that a wrong number does.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from .. import __version__
from ..explore import SweepRunner, default_cache_dir
from . import goldens as goldens_mod
from .digest import result_digest
from .registry import (
    EXEMPT_TITLES,
    EXPERIMENTS_HEADER,
    REGISTRY,
    RunContext,
    document_titles,
    entry_names,
)
from .report import PROFILE_BUDGETS_S, EntryReport, ReproduceReport

#: Where the rendered document lives, relative to the repo root.
EXPERIMENTS_MD = "EXPERIMENTS.md"


def _section_map(markdown: str) -> Dict[str, str]:
    """``{heading: content}`` for a rendered EXPERIMENTS.md text.

    Content is everything between one ``## `` heading and the next,
    with the generation-time footer dropped and whitespace stripped —
    the form the drift check compares.
    """
    sections: Dict[str, str] = {}
    title: Optional[str] = None
    lines: List[str] = []

    def flush() -> None:
        if title is not None:
            body = [ln for ln in lines
                    if not ln.startswith("*Total generation time")]
            sections[title] = "\n".join(body).strip()

    for line in markdown.splitlines():
        if line.startswith("## "):
            flush()
            title = line[3:].strip()
            lines = []
        elif title is not None:
            lines.append(line)
    flush()
    return sections


def _rendered_content(section) -> str:
    """A freshly rendered section in the drift check's comparable form."""
    rendered = section.render()
    return rendered.split("\n", 1)[1].strip()


def render_document(sections: Sequence, elapsed_s: float) -> str:
    """The complete EXPERIMENTS.md text from rendered sections."""
    parts = [EXPERIMENTS_HEADER]
    parts += [section.render() for section in sections]
    parts.append(f"\n*Total generation time: {elapsed_s:.0f}s*\n")
    return "".join(parts)


def run_profile(profile: str = "quick",
                only: Optional[Sequence[str]] = None,
                bless: bool = False,
                workers: int = 1,
                cache_dir: Optional[str] = None,
                goldens_dir: str = goldens_mod.DEFAULT_GOLDENS_DIR,
                experiments_md: str = EXPERIMENTS_MD,
                progress=None) -> ReproduceReport:
    """Run the registry under ``profile`` and validate (or bless) it.

    ``only`` narrows to the named entries (validation still runs; the
    document-drift check covers just their sections).  ``bless``
    rewrites the goldens from this run instead of checking them — and,
    when the run covered every entry, regenerates EXPERIMENTS.md too.
    ``progress`` (callable taking one string) receives per-entry status
    lines; ``repro reproduce`` points it at stderr.
    """
    say = progress or (lambda message: None)
    chosen = _select(only)
    report = ReproduceReport(profile=profile, repro_version=__version__,
                             blessed=bless, cold=(profile == "full"),
                             budget_s=PROFILE_BUDGETS_S.get(profile, 0.0))
    t_run = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if profile == "full":
            explore_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-reproduce-cold-"))
            if os.listdir(explore_dir):
                raise RuntimeError(
                    f"cold explore cache {explore_dir} is not empty")
        else:
            explore_dir = cache_dir or default_cache_dir()
        from ..perf.bench import clear_process_caches
        clear_process_caches()
        ctx = RunContext(
            runner=SweepRunner(workers=workers, cache_dir=explore_dir),
            profile=profile)
        rendered_sections = []
        for entry in chosen:
            say(f"running {entry.name} ...")
            entry_report, sections = _run_entry(entry, ctx, bless,
                                                goldens_dir)
            report.entries.append(entry_report)
            rendered_sections.extend(sections)
        swept = any(entry.uses_runner for entry in chosen)
        if profile == "full" and swept and not os.listdir(explore_dir):
            # Entries ran but the cold cache stayed empty: nothing was
            # actually recomputed, so the "cold" promise is broken.
            report.cold = False
            for entry_report in report.entries:
                if entry_report.kind == "experiment":
                    entry_report.status = "fail"
                    entry_report.failures.append(
                        "cold-cache assertion: no sweep results were "
                        "written to the fresh cache directory")
    report.wall_s = time.perf_counter() - t_run
    chosen_names = {entry.name for entry in chosen}
    full_coverage = all(entry.name in chosen_names
                        for entry in REGISTRY if entry.titles)
    if bless and full_coverage:
        doc = render_document(rendered_sections, report.wall_s)
        with open(experiments_md, "w") as handle:
            handle.write(doc)
        say(f"wrote {experiments_md}")
    elif not bless:
        _check_document_drift(report, rendered_sections, experiments_md)
    return report


def _select(only: Optional[Sequence[str]]):
    """The registry entries to run, preserving document order."""
    if not only:
        return list(REGISTRY)
    wanted = list(only)
    known = set(entry_names())
    unknown = [name for name in wanted if name not in known]
    if unknown:
        raise KeyError(f"unknown entries {unknown}; "
                       f"choose from {entry_names()}")
    return [entry for entry in REGISTRY if entry.name in wanted]


def _run_entry(entry, ctx, bless: bool, goldens_dir: str):
    """Run one entry, then bless or validate its golden.

    Returns ``(EntryReport, sections)`` — the rendered sections feed
    the document drift check (empty when the entry errored).
    """
    t0 = time.perf_counter()
    try:
        outcome = entry.run(ctx)
    except Exception as exc:  # noqa: BLE001 - an entry crashing must be
        # reported as that entry's failure, not abort the whole run.
        return EntryReport(
            name=entry.name, kind=entry.kind, validation=entry.validation,
            status="error", wall_s=time.perf_counter() - t0,
            failures=[f"{type(exc).__name__}: {exc}"]), ()
    wall = time.perf_counter() - t0
    key = entry.golden_key(ctx.profile)
    digest = result_digest(outcome.payload) \
        if entry.validation == "exact" else None
    if bless:
        golden = goldens_mod.make_golden(
            entry.name, entry.kind, entry.validation, outcome.payload,
            __version__)
        goldens_mod.save_golden(goldens_dir, key, golden)
        return EntryReport(
            name=entry.name, kind=entry.kind, validation=entry.validation,
            status="blessed", wall_s=wall,
            digest=digest), outcome.sections
    golden = goldens_mod.load_golden(goldens_dir, key)
    failures = goldens_mod.validate(entry.validation, outcome.payload,
                                    golden, key)
    return EntryReport(
        name=entry.name, kind=entry.kind, validation=entry.validation,
        status="pass" if not failures else "fail", wall_s=wall,
        digest=digest,
        golden_digest=(golden or {}).get("digest"),
        failures=failures), outcome.sections


def _check_document_drift(report: ReproduceReport, sections,
                          experiments_md: str) -> None:
    """Fail entries whose committed EXPERIMENTS.md section differs from
    the freshly rendered one (stale doc == failed reproduction)."""
    try:
        with open(experiments_md) as handle:
            committed = _section_map(handle.read())
    except FileNotFoundError:
        committed = {}
    drifted: Dict[str, str] = {}
    for section in sections:
        if section.title in EXEMPT_TITLES:
            continue
        have = committed.get(section.title)
        if have is None:
            drifted[section.title] = "section missing from the document"
        elif have != _rendered_content(section):
            drifted[section.title] = "section text differs from this run"
    if not drifted:
        return
    by_title = {title: entry_report
                for entry, entry_report in zip(_ordered_entries(report),
                                               report.entries)
                for title in entry.titles}
    for title, why in drifted.items():
        entry_report = by_title.get(title)
        if entry_report is None:
            continue
        if entry_report.status == "pass":
            entry_report.status = "fail"
        entry_report.failures.append(
            f"{experiments_md} drift — {title!r}: {why} "
            f"(regenerate with `repro reproduce --bless --profile full`)")


def _ordered_entries(report: ReproduceReport):
    """The registry entries this report ran, in report order."""
    by_name = {entry.name: entry for entry in REGISTRY}
    return [by_name[entry_report.name] for entry_report in report.entries]


def check_registry(goldens_dir: str = goldens_mod.DEFAULT_GOLDENS_DIR,
                   experiments_md: str = EXPERIMENTS_MD) -> List[str]:
    """The cheap consistency check behind ``repro reproduce --check``.

    Runs no generators.  Verifies (1) the committed EXPERIMENTS.md
    headings equal the registered section titles, in order; (2) every
    entry has its committed golden(s); (3) exact goldens are internally
    consistent (stored digest matches their stored payload).  Returns
    failure messages; empty means consistent.
    """
    failures: List[str] = []
    try:
        with open(experiments_md) as handle:
            titles = [t for t in document_titles(handle.read())
                      if t not in EXEMPT_TITLES]
    except FileNotFoundError:
        return [f"{experiments_md} does not exist"]
    from .registry import registered_titles
    expected = registered_titles()
    if titles != expected:
        missing = [t for t in expected if t not in titles]
        extra = [t for t in titles if t not in expected]
        detail = []
        if missing:
            detail.append(f"unrendered in the document: {missing}")
        if extra:
            detail.append(f"unregistered in the registry: {extra}")
        if not detail:
            detail.append("section order differs")
        failures.append(f"{experiments_md} headings != registry titles "
                        f"({'; '.join(detail)})")
    for entry in REGISTRY:
        keys = [entry.golden_key(p) for p in ("quick", "full")] \
            if entry.per_profile else [entry.golden_key("full")]
        for key in keys:
            golden = goldens_mod.load_golden(goldens_dir, key)
            if golden is None:
                failures.append(f"missing golden {key!r} under "
                                f"{goldens_dir}")
                continue
            if entry.validation == "exact" and \
                    golden.get("digest") != result_digest(golden["payload"]):
                failures.append(
                    f"golden {key!r}: stored digest does not match its "
                    f"stored payload (hand-edited?)")
    return failures
