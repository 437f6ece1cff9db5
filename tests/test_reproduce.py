"""The reproduction harness: registry completeness, golden validation,
and digest properties.

Three layers of protection:

* **Completeness** — every EXPERIMENTS.md heading is rendered by
  exactly one registry entry, in document order, and every entry has a
  committed, internally consistent golden (``check_registry``).
* **End-to-end** — cheap entries run under the quick profile against
  the committed goldens and pass; a deliberately corrupted golden
  fails, naming the entry, through both the harness and the CLI exit
  path.
* **Digest properties** — hypothesis fuzz: any single-field
  perturbation of a payload changes its digest, and dict insertion
  order never does.

The serve, shard, fleet and faults-availability goldens are also
re-checked under a pure-Python copy of Python 3.12's compensated
``sum()`` installed as the builtin, so 3.10 and 3.11 runs catch a
production float sum that would change a digest on 3.12.
"""

import builtins
import copy
import json
import math
import os
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.reproduce import (
    DEFAULT_GOLDENS_DIR,
    EXEMPT_TITLES,
    REGISTRY,
    EntryReport,
    ReproduceReport,
    canonical_json,
    check_registry,
    document_titles,
    entry_names,
    registered_titles,
    result_digest,
    run_profile,
)
from repro.perf.bench import clear_process_caches


class TestRegistryCompleteness:
    """EXPERIMENTS.md and the registry are the same list, both ways."""

    def test_every_document_section_is_registered(self):
        with open("EXPERIMENTS.md") as handle:
            titles = [t for t in document_titles(handle.read())
                      if t not in EXEMPT_TITLES]
        assert titles == registered_titles(), \
            "EXPERIMENTS.md headings drifted from the registry — " \
            "regenerate via scripts/generate_experiments_md.py or " \
            "register the new section"

    def test_entry_names_unique_and_kebab(self):
        names = entry_names()
        assert len(names) == len(set(names))
        for name in names:
            assert name == name.lower().strip()

    def test_bench_runs_last(self):
        # BENCH clears process caches around every measurement; nothing
        # may depend on a warm memo after it, so it must close the run.
        assert REGISTRY[-1].kind == "bench"
        assert all(e.kind == "experiment" for e in REGISTRY[:-1])

    def test_check_registry_passes_on_committed_state(self):
        assert check_registry() == []

    def test_every_entry_has_a_committed_golden(self):
        for entry in REGISTRY:
            profiles = ("quick", "full") if entry.per_profile else ("full",)
            for profile in profiles:
                path = os.path.join(DEFAULT_GOLDENS_DIR,
                                    f"{entry.golden_key(profile)}.json")
                assert os.path.exists(path), f"missing golden {path}"

    def test_exact_goldens_are_self_consistent(self):
        for entry in REGISTRY:
            if entry.validation != "exact":
                continue
            path = os.path.join(DEFAULT_GOLDENS_DIR,
                                f"{entry.golden_key('full')}.json")
            with open(path) as handle:
                golden = json.load(handle)
            assert golden["digest"] == result_digest(golden["payload"])
            assert golden["name"] == entry.name


class TestQuickProfileEndToEnd:
    """Cheap entries, real goldens: run -> validate -> report."""

    def test_quick_entries_pass_against_committed_goldens(self, tmp_path):
        report = run_profile(profile="quick", only=["table1", "fig16"],
                             cache_dir=str(tmp_path / "explore"))
        assert [e.status for e in report.entries] == ["pass", "pass"]
        assert report.ok
        assert report.failures == []
        assert report.profile == "quick"
        assert report.budget_s == 300.0
        for entry in report.entries:
            assert entry.digest == entry.golden_digest

    def test_corrupted_golden_fails_naming_the_entry(self, tmp_path):
        goldens = tmp_path / "goldens"
        goldens.mkdir()
        with open(os.path.join(DEFAULT_GOLDENS_DIR, "fig16.json")) as fh:
            golden = json.load(fh)
        first_key = next(iter(golden["payload"]["rows"]))
        golden["payload"]["rows"][first_key] += 1.0
        golden["digest"] = result_digest(golden["payload"])
        with open(goldens / "fig16.json", "w") as fh:
            json.dump(golden, fh)
        report = run_profile(profile="quick", only=["fig16"],
                             goldens_dir=str(goldens),
                             cache_dir=str(tmp_path / "explore"))
        assert not report.ok
        assert report.failures == ["fig16"]
        (entry,) = report.entries
        assert entry.status == "fail"
        assert any("digest mismatch" in f for f in entry.failures)

    def test_cli_exits_nonzero_naming_the_corrupted_entry(self, tmp_path):
        from repro.cli import main

        goldens = tmp_path / "goldens"
        goldens.mkdir()
        with open(os.path.join(DEFAULT_GOLDENS_DIR, "fig16.json")) as fh:
            golden = json.load(fh)
        golden["digest"] = "0" * 64
        with open(goldens / "fig16.json", "w") as fh:
            json.dump(golden, fh)
        with pytest.raises(SystemExit) as excinfo:
            main(["reproduce", "--only", "fig16",
                  "--goldens-dir", str(goldens),
                  "--cache-dir", str(tmp_path / "explore"),
                  "--out", str(tmp_path / "reproduce_report.json")])
        assert "fig16" in str(excinfo.value)
        with open(tmp_path / "reproduce_report.json") as fh:
            doc = json.load(fh)
        assert doc["ok"] is False
        assert doc["failures"] == ["fig16"]

    def test_unknown_entry_is_an_error(self):
        with pytest.raises(KeyError):
            run_profile(only=["does-not-exist"])

    def test_blessing_writes_a_loadable_golden(self, tmp_path):
        goldens = tmp_path / "goldens"
        report = run_profile(profile="quick", only=["fig16"], bless=True,
                             goldens_dir=str(goldens),
                             cache_dir=str(tmp_path / "explore"))
        assert report.blessed
        assert report.entries[0].status == "blessed"
        check = run_profile(profile="quick", only=["fig16"],
                            goldens_dir=str(goldens),
                            cache_dir=str(tmp_path / "explore"))
        assert check.ok


class TestBenchBandPolicy:
    """The band validator mirrors check_regression.py plus the
    short-reference-leg guard."""

    @staticmethod
    def _golden(ref_wall_s):
        row = {"name": "perf_sim", "points": 20,
               "speedup_vs_reference": 4.0}
        if ref_wall_s is not None:
            row["ref_wall_s"] = ref_wall_s
        return {"payload": {"rows": [row]}}

    @staticmethod
    def _fresh(speedup):
        return {"rows": [{"name": "perf_sim", "points": 20,
                          "speedup_vs_reference": speedup,
                          "ref_wall_s": 0.012}]}

    def test_short_reference_leg_is_not_enforced(self):
        from repro.reproduce.goldens import validate_bench_band
        assert validate_bench_band(
            self._fresh(1.5), self._golden(ref_wall_s=0.012)) == []

    def test_long_reference_leg_is_enforced(self):
        from repro.reproduce.goldens import validate_bench_band
        failures = validate_bench_band(
            self._fresh(1.5), self._golden(ref_wall_s=1.0))
        assert failures and "below floor" in failures[0]

    def test_legacy_golden_without_ref_wall_is_enforced(self):
        from repro.reproduce.goldens import validate_bench_band
        failures = validate_bench_band(
            self._fresh(1.5), self._golden(ref_wall_s=None))
        assert failures and "below floor" in failures[0]

    def test_within_band_passes_regardless(self):
        from repro.reproduce.goldens import validate_bench_band
        assert validate_bench_band(
            self._fresh(3.9), self._golden(ref_wall_s=1.0)) == []


class TestReportSchema:
    """``reproduce_report.json`` round-trips exactly."""

    @staticmethod
    def _sample() -> ReproduceReport:
        return ReproduceReport(
            profile="quick", repro_version="1.9.0", cold=False,
            budget_s=300.0, wall_s=12.5,
            entries=[
                EntryReport(name="fig16", kind="experiment",
                            validation="exact", status="pass",
                            wall_s=0.4, digest="a" * 64,
                            golden_digest="a" * 64),
                EntryReport(name="bench", kind="bench",
                            validation="bench-band", status="fail",
                            wall_s=30.0,
                            failures=["benchmark 'compile': speedup "
                                      "1.00x below floor 2.00x"]),
            ])

    def test_round_trip(self):
        report = self._sample()
        rebuilt = ReproduceReport.from_dict(
            json.loads(report.to_json()))
        assert rebuilt == report

    def test_derived_fields(self):
        doc = self._sample().to_dict()
        assert doc["ok"] is False
        assert doc["failures"] == ["bench"]
        assert doc["schema_version"] == 1

    def test_table_names_failures(self):
        table = self._sample().table()
        assert "FAIL (bench)" in table
        assert "below floor" in table


# -- digest property fuzz ---------------------------------------------------

_leaves = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)

_payloads = st.dictionaries(
    st.text(min_size=1, max_size=6),
    st.recursive(
        _leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.dictionaries(st.text(min_size=1, max_size=4), children,
                            max_size=3)),
        max_leaves=8),
    min_size=1, max_size=4)


def _leaf_paths(node, prefix=()):
    """Every path to a JSON leaf in ``node`` (dicts/lists traversed)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaf_paths(value, prefix + (index,))
    else:
        yield prefix


def _get(node, path):
    for step in path:
        node = node[step]
    return node


def _set(node, path, value):
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value


class TestDigestProperties:
    """No silent collisions: perturbations change the digest, dict
    ordering never does."""

    @settings(max_examples=200, deadline=None)
    @given(payload=_payloads, data=st.data())
    def test_any_single_field_perturbation_changes_the_digest(
            self, payload, data):
        paths = list(_leaf_paths(payload))
        assume(paths)
        path = data.draw(st.sampled_from(paths))
        replacement = data.draw(_leaves)
        # "Different field value" means canonically different — 2 and
        # 2.0 (or 1 and True) serialize apart by design, while an equal
        # float reached by another route is the same result.
        assume(canonical_json(replacement) !=
               canonical_json(_get(payload, path)))
        mutated = copy.deepcopy(payload)
        _set(mutated, path, replacement)
        assert result_digest(mutated) != result_digest(payload)

    @settings(max_examples=100, deadline=None)
    @given(payload=_payloads)
    def test_dict_insertion_order_never_matters(self, payload):
        reordered = dict(reversed(list(payload.items())))
        assert result_digest(reordered) == result_digest(payload)

    def test_nan_payloads_are_rejected(self):
        with pytest.raises(ValueError):
            result_digest({"x": float("nan")})

    def test_float_formatting_is_repr_exact(self):
        assert result_digest({"x": 0.1}) != result_digest({"x": 0.1 + 1e-16})
        assert result_digest({"x": -0.0}) != result_digest({"x": 0.0})


class TestColdAssertion:
    """The full profile proves its cold-cache promise."""

    def test_full_profile_records_cold_and_populates_fresh_cache(
            self, tmp_path):
        report = run_profile(profile="full", only=["shard"], bless=True,
                             goldens_dir=str(tmp_path / "goldens"))
        assert report.cold
        assert report.entries[0].status == "blessed"

    def test_quick_profile_is_not_cold(self, tmp_path):
        report = run_profile(profile="quick", only=["fig16"], bless=True,
                             goldens_dir=str(tmp_path / "goldens"),
                             cache_dir=str(tmp_path / "explore"))
        assert not report.cold


#: The C ``long`` range: ``sum()`` keeps exact ints in a machine word
#: while they fit.
_LONG_MIN, _LONG_MAX = -(1 << 63), (1 << 63) - 1


def compensated_sum(iterable, /, start=0):
    """A pure-Python copy of CPython 3.12's builtin ``sum()``.

    Exact ints add in a machine word until a term or the total leaves
    it.  A float total then adds exact floats with Neumaier
    compensation, adds int terms without it, and folds the compensation
    in when it leaves that path or at the end (only when non-zero and
    finite).  Everything else adds with ``+``.  Python 3.10 and 3.11
    run the same paths with no compensation, i.e. strictly left to
    right.
    """
    if isinstance(start, str):
        raise TypeError("sum() can't sum strings [use ''.join(seq) instead]")
    if isinstance(start, (bytes, bytearray)):
        raise TypeError("sum() can't sum bytes [use b''.join(seq) instead]")
    items = iter(iterable)
    result = start
    if type(result) is int and _LONG_MIN <= result <= _LONG_MAX:
        total = result
        for item in items:
            if (type(item) in (int, bool) and _LONG_MIN <= item <= _LONG_MAX
                    and _LONG_MIN <= total + item <= _LONG_MAX):
                total += item
                continue
            result = total + item
            break
        else:
            return total
    if type(result) is float:
        total, comp = result, 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    comp += (total - step) + item
                else:
                    comp += (item - step) + total
                total = step
                continue
            if isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in items:
        result = result + item
    return result


class TestCompensatedSum:
    """Digest-pinned results do not depend on ``sum()``'s float order."""

    def test_copy_compensates_floats_and_keeps_ints_exact(self):
        assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
        assert compensated_sum([0.1] * 10) == 1.0
        assert compensated_sum([2**62, 2**62, 1.5]) == 2.0**63 + 1.5
        total = compensated_sum([1, True, 2**70])
        assert total == 2**70 + 2 and type(total) is int

    @pytest.mark.skipif(sys.version_info[:2] != (3, 12),
                        reason="compares the copy with the 3.12 builtin")
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.integers(), st.booleans())),
           st.one_of(st.just(0), st.floats(), st.integers()))
    def test_copy_matches_the_3_12_builtin(self, values, start):
        assert repr(compensated_sum(values, start)) == \
            repr(sum(values, start))

    def test_goldens_hold_under_the_compensated_sum(self, tmp_path,
                                                    monkeypatch):
        names = ["serve", "shard", "fleet", "faults-availability"]
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        # run_profile empties the process memos before it starts; empty
        # them again afterwards so no later test reads an entry
        # computed under the copy.
        try:
            report = run_profile(profile="quick", only=names,
                                 cache_dir=str(tmp_path))
        finally:
            clear_process_caches()
        assert [(e.name, e.status, e.failures)
                for e in report.entries] == \
            [(name, "pass", []) for name in names]
