"""The reproduction harness: registry completeness, golden validation,
digest properties, and the disk-memo isolation fix.

Four layers of protection:

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
* **Isolation** — ``REPRO_DISK_CACHE=1`` plus a reproduce run must
  never clear the user's persistent compile memo (the cold protocol
  re-roots into a temp store instead).
"""

import copy
import json
import os

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
    isolated_disk_cache,
    registered_titles,
    result_digest,
    run_profile,
)


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


class TestDiskCacheIsolation:
    """The REPRO_DISK_CACHE=1 regression: a reproduce run must never
    clear the user's persistent compile memo."""

    def test_isolated_disk_cache_survives_process_cache_clear(
            self, tmp_path, monkeypatch):
        from repro.explore import runner as runner_mod
        from repro.perf.bench import clear_process_caches
        from repro.perf.diskcache import SCHEMA_VERSION, DiskCompileCache

        user_store = tmp_path / "user-memo"
        version_dir = user_store / f"v{SCHEMA_VERSION}"
        version_dir.mkdir(parents=True)
        sentinel = version_dir / "profiles-cafe.pkl"
        sentinel.write_bytes(b"user data")
        monkeypatch.setenv("REPRO_DISK_CACHE", "1")
        monkeypatch.setenv("REPRO_COMPILE_CACHE_DIR", str(user_store))
        original_cache = runner_mod._PROCESS_CACHE
        with isolated_disk_cache():
            assert isinstance(runner_mod._PROCESS_CACHE, DiskCompileCache)
            assert not runner_mod._PROCESS_CACHE.root.startswith(
                str(user_store))
            assert os.environ["REPRO_COMPILE_CACHE_DIR"] != str(user_store)
            # The operation that used to delete the user's on-disk
            # store (DiskCompileCache.clear drops the current root).
            clear_process_caches()
        assert sentinel.read_bytes() == b"user data"
        assert os.environ["REPRO_COMPILE_CACHE_DIR"] == str(user_store)
        assert runner_mod._PROCESS_CACHE is original_cache

    def test_isolation_is_a_noop_when_disk_cache_is_off(self, monkeypatch):
        from repro.explore import runner as runner_mod

        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        original = runner_mod._PROCESS_CACHE
        with isolated_disk_cache():
            assert runner_mod._PROCESS_CACHE is original

    def test_full_profile_run_leaves_user_memo_intact(
            self, tmp_path, monkeypatch):
        user_store = tmp_path / "user-memo"
        (user_store / "v1").mkdir(parents=True)
        sentinel = user_store / "v1" / "dups-beef.pkl"
        sentinel.write_bytes(b"precious")
        monkeypatch.setenv("REPRO_DISK_CACHE", "1")
        monkeypatch.setenv("REPRO_COMPILE_CACHE_DIR", str(user_store))
        report = run_profile(profile="full", only=["fig16"], bless=True,
                             goldens_dir=str(tmp_path / "goldens"))
        assert report.entries[0].status == "blessed"
        assert sentinel.read_bytes() == b"precious"
        assert os.environ["REPRO_COMPILE_CACHE_DIR"] == str(user_store)


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
