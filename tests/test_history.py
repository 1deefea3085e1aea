"""History ingestion tests: file filters, bundles, and git repositories."""

from __future__ import annotations

import fnmatch
import json
import random
from pathlib import Path

import pytest

from tempred import history
from tempred.errors import BranchNotFoundError, BundleFormatError, RepositoryNotFoundError
from tempred.history import (
    CommitRecord,
    FileChange,
    FileFilterRules,
    export_bundle,
    filter_files,
    glob_to_regex,
    load_history_bundle,
    open_repository,
)
from tempred.report import AnalysisConfig, run_analysis

# ---------------------------------------------------------------------------
# File filtering
# ---------------------------------------------------------------------------


def reference_glob_match(pattern: str, path: str) -> bool:
    """Second, structurally different glob matcher: recursive segment walk."""

    def walk(pseg: list[str], sseg: list[str]) -> bool:
        if not pseg:
            return not sseg
        head, rest = pseg[0], pseg[1:]
        if head == "**":
            if not rest:
                return len(sseg) >= 1
            return any(walk(rest, sseg[skip:]) for skip in range(len(sseg) + 1))
        if not sseg:
            return False
        if not fnmatch.fnmatchcase(sseg[0], head):
            return False
        return walk(rest, sseg[1:])

    return walk(pattern.split("/"), path.split("/"))


def _fc(path: str) -> FileChange:
    return FileChange(path=path, before=None, after="x\n")


def test_default_rules_drop_test_directories():
    changes = [_fc("src/main/A.java"), _fc("src/test/ATest.java")]
    kept = filter_files(changes, FileFilterRules())
    assert [fc.path for fc in kept] == ["src/main/A.java"]


def test_default_rules_drop_non_java():
    assert filter_files([_fc("README.md")], FileFilterRules()) == []


def test_default_rules_drop_test_suffixes():
    paths = [
        "src/FooTest.java",
        "src/FooTests.java",
        "src/FooTestCase.java",
        "src/Foo.java",
        "tests/Foo.java",
        "Foo.java",
    ]
    kept = filter_files([_fc(p) for p in paths], FileFilterRules())
    assert [fc.path for fc in kept] == ["src/Foo.java", "Foo.java"]


def test_filter_preserves_order_and_allows_empty_result():
    rules = FileFilterRules(include_globs=("**/*.java",), exclude_globs=("**/*.java",))
    assert filter_files([_fc("A.java")], rules) == []


def test_glob_matching_agrees_with_independent_matcher():
    rng = random.Random(20_240_101)
    segments = ["src", "main", "test", "tests", "a", "b1", "Foo.java", "FooTest.java",
                "x.txt", "deep"]
    patterns = [
        "**/*.java",
        "**/test/**",
        "**/tests/**",
        "**/*Test.java",
        "**/*Tests.java",
        "**/*TestCase.java",
        "src/**",
        "src/*/Foo.java",
        "**/b?/**",
        "*.java",
        "**",
    ]
    for _ in range(400):
        path = "/".join(rng.choices(segments, k=rng.randint(1, 4)))
        for pattern in patterns:
            mine = bool(glob_to_regex(pattern).match(path))
            theirs = reference_glob_match(pattern, path)
            assert mine == theirs, f"{pattern!r} vs {path!r}: {mine} != {theirs}"


def test_retained_set_matches_reference_implementation():
    rng = random.Random(7)
    segments = ["src", "test", "main", "Foo.java", "Bar.java", "BazTest.java", "doc.md"]
    rules = FileFilterRules()
    changes = [
        _fc("/".join(rng.choices(segments, k=rng.randint(1, 4)))) for _ in range(20)
    ]
    expected = [
        fc.path
        for fc in changes
        if any(reference_glob_match(p, fc.path) for p in rules.include_globs)
        and not any(reference_glob_match(p, fc.path) for p in rules.exclude_globs)
    ]
    assert [fc.path for fc in filter_files(changes, rules)] == expected


def test_filter_memo_agrees_with_the_rules_and_stays_out_of_eq_and_repr(monkeypatch):
    monkeypatch.setattr(history, "FILTER_MEMO_ENTRIES", 5)
    rng = random.Random(11)
    segments = ["src", "test", "main", "Foo.java", "BazTest.java", "doc.md"]
    paths = ["/".join(rng.choices(segments, k=rng.randint(1, 3))) for _ in range(60)]
    rules = FileFilterRules()
    # Each path twice in a row, so the second is a memo hit; the memo, bounded
    # to five paths here, evicts many times over.
    for path in [p for p in paths for _ in range(2)]:
        expected = (any(reference_glob_match(p, path) for p in rules.include_globs)
                    and not any(reference_glob_match(p, path) for p in rules.exclude_globs))
        assert rules.matches(path) == expected, path
        assert rules._verdict.cache_info().currsize <= 5
    assert rules == FileFilterRules() and repr(rules) == repr(FileFilterRules())


def test_commit_records_construct_by_keyword():
    change = FileChange(path="A.java", before=None, after="x;\n")
    record = CommitRecord(commit_id="c0", order_index=0, timestamp=5, file_changes=[change])
    assert (record.commit_id, record.order_index, record.timestamp) == ("c0", 0, 5)
    assert record.file_changes == [FileChange("A.java", None, "x;\n")]
    assert CommitRecord(commit_id="c1", order_index=1, timestamp=6).file_changes == ()


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


def test_bundle_streams_in_manifest_order(bundle_writer):
    bundle = bundle_writer(
        [
            {"id": "c0", "timestamp": 100,
             "files": [{"path": "A.java", "before": None, "after": "a;\n"}]},
            {"id": "c1", "timestamp": 200,
             "files": [{"path": "A.java", "before": "a;\n", "after": "b;\n"}]},
        ]
    )
    commits = list(load_history_bundle(bundle))
    assert [c.order_index for c in commits] == [0, 1]
    assert [c.commit_id for c in commits] == ["c0", "c1"]
    assert commits[0].file_changes[0].before is None
    assert commits[1].file_changes[0].after == "b;\n"


def test_empty_bundle_is_an_empty_stream(bundle_writer):
    assert list(load_history_bundle(bundle_writer([]))) == []


def test_out_of_order_timestamps_warn_but_load(bundle_writer):
    bundle = bundle_writer(
        [
            {"id": "c0", "timestamp": 200, "files": []},
            {"id": "c1", "timestamp": 100,
             "files": [{"path": "A.java", "before": None, "after": None}]},
        ]
    )
    warnings: list[str] = []
    commits = list(load_history_bundle(bundle, on_warning=warnings.append))
    assert len(commits) == 2 and commits[1].file_changes == []
    assert warnings == ["commits[1]: timestamp 100 is earlier than its predecessor",
                        "commits[1].files[0]: both sides absent; dropped"]


def test_noop_file_pairs_are_dropped(bundle_writer):
    bundle = bundle_writer(
        [{"id": "c0", "timestamp": 1,
          "files": [{"path": "A.java", "before": "same\n", "after": "same\n"}]}]
    )
    commits = list(load_history_bundle(bundle))
    assert commits[0].file_changes == []


def test_blob_references_resolve(tmp_path):
    bundle = tmp_path / "bundle"
    blobs = bundle / "blobs"
    blobs.mkdir(parents=True)
    (blobs / "aa11").write_text("int x = 1;\n", encoding="utf-8")
    manifest = {
        "commits": [
            {"id": "c0", "timestamp": 1,
             "files": [{"path": "A.java", "before": None, "after": "@blobs/aa11"}]}
        ]
    }
    (bundle / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    commits = list(load_history_bundle(bundle))
    assert commits[0].file_changes[0].after == "int x = 1;\n"


def test_missing_blob_aborts(tmp_path):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    manifest = {
        "commits": [
            {"id": "c0", "timestamp": 1,
             "files": [{"path": "A.java", "before": None, "after": "@blobs/deadbeef"}]}
        ]
    }
    (bundle / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(BundleFormatError, match="missing blob"):
        list(load_history_bundle(bundle))


@pytest.mark.parametrize("layout", ["blob is a directory", "blobs is a file"])
def test_blob_that_is_no_file_is_missing(tmp_path, layout):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    if layout == "blob is a directory":
        (bundle / "blobs" / "deadbeef").mkdir(parents=True)
    else:
        (bundle / "blobs").write_text("", encoding="utf-8")
    manifest = {
        "commits": [
            {"id": "c0", "timestamp": 1,
             "files": [{"path": "A.java", "before": None, "after": "@blobs/deadbeef"}]}
        ]
    }
    (bundle / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(BundleFormatError,
                       match=r"^commits\[0\]\.files\[0\]: missing blob '@blobs/deadbeef'$"):
        list(load_history_bundle(bundle))


def _counted_blob_reads(monkeypatch) -> list[str]:
    """The names of the blob files read from now on, in order."""
    names: list[str] = []

    def spy(file, *args, **kwargs):
        if Path(file).parent.name == history.BLOBS_DIR:
            names.append(Path(file).name)
        return open(file, *args, **kwargs)

    # The bundle loader opens blob files with the builtin ``open``; a module
    # global of that name shadows it there.
    monkeypatch.setattr(history, "open", spy, raising=False)
    return names


def test_bundle_reads_each_blob_once(tmp_path, monkeypatch):
    versions = [f"int a = {i};\n" for i in range(3)]
    records = [
        CommitRecord(f"c{i}", i, i + 1,
                     [FileChange("A.java", versions[i - 1] if i else None, text)])
        for i, text in enumerate(versions)
    ]
    bundle = export_bundle(records, tmp_path / "bundle")
    reads = _counted_blob_reads(monkeypatch)
    assert list(load_history_bundle(bundle)) == records
    # Each before-side names its path's last after-side, whose text it takes.
    assert len(reads) == len(set(reads)) == 3


def test_bundle_before_side_that_is_not_its_paths_entry_is_resolved(tmp_path, monkeypatch):
    bundle = tmp_path / "bundle"
    blobs = bundle / history.BLOBS_DIR
    blobs.mkdir(parents=True)
    for name in ("one", "two", "three"):
        (blobs / name).write_text(f"int {name};\n", encoding="utf-8")
    files = [
        [{"path": "A.java", "before": None, "after": "@blobs/one"}],
        [{"path": "A.java", "before": "@blobs/two", "after": "@blobs/three"}],
        [{"path": "A.java", "before": "int three;\n", "after": "@blobs/one"}],
        [{"path": "A.java", "before": "@blobs/one", "after": None}],
        [{"path": "A.java", "before": None, "after": "@blobs/two"}],
    ]
    manifest = {"commits": [{"id": f"c{i}", "timestamp": i, "files": f}
                            for i, f in enumerate(files)]}
    (bundle / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    reads = _counted_blob_reads(monkeypatch)
    got = [(fc.before, fc.after) for c in load_history_bundle(bundle) for fc in c.file_changes]
    assert got == [(None, "int one;\n"), ("int two;\n", "int three;\n"),
                   ("int three;\n", "int one;\n"), ("int one;\n", None),
                   (None, "int two;\n")]
    # Another blob and an inline string are read as they are written.
    assert reads == ["one", "two", "three", "one", "two"]
    # So a missing blob there is still an error.
    files[1][0]["before"] = "@blobs/gone"
    (bundle / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(BundleFormatError, match="commits\\[1\\].files\\[0\\]: missing blob"):
        list(load_history_bundle(bundle))


@pytest.mark.parametrize(
    "manifest",
    [
        {"commits": "nope"},
        {"commits": [{"id": 5, "timestamp": 1, "files": []}]},
        {"commits": [{"id": "c0", "timestamp": "early", "files": []}]},
        {"commits": [{"id": "c0", "timestamp": 1, "files": [{"path": "A.java"}]}]},
        {"commits": [{"id": "c0", "timestamp": True, "files": []}]},
    ],
)
def test_malformed_manifests_abort(tmp_path, manifest):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(BundleFormatError):
        load_history_bundle(bundle)


@pytest.mark.parametrize("bad, message", [
    (5, "before/after must be a string or null"),
    ("@blobs/../manifest.json", "invalid blob reference"),
])
@pytest.mark.parametrize("window", [(None, None), (3, None), (None, 1)])
def test_bad_side_in_a_later_commit_aborts_before_any_commit(bundle_writer, bad, message,
                                                              window):
    # Commit 1's entry is checked when the bundle is opened, also when the
    # time window leaves commit 1 out.
    bundle = bundle_writer([
        {"id": "c0", "timestamp": 1,
         "files": [{"path": "A.java", "before": None, "after": "a;\n"}]},
        {"id": "c1", "timestamp": 2,
         "files": [{"path": "A.java", "before": "a;\n", "after": bad}]},
        {"id": "c2", "timestamp": 3, "files": []},
    ])
    since, until = window
    with pytest.raises(BundleFormatError, match=rf"commits\[1\]\.files\[0\]: {message}"):
        load_history_bundle(bundle, since=since, until=until)


def test_missing_manifest_aborts(tmp_path):
    with pytest.raises(BundleFormatError):
        load_history_bundle(tmp_path)
    (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(BundleFormatError, match="not valid JSON"):
        load_history_bundle(tmp_path)


def test_export_stores_leading_at_sign_content_safely(tmp_path, bundle_writer):
    # Inline text that *looks like* a blob reference must round-trip intact,
    # which content-addressed storage guarantees.
    from tempred.history import CommitRecord

    tricky = "@blobs/not-a-ref\n"
    record = CommitRecord(
        commit_id="c0", order_index=0, timestamp=1,
        file_changes=[FileChange(path="A.java", before=None, after=tricky)],
    )
    out = export_bundle([record], tmp_path / "out")
    commits = list(load_history_bundle(out))
    assert commits[0].file_changes[0].after == tricky


def test_export_empty_stream(tmp_path):
    out = export_bundle([], tmp_path / "out")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest == {"commits": []}
    assert list(load_history_bundle(out)) == []


def test_export_single_commit_repo_yields_single_entry_manifest(git_repo, tmp_path):
    sha = git_repo.commit({"A.java": "int a = 1;\n"})
    out = export_bundle(open_repository(git_repo.path, "main"), tmp_path / "out")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest["commits"]) == 1
    assert manifest["commits"][0]["id"] == sha


# ---------------------------------------------------------------------------
# Git repositories
# ---------------------------------------------------------------------------


def test_linear_history_streams_oldest_first(git_repo):
    git_repo.commit({"A.java": "int a = 1;\n"}, timestamp=1_600_000_000)
    git_repo.commit({"A.java": "int a = 2;\n"}, timestamp=1_600_000_100)
    git_repo.commit({"B.java": "int b = 1;\n"}, timestamp=1_600_000_200)
    commits = list(open_repository(git_repo.path, "main"))
    assert [c.order_index for c in commits] == [0, 1, 2]
    assert [c.timestamp for c in commits] == [1_600_000_000, 1_600_000_100, 1_600_000_200]


def test_root_commit_is_pure_insertion(git_repo):
    git_repo.commit({"X.java": "class X {}\n"})
    commits = list(open_repository(git_repo.path, "main"))
    assert len(commits) == 1
    (change,) = commits[0].file_changes
    assert change.path == "X.java"
    assert change.before is None
    assert change.after == "class X {}\n"


def test_merge_commits_are_skipped(git_repo):
    a = git_repo.commit({"A.java": "a;\n"})
    b = git_repo.commit({"A.java": "b;\n"})
    git_repo.branch_from("side", a)
    git_repo.commit({"S.java": "s;\n"})
    git_repo.checkout("main")
    merge_sha = git_repo.merge("side")
    c = git_repo.commit({"A.java": "c;\n"})
    commits = list(open_repository(git_repo.path, "main"))
    assert [x.commit_id for x in commits] == [a, b, c]
    assert merge_sha not in [x.commit_id for x in commits]
    assert [x.order_index for x in commits] == [0, 1, 2]
    # The commit after the merge is diffed against the merge (its real first
    # parent), so the side branch's file appears in its "before" state.
    after_merge = commits[2]
    assert [fc.path for fc in after_merge.file_changes] == ["A.java"]
    assert after_merge.file_changes[0].before == "b;\n"


def test_commit_diffs_against_first_parent(git_repo):
    git_repo.commit({"A.java": "one;\n"})
    git_repo.commit({"A.java": "one;\ntwo;\n"})
    commits = list(open_repository(git_repo.path, "main"))
    change = commits[1].file_changes[0]
    assert change.before == "one;\n"
    assert change.after == "one;\ntwo;\n"


def test_file_deletion_streams_with_absent_after(git_repo):
    git_repo.commit({"A.java": "a;\n", "B.java": "b;\n"})
    git_repo.commit({"B.java": None})
    commits = list(open_repository(git_repo.path, "main"))
    (change,) = commits[1].file_changes
    assert change.path == "B.java"
    assert change.after is None and change.before == "b;\n"


def test_binary_files_skipped_with_warning(git_repo):
    git_repo.commit({"A.java": "a;\n"})
    git_repo.commit_binary("blob.bin", b"\x00\x01\x02")
    # Two blobs whose bytes decode to the same text make no change.
    git_repo.commit_binary("A.java", b"\xff\n")
    git_repo.commit_binary("A.java", b"\xfe\n")
    warnings: list[str] = []
    commits = list(open_repository(git_repo.path, "main", on_warning=warnings.append))
    assert commits[1].file_changes == [] and commits[3].file_changes == []
    assert commits[2].file_changes[0].after == "\ufffd\n"
    assert len(warnings) == 1 and "binary" in warnings[0]


def test_timestamp_range_bounds_commits(git_repo):
    git_repo.commit({"A.java": "a;\n"}, timestamp=1_600_000_000)
    kept = git_repo.commit({"A.java": "b;\n"}, timestamp=1_600_000_100)
    git_repo.commit({"A.java": "c;\n"}, timestamp=1_600_000_200)
    commits = list(
        open_repository(git_repo.path, "main", since=1_600_000_050, until=1_600_000_150)
    )
    assert [c.commit_id for c in commits] == [kept]
    assert commits[0].order_index == 0
    # The diff is still taken against the actual first parent.
    assert commits[0].file_changes[0].before == "a;\n"


def test_unknown_branch_raises(git_repo):
    git_repo.commit({"A.java": "a;\n"})
    with pytest.raises(BranchNotFoundError):
        open_repository(git_repo.path, "does-not-exist")


def test_non_repository_raises(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    with pytest.raises(RepositoryNotFoundError):
        open_repository(plain, "main")


@pytest.mark.parametrize("branch", ["-x", "--all", "a..b", ""])
def test_names_that_are_no_commit_raise_branch_not_found(git_repo, branch):
    git_repo.commit({"A.java": "a;\n"})
    with pytest.raises(BranchNotFoundError):
        open_repository(git_repo.path, branch)


def test_missing_directory_raises_with_gits_message(tmp_path):
    with pytest.raises(RepositoryNotFoundError, match="cannot change to"):
        open_repository(tmp_path / "absent", "main")


def test_stream_is_deterministic(git_repo):
    git_repo.commit({"A.java": "a;\n", "B.java": "b;\n"})
    git_repo.commit({"A.java": "a2;\n"})
    first = list(open_repository(git_repo.path, "main"))
    second = list(open_repository(git_repo.path, "main"))
    assert first == second


def test_export_then_reload_gives_identical_classifications(git_repo, tmp_path):
    git_repo.commit({"src/A.java": "int a = 1;\nint b = 2;\n"})
    git_repo.commit({"src/A.java": "int a = 1;\nint c = 3;\n"})
    git_repo.commit({"src/B.java": "int c = 3;\n"})
    out = export_bundle(open_repository(git_repo.path, "main"), tmp_path / "bundle")

    direct = run_analysis(
        AnalysisConfig(source=str(git_repo.path), branch="main", project="proj",
                       trace_commits=True)
    )
    reloaded = run_analysis(
        AnalysisConfig(source=str(out), bundle=True, project="proj", trace_commits=True)
    )
    # The config echo legitimately differs (different source); everything the
    # pipeline computed must be byte-identical.
    from tempred.report import report_to_dict

    d1, d2 = report_to_dict(direct), report_to_dict(reloaded)
    d1.pop("config_echo")
    d2.pop("config_echo")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
