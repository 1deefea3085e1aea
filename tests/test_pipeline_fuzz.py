"""Differential fuzzing: messy file contents through pipeline and oracle.

The synthetic corpus feeds clean generated statements to the oracle
comparison; these tests cover histories whose file versions contain comments,
blank lines, CRLF endings, unterminated constructs, and non-ASCII text, in
both normalization modes.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from tempred.history import (
    CommitRecord,
    FileChange,
    export_bundle,
    load_history_bundle,
    open_repository,
)
from tempred.report import AnalysisConfig, report_to_dict, run_analysis
from tempred.synth import oracle_classify

from conftest import assert_untraced_matches

_SNIPPETS = [
    "int a = 1;",
    "int b = 2; // trailing note",
    "// full comment line",
    "/* block",
    "still inside */",
    "String s = \"text with // slashes\";",
    "",
    "    ",
    "\tindented(tab);",
    "char c = '\\n';",
    "price = €50;",
    "x = y /* inline */ + z;",
    "unterminated = \"string",
    "}",
    "if (a > 0) {",
]

_ENDINGS = ["\n", "\r\n", "\r"]


def _random_text(rng: random.Random) -> str:
    lines = rng.choices(_SNIPPETS, k=rng.randint(1, 8))
    ending = rng.choice(_ENDINGS)
    return ending.join(lines) + (ending if rng.random() < 0.8 else "")


def _random_history(rng: random.Random) -> list[CommitRecord]:
    paths = [f"src/M{i}.java" for i in range(rng.randint(1, 3))]
    current: dict[str, str | None] = {p: None for p in paths}
    records = []
    for index in range(rng.randint(2, 10)):
        changes = []
        for path in rng.sample(paths, k=rng.randint(1, len(paths))):
            new = _random_text(rng) if rng.random() < 0.9 else None
            old = current[path]
            if old is None and new is None:
                continue
            if old == new:
                continue
            changes.append(FileChange(path=path, before=old, after=new))
            current[path] = new
        records.append(
            CommitRecord(commit_id=f"c{index}", order_index=index,
                         timestamp=1_000 + index, file_changes=changes)
        )
    return records


@pytest.mark.parametrize("normalize", ["pre", "post"])
def test_pipeline_matches_oracle_on_messy_content(tmp_path: Path, normalize: str):
    for seed in range(40):
        rng = random.Random(77_000 + seed)
        bundle = export_bundle(_random_history(rng), tmp_path / f"{normalize}{seed}")
        config = AnalysisConfig(source=str(bundle), bundle=True, normalize=normalize,
                                trace_commits=True)
        report = run_analysis(config)
        oracle = oracle_classify(bundle, config)
        assert report.classifications == oracle.classifications, (normalize, seed)
        assert report.summary == oracle.summary, (normalize, seed)
        assert_untraced_matches(config, report, oracle)


def test_messy_content_survives_git_and_bundle_round_trip(git_repo, tmp_path):
    import json

    v1 = "int a = 1;\r\nString s = \"café // x\";\r\n/* open\r\nclose */\r\nint b = 2;\r\n"
    v2 = v1.replace("int b = 2;", "int c = 3;")
    git_repo.commit({"src/A.java": v1})
    git_repo.commit({"src/A.java": v2})

    streamed = list(open_repository(git_repo.path, "main"))
    assert streamed[0].file_changes[0].after == v1

    out = export_bundle(open_repository(git_repo.path, "main"), tmp_path / "bundle")
    reloaded = list(load_history_bundle(out))
    assert reloaded[0].file_changes[0].after == v1

    direct = report_to_dict(
        run_analysis(AnalysisConfig(source=str(git_repo.path), branch="main",
                                    project="p", trace_commits=True))
    )
    via_bundle = report_to_dict(
        run_analysis(AnalysisConfig(source=str(out), bundle=True, project="p",
                                    trace_commits=True))
    )
    direct.pop("config_echo")
    via_bundle.pop("config_echo")
    assert json.dumps(direct, sort_keys=True) == json.dumps(via_bundle, sort_keys=True)
