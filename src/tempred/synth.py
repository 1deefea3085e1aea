"""Synthetic histories with controllable redundancy, plus the brute-force oracle.

The generator emits real Java-ish statement lines (``x3 = x7 + 2;``) so both
the line and token pipelines are exercised end to end. Each alphabet statement
carries one identifier that appears in no other statement, so with
``reuse_probability = 0`` and a large enough alphabet nothing a commit
adds can pre-exist at either granularity. With ``reuse_probability = 1``,
every addition after the first commit is drawn from fragments some strictly
earlier commit introduced, so every later acceptable commit is redundant by
construction.

``oracle_classify`` is the reference implementation of the redundancy
predicate: for every added fragment it linearly rescans all earlier commits'
additions. It deliberately shares none of the pool bookkeeping in
``redundancy`` and exists to certify the incremental pipeline. It reads the
commits the pipeline reads, through the same ``load_history_bundle`` window,
and returns the same ``Report`` type.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .differ import diff_fragments
from .fragmenter import Granularity, LexStats, fragment_lines, lex, split_raw_lines
from .history import CommitRecord, FileChange, FileFilterRules, export_bundle, filter_files, load_history_bundle
from .redundancy import (
    NOVEL_FRAGMENT_CAP,
    CommitClassification,
    ProjectSummary,
    Scope,
    ScopeMetrics,
)
from .report import POST, AnalysisConfig, Report, post_filter_delta

_TIMESTAMP_BASE = 1_577_836_800  # 2020-01-01T00:00:00Z


@dataclass
class HistorySpec:
    """Knobs for one synthetic history; generation is deterministic per seed.

    ``reuse_probability`` is the chance an added line is drawn from fragments
    previously added to the project instead of a fresh alphabet statement;
    ``locality_bias`` is the chance such a reuse draw is restricted to lines
    previously seen in the same file. ``token_recombination`` lets a fresh
    line be assembled out of already-seen tokens (a new line made of old
    tokens), which separates token-level from line-level redundancy.
    """

    seed: int
    commit_count: int = 20
    file_count: int = 3
    fragment_alphabet_size: int = 200
    reuse_probability: float = 0.5
    locality_bias: float = 0.5
    token_recombination: float = 0.0


_TEMPLATES = (
    "x{n} = x{m} + {lit};",
    "int x{n} = {lit};",
    "if (x{m} > {lit}) {{ x{n} = {lit}; }}",
    "return x{n} + x{m};",
    "while (x{m} < {lit}) {{ x{n}--; }}",
    "x{n} = calc{d}(x{m}, {lit});",
)


def _alphabet_statement(n: int) -> str:
    """Statement #n of the alphabet. ``x{n}`` appears in no other statement,
    so every alphabet line carries at least one token of its own; the second
    variable, literal, and call name come from shared vocabularies, keeping
    the token pool much smaller than the line pool, as in real code."""
    m = (n * 7 + 3) % max(1, n)
    return _TEMPLATES[n % len(_TEMPLATES)].format(
        n=n, m=m, lit=(n * 37 + 11) % 100, d=n % 12
    )


class _Generator:
    def __init__(self, spec: HistorySpec) -> None:
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.files: dict[str, list[str]] = {}
        self.ever_lines: list[str] = []  # append-only, deduped
        self._ever_seen: set[str] = set()
        self.ever_by_file: dict[str, list[str]] = {}
        self._ever_seen_by_file: dict[str, set[str]] = {}
        self.seen_idents: list[str] = []
        self.seen_literals: list[str] = []
        self.next_fresh = 0

    # -- bookkeeping -------------------------------------------------------

    def _record_insert(self, path: str, line: str) -> None:
        if line not in self._ever_seen:
            self._ever_seen.add(line)
            self.ever_lines.append(line)
        per_file_seen = self._ever_seen_by_file.setdefault(path, set())
        if line not in per_file_seen:
            per_file_seen.add(line)
            self.ever_by_file.setdefault(path, []).append(line)

    def _record_tokens(self, serial: int) -> None:
        self.seen_idents.append(f"x{serial}")
        self.seen_idents.append(f"x{(serial * 7 + 3) % max(1, serial)}")
        self.seen_literals.append(str((serial * 37 + 11) % 100))

    # -- line sources ------------------------------------------------------

    def _fresh_line(self) -> str:
        serial = self.next_fresh
        self.next_fresh += 1
        if serial >= self.spec.fragment_alphabet_size:
            # Alphabet exhausted: wrap around, repeats become possible.
            serial %= self.spec.fragment_alphabet_size
        self._record_tokens(serial)
        return _alphabet_statement(serial)

    def _recombined_line(self, ident_limit: int, literal_limit: int) -> str | None:
        """A brand-new line composed only of tokens seen strictly earlier."""
        if ident_limit == 0 or literal_limit == 0:
            return None
        a = self.seen_idents[self.rng.randrange(ident_limit)]
        b = self.seen_idents[self.rng.randrange(ident_limit)]
        lit = self.seen_literals[self.rng.randrange(literal_limit)]
        return f"{a} = {b} + {lit};"

    def _reused_line(self, path: str, global_limit: int, local_limits: dict[str, int]) -> str | None:
        local = self.ever_by_file.get(path, [])
        local_limit = min(len(local), local_limits.get(path, 0))
        if local_limit and self.rng.random() < self.spec.locality_bias:
            return local[self.rng.randrange(local_limit)]
        if global_limit:
            return self.ever_lines[self.rng.randrange(global_limit)]
        return None

    def _draw_line(self, path: str, global_limit: int, local_limits: dict[str, int],
                   ident_limit: int, literal_limit: int) -> str:
        if global_limit and self.rng.random() < self.spec.reuse_probability:
            reused = self._reused_line(path, global_limit, local_limits)
            if reused is not None:
                return reused
        if self.rng.random() < self.spec.token_recombination:
            recombined = self._recombined_line(ident_limit, literal_limit)
            if recombined is not None:
                return recombined
        return self._fresh_line()

    # -- commit construction -----------------------------------------------

    def _path(self, index: int) -> str:
        return f"src/main/App{index}.java"

    def _unused_path(self, pending: list[str]) -> str:
        """Smallest free file slot; a previously deleted path can be reused,
        which keeps its local pool alive across the gap."""
        index = 0
        while self._path(index) in self.files or self._path(index) in pending:
            index += 1
        return self._path(index)

    def build(self) -> list[CommitRecord]:
        spec = self.spec
        records: list[CommitRecord] = []
        for commit_index in range(spec.commit_count):
            # Draw limits freeze at commit start: a commit may only reuse
            # material introduced by strictly earlier commits.
            global_limit = len(self.ever_lines)
            local_limits = {p: len(v) for p, v in self.ever_by_file.items()}
            ident_limit = len(self.seen_idents)
            literal_limit = len(self.seen_literals)

            changes: list[FileChange] = []
            if commit_index == 0:
                initial = max(1, (spec.file_count + 1) // 2)
                for f in range(initial):
                    path = self._path(f)
                    lines = [self._fresh_line() for _ in range(self.rng.randint(2, 5))]
                    self.files[path] = lines
                    for line in lines:
                        self._record_insert(path, line)
                    changes.append(
                        FileChange(path=path, before=None, after=self._text(lines))
                    )
            else:
                changes = self._edit_commit(
                    global_limit, local_limits, ident_limit, literal_limit
                )

            records.append(
                CommitRecord(
                    commit_id=hashlib.sha1(
                        f"{spec.seed}:{commit_index}".encode()
                    ).hexdigest()[:12],
                    order_index=commit_index,
                    timestamp=_TIMESTAMP_BASE + commit_index * 3600,
                    file_changes=changes,
                )
            )
        return records

    def _edit_commit(self, global_limit: int, local_limits: dict[str, int],
                     ident_limit: int, literal_limit: int) -> list[FileChange]:
        spec = self.spec
        rng = self.rng
        changes: list[FileChange] = []

        if len(self.files) > 1 and rng.random() < 0.05:
            # Delete a whole file; its path (and local pool) may return later.
            path = rng.choice(sorted(self.files))
            old = self.files.pop(path)
            return [FileChange(path=path, before=self._text(old), after=None)]

        deletable = [p for p, lines in self.files.items() if len(lines) > 1]
        if deletable and rng.random() < 0.12:
            # Pure line-deletion commit: touches files but adds nothing.
            path = rng.choice(sorted(deletable))
            old = list(self.files[path])
            new = list(old)
            del new[rng.randrange(len(new))]
            self.files[path] = new
            return [FileChange(path=path, before=self._text(old), after=self._text(new))]

        target_count = rng.randint(1, min(3, max(1, spec.file_count)))
        existing = sorted(self.files)
        targets: list[str] = []
        pending: list[str] = []
        for _ in range(target_count):
            if len(self.files) + len(pending) < spec.file_count and rng.random() < 0.15:
                fresh_path = self._unused_path(pending)
                targets.append(fresh_path)
                pending.append(fresh_path)
            elif existing:
                targets.append(rng.choice(existing))
        seen: set[str] = set()
        targets = [t for t in targets if not (t in seen or seen.add(t))]

        for path in targets:
            old = list(self.files.get(path, []))
            new = list(old)
            if not old:
                added = [
                    self._draw_line(path, global_limit, local_limits, ident_limit, literal_limit)
                    for _ in range(rng.randint(1, 3))
                ]
                new = added
            else:
                added = []
                for _ in range(rng.randint(1, 3)):
                    line = self._draw_line(
                        path, global_limit, local_limits, ident_limit, literal_limit
                    )
                    new.insert(rng.randint(0, len(new)), line)
                    added.append(line)
                while len(new) > 2 and rng.random() < 0.3:
                    del new[rng.randrange(len(new))]
            if new == old:
                continue
            self.files[path] = new
            for line in added:
                self._record_insert(path, line)
            changes.append(
                FileChange(
                    path=path,
                    before=self._text(old) if old else None,
                    after=self._text(new),
                )
            )
        return changes

    @staticmethod
    def _text(lines: Sequence[str]) -> str:
        return "\n".join(lines) + "\n"


def generate_history(spec: HistorySpec, out_dir: str | Path) -> Path:
    """Write a schema-valid bundle for the spec; same seed, same bytes."""
    return export_bundle(_Generator(spec).build(), out_dir)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


@dataclass
class _OracleCommit:
    commit_id: str
    order_index: int
    # granularity -> [(path, added fragments, removed fragments)]
    additions: dict[Granularity, list[tuple[str, list[str], list[str]]]] = field(
        default_factory=dict)


def _oracle_fragments(text: str | None, granularity: Granularity, normalize: str,
                      stats: LexStats | None = None) -> list[str]:
    if text is None:
        return []
    if granularity is Granularity.LINE:
        if normalize == POST:
            return split_raw_lines(text)
        return fragment_lines(text)
    return lex(text, include_comments=normalize == POST, stats=stats)


def _seen_earlier(history: list[_OracleCommit], upto: int, granularity: Granularity,
                  fragment: str, path: str | None = None) -> bool:
    """Literal scan of all earlier commits' additions; no pools, no indexes."""
    for i in range(upto):
        for entry_path, added, _ in history[i].additions[granularity]:
            if path is not None and entry_path != path:
                continue
            if fragment in added:
                return True
    return False


def oracle_classify(bundle_dir: str | Path, config: AnalysisConfig | None = None) -> Report:
    """Classify a bundle by re-scanning prior commits for every fragment.

    Quadratic in history length by design; used for acceptance testing and
    the ``oracle`` CLI subcommand. The report has the trace on and
    ``"engine": "oracle"`` in its configuration echo. Its diagnostics are
    the loader's warnings, the over-cap sides and the lexer fallbacks of the
    kept files' new versions, and, when both granularities are analyzed, its
    own line-vs-token audit: the commits whose acceptability differs, and
    those line-redundant but not token-redundant at a scope, with every
    full-diff delta of the commit.
    """
    if config is None:
        config = AnalysisConfig(source=str(bundle_dir), bundle=True)
    rules = FileFilterRules(config.include_globs, config.exclude_globs)

    history: list[_OracleCommit] = []
    warnings: list[str] = []
    skipped_oversize: list[dict] = []
    # Only the token sides are lexed, so only they count fallbacks.
    lex_stats = LexStats()
    for commit in load_history_bundle(bundle_dir, since=config.since, until=config.until,
                                      on_warning=warnings.append):
        entry = _OracleCommit(commit_id=commit.commit_id, order_index=commit.order_index)
        retained = filter_files(commit.file_changes, rules)
        sides = {
            g: [(_oracle_fragments(fc.before, g, config.normalize),
                 _oracle_fragments(fc.after, g, config.normalize, lex_stats))
                for fc in retained]
            for g in config.granularities
        }
        # Over the cap at any granularity means skipped at all of them.
        oversize = [
            any(len(before) + len(after) > config.diff_size_cap for before, after in per_g)
            for per_g in zip(*sides.values())
        ]
        for granularity in config.granularities:
            per_file: list[tuple[str, list[str], list[str]]] = []
            for fc, (before, after), skip in zip(retained, sides[granularity], oversize):
                if len(before) + len(after) > config.diff_size_cap:
                    skipped_oversize.append({
                        "commit_id": commit.commit_id,
                        "path": fc.path,
                        "granularity": granularity.value,
                        "fragments": len(before) + len(after),
                    })
                if skip:
                    continue
                delta = diff_fragments(before, after, path=fc.path, granularity=granularity)
                if config.normalize == POST:
                    post_filter_delta(delta)
                per_file.append((fc.path, delta.added, delta.removed))
            entry.additions[granularity] = per_file
        history.append(entry)

    classifications: dict[Granularity, list[CommitClassification]] = {
        g: [] for g in config.granularities
    }
    for j, entry in enumerate(history):
        for granularity in config.granularities:
            per_file = entry.additions[granularity]
            added_count = sum(len(added) for _, added, _ in per_file)
            acceptable = added_count >= 1
            redundant: dict[Scope, bool] = {}
            novel: dict[Scope, list[str]] = {}
            for scope in config.scopes:
                missing: list[str] = []
                seen: set[str] = set()
                all_present = True
                for path, added, _ in per_file:
                    for fragment in added:
                        found = _seen_earlier(
                            history, j, granularity, fragment,
                            path=path if scope is Scope.LOCAL else None,
                        )
                        if found:
                            continue
                        all_present = False
                        if fragment not in seen:
                            seen.add(fragment)
                            if len(missing) < NOVEL_FRAGMENT_CAP:
                                missing.append(fragment)
                redundant[scope] = acceptable and all_present
                novel[scope] = missing
            classifications[granularity].append(
                CommitClassification(
                    commit_id=entry.commit_id,
                    order_index=entry.order_index,
                    granularity=granularity,
                    acceptable=acceptable,
                    added_count=added_count,
                    redundant=redundant,
                    novel_fragments=novel,
                )
            )

    metrics: list[ScopeMetrics] = []
    acceptable_by_g = {
        g: sum(1 for c in classifications[g] if c.acceptable) for g in config.granularities
    }
    for granularity in config.granularities:
        distinct_global: set[str] = set()
        distinct_by_path: dict[str, set[str]] = {}
        for entry in history:
            for path, added, _ in entry.additions[granularity]:
                if added:
                    distinct_global.update(added)
                    distinct_by_path.setdefault(path, set()).update(added)
        for scope in config.scopes:
            redundant_count = sum(
                1 for c in classifications[granularity] if c.redundant.get(scope)
            )
            acceptable = acceptable_by_g[granularity]
            ratio = redundant_count / acceptable if acceptable else None
            if scope is Scope.GLOBAL:
                pool_size: int | None = len(distinct_global)
                median = None
            else:
                pool_size = None
                sizes = [len(v) for v in distinct_by_path.values()]
                median = float(statistics.median(sizes)) if sizes else None
            metrics.append(
                ScopeMetrics(
                    granularity=granularity,
                    scope=scope,
                    acceptable_commits=acceptable,
                    redundant_commits=redundant_count,
                    temporal_redundancy=ratio,
                    pool_size=pool_size,
                    local_pool_size_median=median,
                )
            )
    subsumption_violations: list[dict] = []
    divergent_acceptability: list[dict] = []
    if Granularity.LINE in config.granularities and Granularity.TOKEN in config.granularities:
        for entry, line_cls, token_cls in zip(history, classifications[Granularity.LINE],
                                              classifications[Granularity.TOKEN]):
            for scope in config.scopes:
                if line_cls.redundant[scope] and not token_cls.redundant[scope]:
                    subsumption_violations.append({
                        "commit_id": entry.commit_id,
                        "order_index": entry.order_index,
                        "scope": scope.value,
                        "deltas": [
                            {"path": path, "granularity": granularity.value,
                             "added": added[:NOVEL_FRAGMENT_CAP], "added_count": len(added),
                             "removed": removed[:NOVEL_FRAGMENT_CAP],
                             "removed_count": len(removed)}
                            for granularity in config.granularities
                            for path, added, removed in entry.additions[granularity]
                        ],
                    })
            if line_cls.acceptable != token_cls.acceptable:
                divergent_acceptability.append({
                    "commit_id": entry.commit_id,
                    "order_index": entry.order_index,
                    "acceptable_line": line_cls.acceptable,
                    "acceptable_token": token_cls.acceptable,
                })
    summary = ProjectSummary(
        project=config.project_name,
        acceptable_commits=acceptable_by_g,
        metrics=metrics,
    )
    return Report(
        project=config.project_name,
        summary=summary,
        classifications=classifications,
        diagnostics={
            "warnings": warnings,
            "skipped_oversize_files": skipped_oversize,
            "fallback_tokens": lex_stats.fallback_tokens,
            "subsumption_violations": subsumption_violations,
            "divergent_acceptability": divergent_acceptability,
        },
        config_echo={**config.echo(), "engine": "oracle"},
        commit_count=len(history),
        trace_commits=True,
    )
