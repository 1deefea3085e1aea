"""Pin the summaries that every benchmark repetition is checked against.

    python3 bench/pin.py bundle-3k 1 2 3

Builds the workload (``bundle-3k`` or ``rewrites``) for each seed, analyzes
it in process and stores its summary in ``bench/reference.json``. ``git-3k``
is held to the ``bundle-3k`` entry. Run it only when the workload or the
outputs are meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import REFERENCE, ROOT, SRC, build

sys.path.insert(0, str(SRC))

from tempred.report import AnalysisConfig, run_analysis  # noqa: E402
from worker import summary_of  # noqa: E402


def main(workload: str, seeds: list[int]) -> None:
    if workload not in ("bundle-3k", "rewrites"):
        raise SystemExit(f"pin bundle-3k or rewrites, not {workload!r}")
    reference = json.loads(REFERENCE.read_text())
    for seed in seeds:
        work = ROOT / ".bench_work" / f"pin-{workload}-{seed}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            fields, _ = build(workload, seed, work)
            report = run_analysis(AnalysisConfig(**fields))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        reference.setdefault(workload, {})[str(seed)] = summary_of(report)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], [int(s) for s in sys.argv[2:]])
