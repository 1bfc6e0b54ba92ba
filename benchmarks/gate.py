"""Shared plumbing for the speed-gated benches (kernel, herd, annotation).

* :func:`remeasure` — the one noise-retry loop.  Shared CI machines see
  transient contention bursts, so a failing speed gate is re-measured
  before it fails: a real regression persists across attempts, a noise
  dip does not.
* :func:`record` — the one ``BENCH_PERF.json`` read-modify-write: merge
  fields into a PR's trajectory row (created if missing) and/or set a
  named section.
* :func:`write_result` — the one ``benchmarks/results/<name>.txt``
  writer (the pytest ``exhibit`` fixture uses it too).

Pytest never collects this module: ``python_files`` matches only
``bench_*`` and ``test_*``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
PERF_PATH = REPO_ROOT / "BENCH_PERF.json"
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: measurements per gate before it fails: noise dips don't persist.
ATTEMPTS = 3


def remeasure(title: str, measure: Callable[[str], object],
              failures: Callable[[object], List[str]]) -> int:
    """Run ``measure`` up to :data:`ATTEMPTS` times until ``failures``
    of its result is empty.

    ``measure(heading)`` takes the attempt's heading (for its table)
    and returns the measurement; ``failures(measurement)`` returns the
    gate's failure descriptions.  Returns 0 on the first clean attempt,
    1 once every attempt has failed.
    """
    found: List[str] = []
    for attempt in range(1, ATTEMPTS + 1):
        found = failures(measure(f"{title} (attempt {attempt}/{ATTEMPTS})"))
        if not found:
            print(f"{title} ok")
            return 0
        if attempt < ATTEMPTS:
            print(f"   {'; '.join(found)} — re-measuring to rule out "
                  f"machine noise")
    print(f"{title} FAILED across {ATTEMPTS} attempts: {'; '.join(found)}",
          file=sys.stderr)
    return 1


def record(pr: int, row: Optional[dict] = None, section: Optional[str] = None,
           payload: Optional[dict] = None, path: Path = PERF_PATH) -> None:
    """Merge ``row`` into PR ``pr``'s trajectory row and set ``section``.

    The row is created (at the end of the trajectory) if missing; keys
    already on it that ``row`` does not name are kept, so benches
    recording into the same PR never clobber each other.
    """
    if path.exists():
        doc = json.loads(path.read_text())
    else:
        doc = {"schema": 1, "note": "performance trajectory; one entry per "
                                    "perf-relevant PR (append, don't rewrite)",
               "trajectory": []}
    if row is not None:
        rows = doc["trajectory"]
        entry = next((e for e in rows if e.get("pr") == pr), None)
        if entry is None:
            entry = {"pr": pr}
            rows.append(entry)
        entry.update(row)
    if section is not None:
        doc[section] = payload
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")


def write_result(name: str, text: str, directory: Path = RESULTS_DIR) -> None:
    """Write ``text`` to ``<directory>/<name>.txt``."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"wrote {path}")
