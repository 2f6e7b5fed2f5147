"""One cold start of the program, or one cache fill.

    python3 perfbench/setup_probe.py <pickled corpus entries> [<cache dir>]

Imports the program, builds the five detectors and regenerates the
entries. With a cache directory the regeneration fills that disk cache
and the probe prints the regeneration's wall seconds; without one the
caller times the cold start from spawn to exit. Exits 1 if a cell
failed or the fill stored nothing.
"""

import pickle
import sys
import time
from pathlib import Path

from common import TOOLS, require_program

require_program()

from repro.baselines import ALL_DETECTORS  # noqa: E402
from repro.cache.disk import DiskCache, set_default_cache  # noqa: E402
from repro.eval.runner import run_evaluation  # noqa: E402

with open(sys.argv[1], "rb") as f:
    entries = pickle.load(f)
cache = DiskCache(Path(sys.argv[2])) if len(sys.argv) > 2 else None
set_default_cache(cache)
detectors = {t: ALL_DETECTORS[t]() for t in TOOLS}
started = time.perf_counter()
report = run_evaluation(entries, detectors)
wall = time.perf_counter() - started
if report.failures or len(report.records) != len(entries) * len(TOOLS):
    sys.exit(1)
if cache is not None:
    if cache.stats.stores == 0:
        sys.exit(1)
    print(f"{wall:.9f}")
