"""Shared plumbing: checkout paths, seeded inputs, the correctness gate.

Everything the benchmark keeps between runs lives under
``.bench_build/perfbench/`` in the checkout, keyed by a digest of the
program's sources so a different program never reuses another's
corpus or entry-set ledger.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import pickle
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SCALE = "small"
DEFAULT_SEED = 2022
KEEP_CORPORA = 12

#: The five detectors of a Table III regeneration, in run order.
TOOLS = ("funseeker", "ida", "ghidra", "fetch", "naive-endbr")

#: Table III columns recorded in ``benchmarks/results/table3.txt``.
TABLE3_FILE = ROOT / "benchmarks" / "results" / "table3.txt"
TABLE3_COLUMNS = {"funs": "funseeker", "ida": "ida", "ghid": "ghidra",
                  "fetc": "fetch"}


class GateFailure(Exception):
    """The program produced a wrong or inconsistent answer."""


def require_program() -> None:
    """Make ``repro`` importable from the checkout, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def program_digest() -> str:
    """Digest of every source file of the program (names and bytes)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _atomic_write(path: Path, write) -> None:
    """Write ``path`` through ``write(file)`` and move it into place whole."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as f:
        write(f)
    os.replace(tmp, path)


def dump_pickle(obj, f) -> None:
    """Pickle ``obj`` to ``f`` in frames. A whole pickle built in memory
    can stay in the process's resident set and skew its peak RSS."""
    pickle.dump(obj, f, pickle.HIGHEST_PROTOCOL)


def load_corpus(seed: int) -> list:
    """The seeded ``small`` corpus, synthesized once per seed and reused.

    Synthesis is input preparation, not a program metric: it runs
    outside every timed region, and later runs with the same seed load
    the pickled result this benchmark wrote itself.
    """
    from repro.synth.corpus import build_corpus

    path = WORK / "inputs" / f"{program_digest()}-{SCALE}-{seed}.pkl"
    if path.is_file():
        with open(path, "rb") as f:
            return pickle.load(f)
    corpus = build_corpus(SCALE, seed)
    _atomic_write(path, lambda f: dump_pickle(corpus, f))
    # A corpus pickle is ~25 MB: keep only the most recent few seeds.
    kept = sorted(path.parent.glob("*.pkl"), key=lambda p: p.stat().st_mtime)
    for old in kept[:-KEEP_CORPORA]:
        old.unlink(missing_ok=True)
    return corpus


def without_unstripped(corpus: list) -> list:
    """The corpus minus each entry's unstripped image, which no workload
    reads, so the measuring process holds little beyond its inputs."""
    return [dataclasses.replace(
        entry, binary=dataclasses.replace(entry.binary, data=b""))
        for entry in corpus]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class EntryLedger:
    """Entry-set digests per (image sha256, tool), checked across paths.

    Every path that produces entry sets records them here; a second
    answer for the same image and tool must be identical. The ledger of
    a seed is kept on disk, so runs of different workloads against the
    same program and seed are held to the same answers too.
    """

    def __init__(self, seed: int) -> None:
        self.path = WORK / "entries" / f"{program_digest()}-{SCALE}-{seed}.json"
        self.digests: dict[str, str] = {}
        if self.path.is_file():
            self.digests = json.loads(self.path.read_text())

    def record(self, image_sha: str, tool: str, functions, path: str) -> None:
        key = f"{image_sha}:{tool}"
        digest = hashlib.sha256(
            ",".join(map(str, sorted(functions))).encode()).hexdigest()[:24]
        if self.digests.setdefault(key, digest) != digest:
            raise GateFailure(
                f"{path}: {tool} on image {image_sha[:12]} found a different "
                f"entry set than an earlier path")

    def save(self) -> None:
        _atomic_write(self.path,
                      lambda f: f.write(json.dumps(self.digests).encode()))


def expected_table3_totals() -> dict[str, tuple[str, str]]:
    """Pooled P/R (percent, two decimals) per tool from ``table3.txt``."""
    for line in TABLE3_FILE.read_text().splitlines():
        if line.startswith("total"):
            cells = re.findall(
                r"(\w+): P\s*([\d.]+)\|\s*[\d.]+ R\s*([\d.]+)\|", line)
            return {TABLE3_COLUMNS[c]: (p, r) for c, p, r in cells}
    raise GateFailure(f"no total row in {TABLE3_FILE}")


def check_headline(pooled: dict, where: str) -> None:
    """The paper's claim: FunSeeker P and R > 0.98, best F1 of all tools."""
    fs = pooled["funseeker"]
    if not (fs.precision > 0.98 and fs.recall > 0.98):
        raise GateFailure(
            f"{where}: FunSeeker P={fs.precision:.4f} R={fs.recall:.4f} "
            f"not both above 0.98")
    for tool, conf in pooled.items():
        if conf.f1 > fs.f1:
            raise GateFailure(
                f"{where}: {tool} F1 {conf.f1:.4f} beats FunSeeker "
                f"{fs.f1:.4f}")


def check_table3(pooled: dict, seed: int, where: str) -> None:
    """Headline at any seed; the recorded Table III totals at the default."""
    check_headline(pooled, where)
    if seed != DEFAULT_SEED:
        return
    for tool, (p, r) in expected_table3_totals().items():
        conf = pooled[tool]
        got = (f"{conf.precision * 100:.2f}", f"{conf.recall * 100:.2f}")
        if got != (p, r):
            raise GateFailure(
                f"{where}: {tool} pooled P/R {got} differ from "
                f"{TABLE3_FILE.name} ({p}, {r})")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _status_mb(field: str) -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/self/status")


def reset_peak_rss() -> float:
    """Restart this process's peak-RSS count; returns the current RSS (MB)."""
    gc.collect()
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    return _status_mb("VmRSS")


def peak_rss_mb() -> float:
    """Peak resident memory of this process since :func:`reset_peak_rss`."""
    return _status_mb("VmHWM")


