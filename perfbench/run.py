"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table3-uncached --seed 2022 \\
        --seconds 20 --trace 0

Run from the root of a checkout. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric of ``BENCHMARK.json`` with
``--trace 0``, every per-layer metric with ``--trace 1``). Times and
rates are scaled by the run's host-speed samples (see ``hostspeed``).
A run whose outputs fail the correctness gate exits 1 without that line.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import ROOT, GateFailure, require_program
from hostspeed import MachineClock

WORKLOADS = ("table3-uncached", "table3-warm", "serve-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Latency limits for within_limit_frac.
    parser.add_argument("--uncached-limit-ms", type=float, default=1000.0,
                        help="per image, table3-uncached")
    parser.add_argument("--warm-limit-ms", type=float, default=100.0,
                        help="per image, table3-warm")
    parser.add_argument("--serve-cold-limit-ms", type=float, default=1000.0,
                        help="per cold request, serve-mixed")
    parser.add_argument("--serve-warm-limit-ms", type=float, default=100.0,
                        help="per warm or duplicate request, serve-mixed")
    args = parser.parse_args(argv)
    require_program()
    # Unwind on SIGTERM too, so the servers a run started are stopped
    # and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import serve
    import table3

    run = {"table3-uncached": table3.run_uncached,
           "table3-warm": table3.run_warm,
           "serve-mixed": serve.run_serve}[args.workload]
    limits = {"table3-uncached": args.uncached_limit_ms,
              "table3-warm": args.warm_limit_ms,
              "serve-cold": args.serve_cold_limit_ms,
              "serve-warm": args.serve_warm_limit_ms}
    host = MachineClock()
    try:
        values, attempted, failed = run(args.seed, args.seconds,
                                        bool(args.trace), limits, host)
    except GateFailure as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{'host slowdown vs reference':32s} {host.slowdown:14.6g} "
          f"(raw -> reported)")
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        # A layer this workload never calls reads zero.
        raw = values.pop(name, 0.0) if args.trace else values.pop(name)
        value = host.normalize(raw, unit)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:32s} {raw:14.6g} -> {value:14.6g} {unit}")
    # Figures the run measured besides the listed ones, as measured.
    for name, raw in sorted(values.items()):
        print(f"{name:32s} {raw:14.6g}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
