"""Wi-LE end-to-end benchmark: one command, three single-process workloads.

    python3 perfbench/run.py --workload {fleet,pipeline,ingest} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.
Each workload builds its inputs from ``--seed``, measures for about
``--seconds`` seconds, checks every output (and, for the default seed
0, the counters and digests pinned in ``pinned.json``), and prints one
JSON object as its last line of output::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer ones (see README.md). The exit status is 1 when any check
failed and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = os.path.join(ROOT, "src")
WORKLOADS = ("fleet", "pipeline", "ingest")
DEFAULT_SEED = 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name: str):
    """Import the program from ``src/`` and the named workload module."""
    sys.path.insert(0, SOURCES)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import importlib
    return importlib.import_module(f"{name}_workload")


def pinned_problems(workload: str, seed: int, pins: dict) -> list[str]:
    """Compare a run's exact counters with ``pinned.json`` (seed 0)."""
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as handle:
        expected = json.load(handle).get(str(seed), {}).get(workload)
    if expected is None:
        return []
    return [f"pinned {key}: expected {value!r}, got {pins.get(key)!r}"
            for key, value in expected.items() if pins.get(key) != value]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print(f"no program sources at {SOURCES}", file=sys.stderr)
        return 2
    workload = load_workload(args.workload)
    from common import END_TO_END, PER_LAYER
    from tracing import Tracer, unpatched_snapshot

    before = unpatched_snapshot()
    tracer = Tracer() if args.trace else None
    outcome = workload.run(args.seed, args.seconds, tracer)
    problems = list(outcome.problems)
    problems += pinned_problems(args.workload, args.seed, outcome.pins)
    after = unpatched_snapshot()
    problems += [f"{name} still wrapped after the run"
                 for name, original in before.items()
                 if after[name] is not original]
    if tracer is not None:
        os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
        tracer.write(os.path.join(
            HERE, "_out", f"trace-{args.workload}-{args.seed}.json"))
    table = PER_LAYER if args.trace else END_TO_END
    measured = outcome.per_layer if args.trace else outcome.end_to_end
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": measured.get(name, 0.0), "unit": unit}
                    for name, unit in table.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
