"""Where one round of a benchmark workload spends its time, call by call.

    python3 tools/round_shares.py --workload stagger_wide --seed 7 --rounds 5
    python3 tools/round_shares.py --workload transform_series --kind "root n=3 r=3"

Builds the workload's instances from ``perfbench.workloads`` with the
seed, keeps those whose kind starts with ``--kind`` (all by default),
runs one warm-up round, then ``--rounds`` timed rounds.  Every
library call an instance makes through ``call(name, fn, *args)`` is
timed with ``time.perf_counter``, untraced (no profiler), and so is each
instance's whole ``work``.  It prints the mean round time, each call
name's share of the time spent in calls (the shares sum to 100%), and
per instance kind the mean time per round and its share of the round.
Outputs are not checked; ``perfbench/run.py`` does that.  Standard
library only; it changes no perfbench file.
"""

from __future__ import annotations

import argparse
import importlib
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def round_shares(workload: str, seed: int, rounds: int, kind: str = "") -> dict:
    """Mean seconds per round, by call name and by instance kind, over the timed rounds.

    Only the instances whose kind starts with ``kind`` run; ValueError
    when there is none.
    """
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    workloads = importlib.import_module("perfbench.workloads")
    instances = workloads.WORKLOADS[workload](random.Random(seed), ROOT)
    instances = [inst for inst in instances if inst.kind.startswith(kind)]
    if not instances:
        raise ValueError(f"no {workload} instance kind starts with {kind!r}")
    by_call: dict[str, float] = {}
    by_kind: dict[str, float] = {}

    def call(name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            by_call[name] = by_call.get(name, 0.0) + time.perf_counter() - start

    for inst in instances:  # the warm-up round
        inst.work(call)
    by_call.clear()
    for _ in range(rounds):
        for inst in instances:
            start = time.perf_counter()
            inst.work(call)
            by_kind[inst.kind] = by_kind.get(inst.kind, 0.0) + time.perf_counter() - start
    return {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "kind": kind,
        "round_s": sum(by_kind.values()) / rounds,
        "calls_s": {name: t / rounds for name, t in by_call.items()},
        "kinds_s": {kind: t / rounds for kind, t in by_kind.items()},
    }


def shares(times: dict[str, float]) -> dict[str, float]:
    """Each entry's percentage of the total, largest first."""
    total = sum(times.values())
    ranked = sorted(times.items(), key=lambda item: -item[1])
    return {name: 100 * t / total for name, t in ranked}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--kind", default="", metavar="PREFIX",
        help="time only the instances whose kind starts with PREFIX",
    )
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    try:
        result = round_shares(args.workload, args.seed, args.rounds, args.kind)
    except ValueError as exc:
        parser.error(str(exc))
    only = f" (kinds starting {args.kind!r})" if args.kind else ""
    print(
        f"{result['workload']}{only} seed {result['seed']}: {result['round_s'] * 1000:.1f} ms"
        f" per round, mean of {result['rounds']} after a warm-up round"
    )
    print("calls (share of the time in calls):")
    for name, share in shares(result["calls_s"]).items():
        print(f"  {name:36s} {result['calls_s'][name] * 1000:9.2f} ms  {share:5.1f}%")
    print("instance kinds (share of the round):")
    for kind, share in shares(result["kinds_s"]).items():
        print(f"  {kind:36s} {result['kinds_s'][kind] * 1000:9.2f} ms  {share:5.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
