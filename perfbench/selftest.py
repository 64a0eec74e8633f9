#!/usr/bin/env python3
"""Self-tests of the COkNN benchmark (see README.md).

    python3 perfbench/selftest.py

1. The benchmark binary's percentile helper, including the rule that a reported
   percentile needs 10 samples above it (coknn_perfbench --self-test).
2. The deterministic per-layer counts repeat exactly across two traced
   runs of one seed over the same number of rounds.
3. A different seed changes the generated inputs; the same seed does not.

Exits 0 when every check passes.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Per workload: metric-name prefixes whose values must repeat exactly, and
# the round count of the traced runs that compare them.  fleet_ticks'
# vis.* counts are left out: a tick's graphs are pre-seeded from the
# service's cross-shard obstacle store, whose contents at that moment
# depend on which shards finished first.
DETERMINISTIC = {
    "oneshot_rw": (("vis.", "core.", "storage."), 150),
    "fleet_batch": (("vis.", "core."), 3),
    "fleet_ticks": (("core.",), 12),
}
# Wall-clock metrics under those prefixes.
TIMINGS = {"core.query_ms", "vis.replay_maintain_ms", "vis.replay_dijkstra_ms"}


def traced_run(workload, seed, rounds):
    """Returns (metrics, input fingerprint) of one traced fixed-length run."""
    proc = run.run_binary(["--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1",
                           "--ops", str(rounds)])
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed")
    artifact = os.path.join(run.ROOT, ".bench_out",
                            f"{workload}-seed{seed}-trace1.json")
    with open(artifact) as f:
        fingerprint = json.load(f)["input_fingerprint"]
    return {k: v["value"] for k, v in result["metrics"].items()}, fingerprint


def main():
    if not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 1
    failures = []
    if run.run_binary(["--self-test"]).returncode != 0:
        failures.append("percentile self-test")

    for workload, (prefixes, rounds) in DETERMINISTIC.items():
        first, fp_first = traced_run(workload, 101, rounds)
        second, fp_second = traced_run(workload, 101, rounds)
        _, fp_other = traced_run(workload, 102, 1)
        checked = [k for k in first
                   if k.startswith(prefixes) and k not in TIMINGS]
        for key in checked:
            if first[key] != second[key]:
                failures.append(f"{workload}: {key} {first[key]!r} != "
                                f"{second[key]!r} across runs of one seed")
        if fp_first != fp_second:
            failures.append(f"{workload}: same seed, different inputs")
        if fp_first == fp_other:
            failures.append(f"{workload}: another seed, same inputs")
        print(f"{workload}: {len(checked)} deterministic counts compared",
              file=sys.stderr)

    for failure in failures:
        print(f"selftest FAILED: {failure}", file=sys.stderr)
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
