"""Print the work a run manifest records: its `metrics.counters` and
its `*high_water` maxima, as sorted JSON.

    ./target/release/exp_netsim --json | python3 crates/bench/expected/counters.py

reads the manifest from stdin, or from the file named as the one
argument.
"""
import json
import sys

src = open(sys.argv[1]) if len(sys.argv) > 1 else sys.stdin
metrics = json.load(src)["metrics"]
work = {
    "counters": metrics["counters"],
    "high_water": {k: v for k, v in metrics["maxima"].items() if k.endswith("high_water")},
}
print(json.dumps(work, indent=2, sort_keys=True))
