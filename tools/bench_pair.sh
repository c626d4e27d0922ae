#!/usr/bin/env bash
# Interleaved parent/change pairs of the end-to-end benchmark, then `compare`.
#
#   tools/bench_pair.sh PARENT_SRC [REPEATS=10] [SEED=101] [run.py --all options...]
#
# Pair i runs `benchmarks/e2e/run.py --all --repeats 1 --seed SEED+i` once on
# PARENT_SRC (another checkout's src/) and once on this checkout's src/, in
# ABBA order: even pairs parent first, odd pairs change first, so host drift
# lands on both sides.  The per-run value lists are merged, in pair order,
# into parent.json and change.json under the ignored benchmarks/e2e/out/pair,
# which is what `run.py compare` reads.  Trailing options go to every run,
# e.g. `--seconds 18` or `--traced`.
set -euo pipefail

if [ $# -lt 1 ]; then
    sed -n '2,12p' "$0" >&2
    exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
parent_src=$(cd "$1" && pwd)
repeats=${2:-10}
seed=${3:-101}
shift $(($# < 3 ? $# : 3))
run="$repo/benchmarks/e2e/run.py"
out=$repo/benchmarks/e2e/out/pair
mkdir -p "$out"
rm -f "$out"/parent.*.json "$out"/change.*.json

for ((pair = 0; pair < repeats; pair++)); do
    if ((pair % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then src=$parent_src; else src=$repo/src; fi
        echo "## pair $pair: $side ($src)"
        python3 "$run" --all --repeats 1 --seed $((seed + pair)) --src "$src" --out "$out/$side.$pair.json" "$@"
    done
done

python3 - "$out" "$repeats" <<'EOF'
import json, sys
from pathlib import Path

out, repeats = Path(sys.argv[1]), int(sys.argv[2])
for side in ("parent", "change"):
    runs = [json.loads((out / f"{side}.{pair}.json").read_text(encoding="utf-8")) for pair in range(repeats)]
    merged = runs[0]
    merged["meta"]["repeats"] = repeats
    for run in runs[1:]:
        for name, entry in run["workloads"].items():
            target = merged["workloads"][name]
            for section in ("end_to_end", "per_layer"):
                for metric, values in entry[section].items():
                    target[section].setdefault(metric, []).extend(values)
            target["outputs_sha256"] += entry["outputs_sha256"]
            target["attempted"] += entry["attempted"]
            target["failed"] += entry["failed"]
    (out / f"{side}.json").write_text(json.dumps(merged, indent=1) + "\n", encoding="utf-8")
EOF

python3 "$run" compare "$out/parent.json" "$out/change.json"
