#!/usr/bin/env bash
# Builds the benchmark, runs every workload (3 interleaved cycles plus a traced
# pass) and compares the result with the committed baseline.
#
#   benchmark/run.sh                 # seed 42, the run length of BENCHMARK.json
#   benchmark/run.sh --seed 7        # extra arguments go to `benchmark all`
#
# Exit code: 1 when an op failed or a metric is worse than the baseline by
# more than its bound (see README.md for what 'unresolved' means).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bench=(cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --)

"${bench[@]}" all "$@"
"${bench[@]}" compare "$here/baseline.json" "$here/out/result.json"
