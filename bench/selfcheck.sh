#!/usr/bin/env bash
# Runs the full benchmark twice on the same code and compares the two runs
# under the benchmark's own bounds: no row may read REGRESSION (the exit
# code says so) and none should read UNRESOLVED — if one does, raise the
# pass counts (-passes-scale), not the bounds. Extra arguments go to both
# runs, e.g.  bash bench/selfcheck.sh -passes-scale 2
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"

bash "$here/run.sh" -trace 0 -out "$here/out/selfcheck-a.json" "$@"
bash "$here/run.sh" -trace 0 -out "$here/out/selfcheck-b.json" "$@"
bash "$here/run.sh" -compare "$here/out/selfcheck-a.json" "$here/out/selfcheck-b.json"
