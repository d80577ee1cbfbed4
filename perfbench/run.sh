#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it:
#
#   bash perfbench/run.sh --workload hotset --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The build cache, the binary and
# every file a run writes stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
# The commit is stamped by hand: a checkout need not be a git repository,
# and VCS stamping fails outright in one git will not read.
export GIT_CEILING_DIRECTORIES=$(dirname "$root")
commit=$(git -C "$src" rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && [ -n "$(git -C "$src" status --porcelain 2>/dev/null)" ]; then
	commit="$commit+modified"
fi
(cd "$src" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
