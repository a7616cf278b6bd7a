#!/usr/bin/env bash
# Campaign report identity checks over the real tool binaries:
#
#   tests/identity/campaign_identity.sh BUILD_DIR
#
# ctest runs it under the `identity` label (ctest -L identity). An
# in-process default campaign at --trials 2 must write the same report
# bytes, checked with cmp, at --jobs 1 and 8, with every trial on a freshly
# booted master instead of a pooled one (--fresh-masters), and under the
# switch dispatch engine instead of the threaded one. Work files go to
# BUILD_DIR/campaign-identity, which is recreated on every run.
set -euo pipefail

build=$(cd "$1" && pwd)
shard="$build/tools_campaign_shard"
work="$build/campaign-identity"
rm -rf "$work"
mkdir -p "$work"
cd "$work"

echo "== reproducibility across jobs levels"
"$shard" --shards 0 --trials 2 --jobs 1 --json a.json
"$shard" --shards 0 --trials 2 --jobs 8 --json b.json
cmp a.json b.json

echo "== reproducibility across master reuse"
"$shard" --shards 0 --trials 2 --jobs 8 --fresh-masters --json c.json
cmp a.json c.json

echo "== reproducibility across VM dispatch engines"
"$shard" --shards 0 --trials 2 --jobs 8 --dispatch switch --json d.json
cmp a.json d.json

echo "campaign identity: all checks passed"
