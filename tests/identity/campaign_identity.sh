#!/usr/bin/env bash
# Campaign report identity and flag checks over the real tool binaries:
#
#   tests/identity/campaign_identity.sh BUILD_DIR
#
# ctest runs it under the `identity` label (ctest -L identity). An
# in-process default campaign at --trials 2 must write the same report
# bytes, checked with cmp, at --jobs 1 and 8, with every trial on a freshly
# booted master instead of a pooled one (--fresh-masters), under the
# switch dispatch engine instead of the threaded one, and with the store,
# tracing and progress on. In-process and worker-process runs (--shards 0,
# 1 and 4) must agree, fixed and adaptive, at --jobs 1 and 8. Bad flag
# values and removed flags must exit 2 and write no report. Work files go
# to BUILD_DIR/campaign-identity, which is recreated on every run.
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

echo "== report bytes unchanged with the store, tracing and progress on"
"$shard" --shards 0 --trials 2 --jobs 8 --store st0 --trace-out trace.json \
  --progress --json e.json
cmp a.json e.json
# A fixed run is one round (round 0): one blocks entry.
test "$(grep -c '"k":"blocks"' st0/ingest.log)" -eq 1
python3 -c "import json; json.load(open('trace.json'))"

echo "== in-process vs sharded identity (fixed and adaptive, jobs 1 and 8)"
adaptive=(--trials 8 --budget 512 --adaptive --target 0 --round-blocks 4)
"$shard" --shards 0 "${adaptive[@]}" --jobs 1 --json adaptive_ref.json
for j in 1 8; do
  for s in 0 1 4; do
    "$shard" --shards "$s" --trials 2 --jobs "$j" --json "fixed_s${s}_j${j}.json"
    cmp a.json "fixed_s${s}_j${j}.json"
    "$shard" --shards "$s" "${adaptive[@]}" --jobs "$j" \
      --json "adaptive_s${s}_j${j}.json"
    cmp adaptive_ref.json "adaptive_s${s}_j${j}.json"
  done
done

echo "== campaign flags are parsed strictly (bad values exit 2)"
# expect_exit2 PROGRAM FLAG ARGS...: exits 2, names FLAG, no report.
expect_exit2() {
  local program=$1 flag=$2
  shift 2
  set +e
  "$build/$program" "$@" > /dev/null 2> err.txt < /dev/null
  local status=$?
  set -e
  cat err.txt
  test "$status" -eq 2
  grep -q -- "$flag" err.txt
}
expect_exit2 tools_campaign_shard --trials --trials 2abc --json x.json
expect_exit2 tools_campaign_shard --shards --shards -1 --json x.json
expect_exit2 tools_campaign_shard --timeout --timeout abc --json x.json
expect_exit2 tools_campaign_shard --workers --shards 0 --workers 2 --json x.json
expect_exit2 tools_campaign_shard --timeout --shards 0 --timeout 5
expect_exit2 tools_campaign_query --min-round st --min-round 2abc
expect_exit2 bench_campaign_curves --trials --trials 2abc
expect_exit2 tools_campaign_node --retries --connect 127.0.0.1:1 --retries abc
expect_exit2 tools_campaign_node --retries --connect 127.0.0.1:1 --retries 2abc
expect_exit2 tools_campaign_node --retry-delay --connect 127.0.0.1:1 \
  --retry-delay x
expect_exit2 tools_campaign_node --connect --connect 127.0.0.1:0
expect_exit2 tools_campaign_node --connect --connect 127.0.0.1:65536
expect_exit2 tools_campaign_worker --shard --shard 0x --shards 1
expect_exit2 tools_campaign_worker --shards --shard 0 --shards 1x
# Removed flags: the separate checkpoint log, its store knob, segment
# repair, and the side channels the store replaced.
for cmd in "tools_campaign_shard --shards 1 --checkpoint 1 --json x.json" \
           "tools_campaign_shard --shards 1 --store-compact 1 --json x.json" \
           "tools_campaign_shard --shards 0 --telemetry t.jsonl --json x.json" \
           "tools_campaign_shard --shards 0 --metrics-out m.json --json x.json" \
           "tools_campaign_query st --no-repair"; do
  set +e
  # shellcheck disable=SC2086  # each entry is a command line
  "$build"/$cmd > /dev/null 2>&1
  status=$?
  set -e
  test "$status" -eq 2
done
test ! -f x.json

echo "campaign identity: all checks passed"
