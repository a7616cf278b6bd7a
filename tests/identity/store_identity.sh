#!/usr/bin/env bash
# Store identity checks over the real tool binaries:
#
#   tests/identity/store_identity.sh BUILD_DIR
#
# ctest runs it under the `store` label (ctest -L store). Each check
# compares report bytes with cmp: a result store reconstructs exactly the
# report its campaign wrote, whatever jobs/shard history collected it
# (in process at --shards 0 or over worker processes), after a kill and
# resume, across a resume in the other mode, and after a torn final log
# line. In-process and sharded stores hold byte-identical blocks lines.
# Work files go to BUILD_DIR/store-identity, which is recreated on every
# run.
set -euo pipefail

build=$(cd "$1" && pwd)
shard="$build/tools_campaign_shard"
query="$build/tools_campaign_query"
work="$build/store-identity"
rm -rf "$work"
mkdir -p "$work"
cd "$work"

adaptive=(--trials 8 --budget 512 --adaptive --target 0 --round-blocks 4)

# blocks_lines DIR: the store's "k":"blocks" log lines — everything a store
# holds that decides a report, with no timing in it.
blocks_lines() {
  grep '"k":"blocks"' "$1/ingest.log"
}

# expect_killed CMD...: the run must die by SIGKILL (the --kill-after-round
# hook) and leave no report behind.
expect_killed() {
  set +e
  "$@"
  local status=$?
  set -e
  test "$status" -eq 137
  test ! -f never.json
}

echo "== store identity (query-reconstructed report == campaign report, jobs 1/8 x shards 0/1/4)"
for jobs in 1 8; do
  for shards in 0 1 4; do
    dir="st_j${jobs}_s${shards}"
    "$shard" --trials 8 --budget 512 --jobs "$jobs" --shards "$shards" \
      --store "$dir" --json "report_j${jobs}_s${shards}.json"
    "$query" "$dir" --report "q_j${jobs}_s${shards}.json"
    cmp "report_j${jobs}_s${shards}.json" "q_j${jobs}_s${shards}.json"
    "$query" "$dir" --verify
  done
done
# Every store answers with the same bytes: the report never depends on
# the jobs/shard history it was collected under.
cmp q_j1_s1.json q_j8_s4.json
cmp q_j1_s1.json q_j1_s4.json
cmp q_j1_s1.json q_j8_s1.json
cmp q_j1_s1.json q_j1_s0.json
cmp q_j1_s1.json q_j8_s0.json
# An in-process store holds the sharded store's blocks lines, byte for byte.
cmp <(blocks_lines st_j1_s0) <(blocks_lines st_j8_s4)
cmp <(blocks_lines st_j8_s0) <(blocks_lines st_j1_s4)

echo "== clean adaptive reference"
"$shard" "${adaptive[@]}" --shards 1 --store st_clean --json clean.json

echo "== in-process adaptive store == sharded adaptive store"
"$shard" "${adaptive[@]}" --shards 0 --jobs 8 --store st_adaptive_s0 \
  --json adaptive_s0.json
"$shard" "${adaptive[@]}" --shards 4 --store st_adaptive_s4 \
  --json adaptive_s4.json
cmp clean.json adaptive_s0.json
cmp clean.json adaptive_s4.json
cmp <(blocks_lines st_adaptive_s0) <(blocks_lines st_adaptive_s4)
"$query" st_adaptive_s0 --report q_adaptive_s0.json
cmp adaptive_s0.json q_adaptive_s0.json
"$query" st_adaptive_s0 --verify

echo "== killed-and-resumed campaign's store reconstructs byte-identically"
expect_killed "$shard" "${adaptive[@]}" --shards 4 --store st_kill \
  --kill-after-round 2 --json never.json
# The store survived the kill and already answers for rounds 1-2.
"$query" st_kill --table > /dev/null
"$shard" "${adaptive[@]}" --shards 4 --resume --store st_kill \
  --json resumed.json
cmp clean.json resumed.json
"$query" st_kill --report q_resumed.json
cmp clean.json q_resumed.json
"$query" st_kill --verify

echo "== kill and resume in process (--shards 0)"
expect_killed "$shard" "${adaptive[@]}" --shards 0 --store st_kill0 \
  --kill-after-round 2 --json never.json
test "$(grep -c '"k":"blocks"' st_kill0/ingest.log)" -eq 2
"$shard" "${adaptive[@]}" --shards 0 --resume --store st_kill0 \
  --json resumed0.json
cmp clean.json resumed0.json
"$query" st_kill0 --report q_resumed0.json
cmp clean.json q_resumed0.json
"$query" st_kill0 --verify

echo "== killed in process, resumed over worker processes"
# Shards and jobs are execution knobs, outside the spec digest.
expect_killed "$shard" "${adaptive[@]}" --shards 0 --store st_cross \
  --kill-after-round 2 --json never.json
"$shard" "${adaptive[@]}" --shards 2 --resume --store st_cross \
  --json resumed_cross.json
cmp clean.json resumed_cross.json
"$query" st_cross --report q_cross.json
cmp clean.json q_cross.json
"$query" st_cross --verify

echo "== a torn final log line is dropped and the store still verifies"
expect_killed "$shard" "${adaptive[@]}" --shards 2 --store st_torn \
  --kill-after-round 2 --json never.json
# Tear the last line, as a death mid-append would.
truncate -s -20 st_torn/ingest.log
"$shard" "${adaptive[@]}" --shards 2 --store st_torn --resume \
  --json torn_resumed.json
cmp clean.json torn_resumed.json
"$query" st_torn --report q_torn.json
cmp clean.json q_torn.json
"$query" st_torn --verify

echo "== cross-campaign comparison and dashboard export"
"$query" st_clean --compare st_kill
"$query" st_clean --html dashboard.html
python3 - <<'PY'
import json
html = open('dashboard.html').read()
open_tag = '<script id="pssp-data" type="application/json">'
start = html.index(open_tag) + len(open_tag)
payload = json.loads(html[start:html.index('</script>', start)])
assert payload['meta']['complete'], payload['meta']
assert payload['cells'], 'dashboard payload has no cells'
PY

echo "store identity: all checks passed"
