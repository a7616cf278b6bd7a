#!/usr/bin/env bash
# Store identity checks over the real tool binaries:
#
#   tests/identity/store_identity.sh BUILD_DIR
#
# ctest runs it under the `store` label (ctest -L store). Each check
# compares report bytes with cmp: a result store reconstructs exactly the
# report its campaign wrote, whatever jobs/shard history collected it,
# after a kill and resume, and after a torn final log line. Work files go
# to BUILD_DIR/store-identity, which is recreated on every run.
set -euo pipefail

build=$(cd "$1" && pwd)
shard="$build/tools_campaign_shard"
query="$build/tools_campaign_query"
work="$build/store-identity"
rm -rf "$work"
mkdir -p "$work"
cd "$work"

adaptive=(--trials 8 --budget 512 --adaptive --target 0 --round-blocks 4)

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

echo "== store identity (query-reconstructed report == campaign report, jobs 1/8 x shards 1/4)"
for jobs in 1 8; do
  for shards in 1 4; do
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

echo "== clean adaptive reference"
"$shard" "${adaptive[@]}" --shards 1 --store st_clean --json clean.json

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
