#!/usr/bin/env bash
# Network transport identity checks over the real tool binaries:
#
#   tests/identity/net_identity.sh BUILD_DIR
#
# ctest runs it under the `net` label (ctest -L net). Every campaign here
# runs on a self-spawned localhost fleet (--workers) and must write the
# report bytes of the local --shards 1 run, checked with cmp: at fleet
# sizes 1, 2 and 4, under every network fault class, across a coordinator
# kill and resume, and past a hung compute worker's deadline. The
# binaries run from a private copy in BUILD_DIR/net-identity/bin, so the
# process checks below see this script's fleet and nothing a concurrent
# test started. Work files and the metrics snapshots (metrics_net.json,
# metrics_deadline.json, read back from each run's store) go to
# BUILD_DIR/net-identity, which is recreated on every run.
set -euo pipefail

build=$(cd "$1" && pwd)
work="$build/net-identity"
rm -rf "$work"
mkdir -p "$work/bin"
for tool in tools_campaign_shard tools_campaign_node tools_campaign_worker; do
  cp "$build/$tool" "$work/bin/"
done
shard="$work/bin/tools_campaign_shard"
query="$build/tools_campaign_query"
cd "$work"

fixed=(--trials 8 --budget 512)
adaptive=(--trials 8 --budget 512 --adaptive --target 0 --round-blocks 4)
fleet2=(--shards 2 --workers 2)
healing=(--heartbeat 0.1 --max-attempts 4 --backoff 0.01)

# check_metrics FILE EXPR...: each Python expression over the metrics
# snapshot `m` must hold. The snapshot is the one the run's store took at
# finalize, after the last round and before the fleet shut down.
check_metrics() {
  local file=$1
  shift
  python3 - "$file" "$@" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
print({k: v for k, v in m.items() if k.startswith('dist.')})
for expr in sys.argv[2:]:
    assert eval(expr), (expr, m)
EOF
}

echo "== clean references (fixed and adaptive, local transport)"
"$shard" "${fixed[@]}" --shards 1 --json fixed_clean.json
"$shard" "${adaptive[@]}" --shards 1 --json adaptive_clean.json

echo "== fleet identity at workers 1, 2, 4 (fixed and adaptive)"
for w in 1 2 4; do
  "$shard" "${fixed[@]}" --shards "$w" --workers "$w" --json "fixed_w${w}.json"
  cmp fixed_clean.json "fixed_w${w}.json"
  "$shard" "${adaptive[@]}" --shards "$w" --workers "$w" \
    --json "adaptive_w${w}.json"
  cmp adaptive_clean.json "adaptive_w${w}.json"
done

echo "== network chaos identity (every net fault class heals)"
# net-die is scoped to round 1: an unscoped shard-1 rule would re-kill a
# node every adaptive round until the fleet is extinct (which is the
# scripted outcome, not a bug).
for plan in "net-drop:0" "net-die:1:1" "net-garble:0" \
            "net-delay=200:0" "net-partition=300:1" \
            "net-stall-hb:0" "crash:0,net-drop:1"; do
  PSSP_CAMPAIGN_FAULT_PLAN="$plan" \
    "$shard" "${adaptive[@]}" "${fleet2[@]}" "${healing[@]}" \
    --json net_chaos.json
  cmp adaptive_clean.json net_chaos.json
  echo "healed: $plan"
done

echo "== kill the coordinator after round 2, resume over the network"
set +e
"$shard" "${adaptive[@]}" "${fleet2[@]}" --store st_net \
  --kill-after-round 2 --json never.json
status=$?
set -e
test "$status" -eq 137
test ! -f never.json
# The PDEATHSIG'd fleet and its workers must not outlive their
# coordinator. (-f: comm names truncate at 15 chars, -x would match
# nothing. `! pgrep` would not trip set -e, hence the explicit exit.)
sleep 1
for tool in tools_campaign_node tools_campaign_worker; do
  if pgrep -f "$work/bin/$tool"; then
    echo "a $tool outlived its killed coordinator" >&2
    exit 1
  fi
done
"$shard" "${adaptive[@]}" "${fleet2[@]}" --store st_net --resume \
  --json net_resumed.json
cmp adaptive_clean.json net_resumed.json

echo "== network transport counters (the stored metrics snapshot)"
PSSP_CAMPAIGN_FAULT_PLAN="net-drop:0,net-stall-hb:1" \
  "$shard" "${adaptive[@]}" "${fleet2[@]}" "${healing[@]}" \
  --store st_counted --json net_counted.json
cmp adaptive_clean.json net_counted.json
"$query" st_counted --metrics > metrics_net.json
# The fleet registered and took leases; stall-hb got its holder evicted;
# the dropped node came back; and a fleet run has no local channel.
check_metrics metrics_net.json \
  "m['dist.net.connections'] >= 2" \
  "m['dist.net.leases'] >= 2" \
  "m['dist.net.heartbeats'] >= 1" \
  "m['dist.net.evictions'] >= 1" \
  "m['dist.net.reconnects'] >= 1" \
  "m['dist.requeued_blocks'] >= 1" \
  "m['dist.spawned_workers'] == 0"

echo "== deadline over the fleet (a hung compute worker is evicted)"
PSSP_CAMPAIGN_FAULT_PLAN="hang:1:1" \
  "$shard" "${adaptive[@]}" "${fleet2[@]}" \
  --heartbeat 0.1 --timeout 2 --backoff 0.01 \
  --store st_deadline --json net_deadline.json
cmp adaptive_clean.json net_deadline.json
"$query" st_deadline --metrics > metrics_deadline.json
check_metrics metrics_deadline.json "m['dist.timeouts'] >= 1"

echo "net identity: all checks passed"
