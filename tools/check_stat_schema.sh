#!/usr/bin/env bash
# Validate `aml_stat --json` output against tools/aml_stat_schema.json.
#
# Usage: tools/check_stat_schema.sh <shm_lock_service> <aml_stat> [trace.json]
#
# Runs the shm lock-service demo (worker 0 crashes while holding the lock,
# the survivors recover) with its segments kept, snapshots the segment
# while the service is live and again once it is orphaned, and checks both
# snapshots against the schema's required_paths; the post-crash snapshot
# must also satisfy post_crash_paths (the crash is visible in shm, not just
# survived). With a third argument, the segment's ring is also exported as
# a Chrome trace to that path and checked for span events. The demo's
# segments are unlinked on every exit path. Needs bash and jq.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 <shm_lock_service> <aml_stat> [trace.json]" >&2
  exit 2
fi
demo_bin=$1
stat_bin=$2
trace_out=${3:-}
schema="$(cd "$(dirname "$0")" && pwd)/aml_stat_schema.json"

work=$(mktemp -d)
demo=""
running=0
cleanup() {
  if [[ -n "$demo" ]]; then
    # Signal the demo only while it is unreaped: a reaped pid may belong to
    # another process by now.
    if [[ $running -eq 1 ]]; then
      kill "$demo" 2> /dev/null || true
      wait "$demo" 2> /dev/null || true
    fi
    rm -f "/dev/shm/aml-demo-locks-$demo" "/dev/shm/aml-demo-data-$demo"
  fi
  rm -rf "$work"
}
trap cleanup EXIT

AML_DEMO_KEEP=1 "$demo_bin" > "$work/demo.log" 2>&1 &
demo=$!
running=1
seg="/aml-demo-locks-$demo"

# Live: wait for the creator to seal, then snapshot mid-run.
live=""
for _ in $(seq 1 100); do
  if "$stat_bin" "$seg" > "$work/live.json" 2> /dev/null; then
    live="$work/live.json"
    break
  fi
  sleep 0.1
done
demo_status=0
wait "$demo" || demo_status=$?
running=0
if [[ $demo_status -ne 0 ]]; then
  echo "error: $demo_bin failed" >&2
  cat "$work/demo.log" >&2
  exit 1
fi
if [[ -z "$live" ]]; then
  echo "error: $stat_bin never attached to $seg" >&2
  exit 1
fi

# Post-crash: the segment is orphaned now (no process attached). The tail
# spans every pid's whole ring (4 pids x 256 slots), so the recoverer's arm
# event is in it however many passages the survivors ran after the sweep.
"$stat_bin" "$seg" --tail 1024 > "$work/postcrash.json"

status=0
check() {  # check <snapshot> <schema list key>
  local snap=$1 key=$2 expr
  while IFS= read -r expr; do
    if ! jq -e "$expr" "$snap" > /dev/null; then
      echo "error: $(basename "$snap") violates $key expression: $expr" >&2
      status=1
    fi
  done < <(jq -r ".${key}[]" "$schema")
}
check "$work/live.json" required_paths
check "$work/postcrash.json" required_paths
check "$work/postcrash.json" post_crash_paths

if [[ -n "$trace_out" ]]; then
  "$stat_bin" "$seg" --trace "$trace_out"
  if ! jq -e '.traceEvents | length > 0 and (map(.ph) | index("X") != null)' \
      "$trace_out" > /dev/null; then
    echo "error: $trace_out has no span events" >&2
    status=1
  fi
fi

if [[ $status -eq 0 ]]; then
  echo "aml_stat schema: live and post-crash snapshots conform"
fi
exit "$status"
