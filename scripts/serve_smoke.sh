#!/bin/sh
# serve_smoke.sh — end-to-end exercise of the analysis daemon.
#
# Builds mcchecker, starts `mcchecker serve`, submits a clean job, a
# truncated-upload job and a poison job (every rank header garbage) over
# real HTTP, asserts the clean job ends healthy (done, not degraded, 1
# violation on the planted conflict), the damaged job ends
# degraded-but-done (salvage) and the poison job ends failed with an
# error after its one run, then sends SIGTERM and asserts the daemon
# drains and exits 0. Requires only go + python3.
set -eu

ADDR="${SERVE_ADDR:-127.0.0.1:7787}"
TMP="${SERVE_TMP:-$(mktemp -d)}"
BASE="http://$ADDR"

go build -o "$TMP/mcchecker" ./cmd/mcchecker

# Build the three submission bodies from a bundled bug case: run the
# emulate app persisting traces, then wrap them as inline uploads (the
# second body with rank 1's stream cut in half, the third with every
# rank's stream replaced by garbage, so nothing salvages).
"$TMP/mcchecker" run -app emulate -trace "$TMP/traces" >/dev/null 2>&1 || true
python3 - "$TMP" <<'EOF'
import base64, json, os, sys
tmp = sys.argv[1]
ups = []
for name in sorted(os.listdir(os.path.join(tmp, "traces"))):
    rank = int(name.split(".")[1])
    data = open(os.path.join(tmp, "traces", name), "rb").read()
    ups.append({"rank": rank, "data": base64.b64encode(data).decode()})
json.dump({"traces": ups}, open(os.path.join(tmp, "clean.json"), "w"))
cut = [dict(u) for u in ups]
raw = base64.b64decode(cut[1]["data"])
cut[1]["data"] = base64.b64encode(raw[: len(raw) // 2]).decode()
json.dump({"traces": cut}, open(os.path.join(tmp, "truncated.json"), "w"))
junk = base64.b64encode(b"\xde\xad" * 16).decode()
bad = [{"rank": u["rank"], "data": junk} for u in ups]
json.dump({"traces": bad}, open(os.path.join(tmp, "poison.json"), "w"))
EOF

"$TMP/mcchecker" serve -addr "$ADDR" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

# Wait for the daemon to come up.
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -lt 50 ] || { echo "serve-smoke: daemon never became healthy" >&2; exit 1; }
    sleep 0.1
done
echo "serve-smoke: daemon healthy at $BASE"

submit() {
    curl -sf -X POST --data-binary "@$1" "$BASE/jobs" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])'
}

CLEAN_ID=$(submit "$TMP/clean.json")
TRUNC_ID=$(submit "$TMP/truncated.json")
POISON_ID=$(submit "$TMP/poison.json")

check_job() {
    # check_job ID WANT_DEGRADED MIN_VIOLATIONS LABEL — long-poll to a
    # terminal state, assert status=done and the expected degraded flag.
    curl -sf "$BASE/jobs/$1?wait=30s" | python3 -c "
import json, sys
j = json.load(sys.stdin)
assert j['status'] == 'done', ('$4', j)
assert j['degraded'] == $2, ('$4', j)
assert j['violations'] >= $3, ('$4', j)
print('serve-smoke: $4 job ok:', j['status'],
      'degraded' if j['degraded'] else 'healthy',
      j['violations'], 'violation(s)')
"
}

check_job "$CLEAN_ID" False 1 clean
check_job "$TRUNC_ID" True 0 truncated

# A poison job fails at once with its error; the daemon never runs it
# twice.
curl -sf "$BASE/jobs/$POISON_ID?wait=30s" | python3 -c "
import json, sys
j = json.load(sys.stdin)
assert j['status'] == 'failed', ('poison', j)
assert j.get('error'), ('poison', j)
print('serve-smoke: poison job ok:', j['status'] + ':', j['error'])
"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$SERVE_PID"
if wait "$SERVE_PID"; then
    echo "serve-smoke: daemon drained and exited 0"
else
    echo "serve-smoke: daemon exited non-zero on SIGTERM" >&2
    exit 1
fi
trap - EXIT
echo "serve-smoke: PASS"
