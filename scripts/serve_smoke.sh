#!/usr/bin/env sh
# Smoke test for the serving stack: boot esdserve, fire 1k requests at it
# with esdload over both protocols, and assert a clean graceful drain.
# CI runs this (make serve-smoke); it needs nothing beyond the go toolchain.
set -eu

HTTP_PORT="${HTTP_PORT:-18080}"
TCP_PORT="${TCP_PORT:-18081}"
BIN="$(mktemp -d)"
LOG="$BIN/esdserve.log"
trap 'kill "$SERVE_PID" 2>/dev/null || true; kill "$CARAM_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT INT TERM
SERVE_PID=""
CARAM_PID=""

go build -o "$BIN/esdserve" ./cmd/esdserve
go build -o "$BIN/esdload" ./cmd/esdload
go build -o "$BIN/esdtop" ./cmd/esdtop

"$BIN/esdserve" -addr "127.0.0.1:$HTTP_PORT" -tcp-addr "127.0.0.1:$TCP_PORT" \
  -scheme esd -shards 4 -metrics -trace -slow 500ms >"$LOG" 2>&1 &
SERVE_PID=$!

# Wait for the listener (up to ~10 s).
i=0
until "$BIN/esdload" -addr "http://127.0.0.1:$HTTP_PORT" -n 1 -workers 1 -stats=false -flush=false >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 100 ]; then
    echo "serve-smoke: server never came up" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.1
done

echo "serve-smoke: HTTP load"
"$BIN/esdload" -addr "http://127.0.0.1:$HTTP_PORT" -n 1000 -workers 4 -writes 0.6 -dup 0.4

echo "serve-smoke: TCP load"
"$BIN/esdload" -addr "127.0.0.1:$TCP_PORT" -proto tcp -n 1000 -workers 4 -writes 0.6 -dup 0.4

# Introspection surface: every endpoint must answer 200 and the JSON ones
# must parse and reflect the traffic just driven. curl/python3 are present
# on the CI runners; skip politely on dev boxes without them.
if command -v curl >/dev/null 2>&1; then
  echo "serve-smoke: introspection endpoints"
  for ep in healthz readyz statusz debug/flightrecorder debug/device metrics; do
    code=$(curl -s -o "$BIN/$(basename "$ep").out" -w '%{http_code}' "http://127.0.0.1:$HTTP_PORT/$ep")
    if [ "$code" != 200 ]; then
      echo "serve-smoke: GET /$ep returned $code" >&2
      cat "$BIN/$(basename "$ep").out" >&2
      exit 1
    fi
  done
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$BIN/statusz.out" "$BIN/flightrecorder.out" "$BIN/device.out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    st = json.load(f)
assert st["ready"] is True, st
assert st["shards"] == 4, st
assert st["tracing"] is True, st
assert st["stages"], "statusz has no per-stage latencies: %r" % st
for name, s in st["stages"].items():
    assert s["count"] > 0 and s["p99_ns"] >= s["p50_ns"], (name, s)
assert st["device"]["media_writes"] > 0, st.get("device")
assert st["device"]["max_wear"] >= 1, st["device"]
assert st["rates"]["window_s"] > 0, st.get("rates")
with open(sys.argv[2]) as f:
    recs = json.load(f)
assert isinstance(recs, list) and recs, "flight recorder empty after load"
assert all(r["kind"] in ("write", "read") and r["layer"] == "engine" and r["clock"] == "sim"
           for r in recs), recs[:3]
with open(sys.argv[3]) as f:
    dev = json.load(f)
assert dev["shards"] == 4 and dev["media_writes"] > 0, dev
assert dev["banks"], "device document has no bank rows"
for b in dev["banks"]:
    assert {"shard", "bank", "writes", "max_wear"} <= set(b), b
assert dev["wear"]["max"] >= 1 and dev["wear"]["mean"] > 0, dev["wear"]
assert dev["dedup"]["writes"] > 0, dev["dedup"]
assert dev["wear_hist"], "wear histogram empty after load"
assert dev["media_writes"] == sum(b["writes"] for b in dev["banks"]), \
    "bank rows do not sum to media writes"
print("serve-smoke: statusz has %d stages, flight recorder holds %d records, "
      "device doc has %d bank rows (max wear %d)"
      % (len(st["stages"]), len(recs), len(dev["banks"]), dev["wear"]["max"]))
EOF
  else
    echo "serve-smoke: python3 not found, skipping JSON validation"
  fi

  echo "serve-smoke: esdtop one-frame render"
  if ! "$BIN/esdtop" -once -addr "http://127.0.0.1:$HTTP_PORT" >"$BIN/esdtop.out" 2>&1; then
    echo "serve-smoke: esdtop -once failed:" >&2
    cat "$BIN/esdtop.out" >&2
    exit 1
  fi
  if ! grep -q "wear heatmap" "$BIN/esdtop.out"; then
    echo "serve-smoke: esdtop frame missing wear heatmap:" >&2
    cat "$BIN/esdtop.out" >&2
    exit 1
  fi
else
  echo "serve-smoke: curl not found, skipping endpoint checks"
fi

# Graceful drain: SIGTERM, then the process must exit 0 and report a
# clean drain with traffic accounted for.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
STATUS=$?
if [ "$STATUS" -ne 0 ]; then
  echo "serve-smoke: esdserve exited $STATUS" >&2
  cat "$LOG" >&2
  exit 1
fi
if ! grep -q "drained clean" "$LOG"; then
  echo "serve-smoke: no clean-drain marker in server log:" >&2
  cat "$LOG" >&2
  exit 1
fi
grep "drained clean" "$LOG"

# Second pass on the hybrid DRAM/PCM tier (scheme esd+caram): same load,
# then the device document must carry the hybrid section with WAL and
# absorption activity, esdtop must render the hybrid row, and the drain
# must stay clean — the serving-level "kill mid-load loses nothing" check
# (every acknowledged write was WAL-persisted to PCM before install).
CARAM_PORT=$((HTTP_PORT + 2))
CARAM_LOG="$BIN/esdserve-caram.log"
"$BIN/esdserve" -addr "127.0.0.1:$CARAM_PORT" \
  -scheme esd+caram -shards 2 -metrics -trace >"$CARAM_LOG" 2>&1 &
CARAM_PID=$!
i=0
until "$BIN/esdload" -addr "http://127.0.0.1:$CARAM_PORT" -n 1 -workers 1 -stats=false -flush=false >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 100 ]; then
    echo "serve-smoke: esd+caram server never came up" >&2
    cat "$CARAM_LOG" >&2
    exit 1
  fi
  sleep 0.1
done

echo "serve-smoke: esd+caram HTTP load"
# Tight address space so lines get rewritten: repeat writes build heat,
# promote into DRAM, and exercise the WAL-then-install path.
"$BIN/esdload" -addr "http://127.0.0.1:$CARAM_PORT" -n 1000 -workers 4 -writes 0.6 -dup 0.4 -space 256

if command -v curl >/dev/null 2>&1; then
  code=$(curl -s -o "$BIN/caram-device.out" -w '%{http_code}' "http://127.0.0.1:$CARAM_PORT/debug/device")
  if [ "$code" != 200 ]; then
    echo "serve-smoke: esd+caram GET /debug/device returned $code" >&2
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$BIN/caram-device.out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    dev = json.load(f)
assert dev["scheme"] == "esd+caram", dev["scheme"]
h = dev.get("hybrid")
assert h, "esd+caram device document has no hybrid section: %r" % dev
assert h["capacity_lines"] > 0, h
assert h["wal_appends"] > 0, "no write-ahead activity after a write-heavy load: %r" % h
assert h["promotions"] > 0, h
assert h["absorbed_writes"] > 0, h
print("serve-smoke: esd+caram hybrid section: wal=%d absorbed=%d promo=%d resident=%d/%d"
      % (h["wal_appends"], h["absorbed_writes"], h["promotions"],
         h["resident_lines"], h["capacity_lines"]))
EOF
  fi
  "$BIN/esdtop" -once -addr "http://127.0.0.1:$CARAM_PORT" >"$BIN/esdtop-caram.out" 2>&1
  if ! grep -q "hybrid " "$BIN/esdtop-caram.out"; then
    echo "serve-smoke: esdtop frame missing hybrid row on esd+caram:" >&2
    cat "$BIN/esdtop-caram.out" >&2
    exit 1
  fi
fi

kill -TERM "$CARAM_PID"
wait "$CARAM_PID" || { echo "serve-smoke: esd+caram exited non-zero" >&2; cat "$CARAM_LOG" >&2; exit 1; }
CARAM_PID=""
if ! grep -q "drained clean" "$CARAM_LOG"; then
  echo "serve-smoke: no clean-drain marker in esd+caram log:" >&2
  cat "$CARAM_LOG" >&2
  exit 1
fi
grep "drained clean" "$CARAM_LOG"
echo "serve-smoke: OK"
