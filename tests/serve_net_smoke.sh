#!/usr/bin/env bash
# dspot_serve TCP transport smoke: the loopback replies must be
# byte-identical to stdin/stdout-mode replies for the same request
# stream at 1 AND 8 worker threads, also for a stream longer than the
# admission queue; a hostile connection must not take the server down;
# SIGTERM must drain, write --metrics-json, and exit 0; and the new flags
# must reject bad values as usage errors.
#
# Usage: serve_net_smoke.sh <dspot_serve binary> <work dir>
set -u

SERVE="$1"
WORK="$2"

fail() {
  echo "serve_net_smoke: FAIL: $*" >&2
  [ -f "$WORK/server_err.txt" ] && sed 's/^/  server: /' "$WORK/server_err.txt" >&2
  exit 1
}

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK" || fail "cannot enter $WORK"

"$SERVE" --gen-requests 400 --gen-keywords 12 > req.bin || fail "gen-requests"
"$SERVE" --threads 1 < req.bin > baseline.bin 2> /dev/null \
  || fail "stdin-mode serve"

SERVER_PID=""
start_server() {
  rm -f port.txt
  "$SERVE" --listen 0 --port-file port.txt "$@" 2> server_err.txt &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [ -s port.txt ] && break
    sleep 0.1
  done
  [ -s port.txt ] || fail "server did not publish a port"
  PORT=$(cat port.txt)
}

stop_server() {
  kill -TERM "$SERVER_PID" 2> /dev/null
  wait "$SERVER_PID"
  local rc=$?
  [ "$rc" -eq 0 ] || fail "server exited $rc after SIGTERM"
}

# --- determinism: TCP replies == stdin replies, at 1 and 8 threads -----------
start_server --threads 1
"$SERVE" --connect 127.0.0.1:"$PORT" < req.bin > tcp1.bin \
  || fail "client against 1-thread server"
stop_server
cmp -s baseline.bin tcp1.bin \
  || fail "1-thread TCP replies differ from stdin-mode replies"

# --- 8 threads + quotas + a hostile connection + SIGTERM metrics flush -------
# The quota must exceed the client's pipeline depth (400 requests in one
# pipe): determinism holds only for request streams that are never shed.
start_server --threads 8 --tenant-quota 1024 --metrics-json metrics.json
# Desynchronized garbage on one connection: that conn dies, the server lives.
head -c 64 /dev/urandom | "$SERVE" --connect 127.0.0.1:"$PORT" \
  > /dev/null 2> /dev/null
"$SERVE" --connect 127.0.0.1:"$PORT" --tenant smoke < req.bin > tcp8.bin \
  || fail "client against 8-thread server (after hostile conn)"
stop_server
cmp -s baseline.bin tcp8.bin \
  || fail "8-thread TCP replies differ from stdin-mode replies"
[ -s metrics.json ] || fail "--metrics-json not written on SIGTERM"
grep -q '"serve\.' metrics.json || fail "metrics.json has no serve metrics"

# --- a stream longer than the admission queue --------------------------------
# 3,000 requests at the default --queue-cap 1024: each connection holds at
# most max(queue cap, 256) requests in flight, so neither transport sheds
# and stdin at 1 thread answers byte-identically to TCP at 8.
"$SERVE" --gen-requests 3000 --gen-keywords 8 --gen-ticks 48 > long.bin \
  || fail "gen-requests (long stream)"
"$SERVE" --threads 1 < long.bin > long_stdin.bin 2> /dev/null \
  || fail "stdin-mode serve (long stream)"
start_server --threads 8
"$SERVE" --connect 127.0.0.1:"$PORT" < long.bin > long_tcp.bin \
  || fail "client against 8-thread server (long stream)"
stop_server
cmp -s long_stdin.bin long_tcp.bin \
  || fail "long-stream TCP replies differ from stdin-mode replies"
"$SERVE" --print-replies < long_tcp.bin > long_replies.txt \
  || fail "--print-replies (long stream)"
grep -q ResourceExhausted long_replies.txt \
  && fail "long stream: requests were shed"
grep -q "total replies: 3000" long_replies.txt \
  || fail "long stream: expected 3000 replies"

# --- SIGTERM drain in stdin mode also writes metrics and exits 0 -------------
rm -f fifo stdin_metrics.json
mkfifo fifo
"$SERVE" --metrics-json stdin_metrics.json < fifo > /dev/null 2> /dev/null &
STDIN_PID=$!
exec 3> fifo
head -c 512 req.bin >&3   # some whole frames, server mid-stream
sleep 0.5
kill -TERM "$STDIN_PID"
sleep 0.2
exec 3>&-
wait "$STDIN_PID" || fail "stdin-mode server exited nonzero after SIGTERM"
[ -s stdin_metrics.json ] || fail "stdin-mode metrics not written on SIGTERM"

# --- strict flag rejection ---------------------------------------------------
"$SERVE" --listen 99999 2> /dev/null < /dev/null \
  && fail "--listen 99999 was accepted"
"$SERVE" --connect nowhere 2> /dev/null < /dev/null \
  && fail "--connect nowhere was accepted"
"$SERVE" --connect 127.0.0.1:1 --tenant 'has space' 2> /dev/null < /dev/null \
  && fail "--tenant with a space was accepted"
"$SERVE" --max-conns 0 --listen 0 2> /dev/null < /dev/null \
  && fail "--max-conns 0 was accepted"

echo "serve_net_smoke: OK"
