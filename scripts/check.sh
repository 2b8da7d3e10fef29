#!/usr/bin/env bash
# check.sh - CI entry point: tier-1 verify plus a fig4 smoke run.
#
# Usage: scripts/check.sh [--tsan|--asan|--warm|--triage|--serve|--fleet|--llvm|--bench|--obs] [build-dir]
#
#   (default)  tier-1 build + ctest, fig4 smoke, engine determinism checks
#              (the 12-profile Table-1 suite JSON byte-identical at 1 and 4
#              threads, whole-pipeline and --stepwise, which puts concurrent
#              module loading, per-task body cloning and per-pass snapshots
#              under the check on every module), and no
#              Table-1 function may hit the iteration budget
#   --tsan     ThreadSanitizer build (CMake preset "tsan") running the
#              engine + cloning + concurrent-interning + loader + triage +
#              server tests — the same job CI runs
#   --asan     AddressSanitizer+UBSan build (preset "asan") running the
#              full test suite — ditto
#   --warm     local reproduction of the CI warm-cache job: two suite runs
#              against a temp verdict store; the second must replay 100% of
#              verdicts (batch_validate --expect-warm exits 3 otherwise)
#   --triage   local reproduction of the CI triage job: the bug-injected
#              corpus must agree with the interpreter (bug_detector exits
#              nonzero on any validator/triage disagreement), triage JSON
#              must be byte-identical across thread counts, and the
#              restricted-rule-mask run must classify at least one alarm
#              suspected-false-alarm with a named rule gap
#   --serve    local reproduction of the CI serve job: start the daemon,
#              run the client suite twice (the second pass must replay 100%
#              warm), restart the daemon on its checkpointed store and
#              require a fully warm replay byte-identical to the batch
#              path, then assert a clean shutdown with no leaked store lock
#              or journal; finally kill -9 a daemon after two checkpoints
#              and require its restart on the same store to replay warm
#   --llvm     local reproduction of the CI llvm-ingest job: validate the
#              frozen .ll fixture pair (clang -O0 vs opt output) through the
#              batch, server, and fleet front doors and byte-compare the
#              three suite JSON reports; when clang AND opt are on PATH,
#              additionally regenerate the pair from the fixtures' C source
#              and revalidate the fresh output
#   --bench    local reproduction of the CI perf-trajectory gate: Release
#              build (CMake preset "release"), run bench/scaling, compare
#              its BENCH_scaling.json against the committed seed baseline
#              in bench/baselines/ with bench_compare.py (throughput must
#              be at least 1.0x the seed)
#   --obs      local reproduction of the CI observability job: the suite
#              JSON must be byte-identical with tracing on and off and
#              across 1/2/8 threads (telemetry must never leak into
#              reports); the emitted trace must validate as Chrome
#              trace-event JSON (scripts/check_obs.py); a live server's
#              /metrics scrape and a two-worker fleet's roll-up must both
#              validate as Prometheus text exposition, the roll-up carrying
#              per-worker labels; both daemons must also answer a real
#              HTTP GET on --http-metrics with the same exposition (no
#              validate_client involved); a traced fleet job must merge
#              into one flame — a single trace id spanning at least two
#              pids; store_tool --stats must render the per-shard
#              occupancy of the fleet's checkpointed store
#   --fleet    local reproduction of the CI fleet job: start the router with
#              two supervised workers, run the client suite twice (second
#              pass 100% warm), kill -9 a worker mid-suite and require the
#              job to complete with at most one requeue, restart the fleet
#              on the merged store and require a warm replay byte-identical
#              to the batch path, exercising store_tool on the shards
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

MODE=default
case "${1:-}" in
--tsan)
  MODE=tsan
  shift
  ;;
--asan)
  MODE=asan
  shift
  ;;
--warm)
  MODE=warm
  shift
  ;;
--triage)
  MODE=triage
  shift
  ;;
--serve)
  MODE=serve
  shift
  ;;
--fleet)
  MODE=fleet
  shift
  ;;
--llvm)
  MODE=llvm
  shift
  ;;
--bench)
  MODE=bench
  shift
  ;;
--obs)
  MODE=obs
  shift
  ;;
esac

if [ "$MODE" = tsan ] || [ "$MODE" = asan ]; then
  # Sanitizer modes are backed by CMakePresets.json so local runs match the
  # CI sanitizer jobs exactly. Presets resolve relative to the source dir.
  cd "$REPO_ROOT"
  cmake --preset "$MODE"
  cmake --build --preset "$MODE" -j "$(nproc)"
  ctest --preset "$MODE" -j "$(nproc)"
  echo "check.sh ($MODE): OK"
  exit 0
fi

if [ "$MODE" = bench ]; then
  # The CI perf-trajectory gate, locally: Release build (preset "release",
  # so numbers are comparable to CI's), run the scaling benchmarks — the
  # gated metric is the engine report's wall clock, so the microbenchmark
  # min-time can stay short — then hold the emitted BENCH_scaling.json to
  # at least 1.0x the committed seed baseline's batch throughput. A missing
  # baseline fails, as in CI.
  cd "$REPO_ROOT"
  cmake --preset release
  cmake --build --preset release -j "$(nproc)" --target scaling
  (cd build-release && ./scaling --benchmark_min_time=0.01)
  python3 scripts/bench_compare.py bench/baselines/BENCH_scaling.json \
    build-release/BENCH_scaling.json --max-regression 0
  echo "check.sh (bench): OK — throughput at least 1.0x the seed baseline"
  exit 0
fi

BUILD_DIR="${1:-$REPO_ROOT/build}"

if [ "$MODE" = warm ]; then
  # The CI warm-cache invariant, locally: a first suite run populates a
  # fresh verdict store; a second run of the same suite must replay every
  # verdict from it (PR 2's determinism guarantee made fingerprints
  # byte-stable across processes, so anything less than 100% is a bug).
  # batch_validate exits 2 when some optimizations could not be proven
  # (expected on these profiles) and 3 when --expect-warm saw a
  # from-scratch validation.
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target batch_validate
  STORE="$(mktemp -d)/warm.vstore"
  trap 'rm -rf "$(dirname "$STORE")"' EXIT
  run_warm() {
    local rc=0
    "$BUILD_DIR/batch_validate" --suite sqlite,hmmer,sjeng \
      --cache "$STORE" "$@" || rc=$?
    [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ]
  }
  run_warm --quiet
  run_warm --expect-warm
  echo "check.sh (warm): OK — second run replayed 100% of verdicts"
  exit 0
fi

if [ "$MODE" = serve ]; then
  # The CI serve job, locally. Five invariants:
  #  1. A second client against a live daemon replays 100% of verdicts and
  #     triage results (validate_client --expect-warm exits 3 otherwise).
  #  2. A daemon *restarted* on its checkpointed store serves a fully warm
  #     replay whose suite JSON is byte-identical to batch_validate over
  #     the same store — the serving layer adds no bytes and loses none.
  #  3. The daemon exits 0 on a client Shutdown frame (graceful drain).
  #  4. No leaked store lock, temp or journal files: after shutdown the
  #     advisory lock is free, no write-temp files remain, and the final
  #     checkpoint folded `<store>.journal` into the store file.
  #  5. A daemon killed with SIGKILL after its checkpoints loses nothing
  #     they held: checkpoints append to the journal, and a daemon
  #     restarted on the same store replays it 100% warm.
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target validate_server validate_client batch_validate
  DIR="$(mktemp -d)"
  DAEMON=""
  trap 'if [ -n "$DAEMON" ]; then kill "$DAEMON" 2>/dev/null || true; fi; rm -rf "$DIR"' EXIT
  STORE="$DIR/serve.vstore"
  SOCK="$DIR/serve.sock"

  run_client() {
    # 2 = some optimizations unprovable (expected on these profiles);
    # 3 = --expect-warm violated, which IS a failure here.
    local rc=0
    "$BUILD_DIR/validate_client" --connect "$SOCK" "$@" || rc=$?
    [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ]
  }

  start_daemon() {
    "$BUILD_DIR/validate_server" --listen "$SOCK" --cache "$STORE" \
      --triage --quiet &
    DAEMON=$!
    for _ in $(seq 1 100); do
      [ -S "$SOCK" ] && return 0
      sleep 0.1
    done
    echo "daemon did not come up" >&2
    return 1
  }

  start_daemon
  run_client --suite sqlite,hmmer --quiet --json "$DIR/first.json"
  run_client --suite sqlite,hmmer --quiet --expect-warm
  run_client --shutdown --quiet
  wait "$DAEMON"

  # Warm restart: the checkpointed store must make the new daemon serve a
  # 100% warm replay, byte-identical to the batch path over the same store.
  start_daemon
  run_client --suite sqlite,hmmer --quiet --expect-warm \
    --json "$DIR/served_warm.json"
  run_client --shutdown --quiet
  wait "$DAEMON"

  cp "$STORE" "$DIR/batch.vstore"
  rc=0
  "$BUILD_DIR/batch_validate" --suite sqlite,hmmer --triage \
    --cache "$DIR/batch.vstore" --expect-warm --quiet \
    --json "$DIR/batch_warm.json" || rc=$?
  [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ]
  cmp "$DIR/served_warm.json" "$DIR/batch_warm.json"

  # Clean shutdown: the advisory lock must be free and no atomic-save temp
  # files may survive the daemon.
  if command -v flock > /dev/null 2>&1; then
    flock -n "$STORE.lock" true
  fi
  if ls "$STORE".tmp.* > /dev/null 2>&1; then
    echo "leaked verdict-store temp file" >&2
    exit 1
  fi

  # Crash leg, on a store of its own: the first job's checkpoint writes the
  # store file, the second's appends to the journal. Once /stats shows
  # both, kill -9 the daemon; its successor must replay both jobs warm.
  STORE="$DIR/crash.vstore"
  start_daemon
  run_client --suite sqlite,hmmer --quiet
  run_client --suite sjeng --quiet
  for _ in $(seq 1 100); do
    "$BUILD_DIR/validate_client" --connect "$SOCK" --stats --quiet \
      | grep -Eq '"checkpoints": ([2-9]|[1-9][0-9]+)' && break
    sleep 0.1
  done
  if [ ! -s "$STORE.journal" ]; then
    echo "no checkpoint was appended to the journal" >&2
    exit 1
  fi
  kill -9 "$DAEMON"
  wait "$DAEMON" 2> /dev/null || true
  DAEMON=""
  start_daemon
  run_client --suite sqlite,hmmer --quiet --expect-warm
  run_client --suite sjeng --quiet --expect-warm
  run_client --shutdown --quiet
  wait "$DAEMON"
  DAEMON=""

  # Every graceful shutdown ends in a full save: no journal survives one.
  if ls "$DIR"/*.journal > /dev/null 2>&1; then
    echo "a graceful shutdown left a verdict-store journal behind" >&2
    exit 1
  fi
  echo "check.sh (serve): OK — warm replay over the wire, byte-identical" \
    "to the batch path, clean shutdown, warm restart after kill -9"
  exit 0
fi

if [ "$MODE" = obs ]; then
  # The CI observability job, locally. Six invariants:
  #  1. Telemetry never leaks into reports: suite JSON is byte-identical
  #     with --trace on and off, and across 1/2/8 threads.
  #  2. The emitted trace validates as Chrome trace-event JSON with at
  #     least one span (scripts/check_obs.py trace).
  #  3. A live daemon's /metrics scrape validates as Prometheus text
  #     exposition (scripts/check_obs.py prom) and carries server- and
  #     engine-layer families; the fleet roll-up likewise, with
  #     per-worker labels on the relabeled worker samples.
  #  4. Both daemons answer a plain HTTP GET on --http-metrics with the
  #     same exposition — scraped with a raw socket (check_obs.py http),
  #     no validate_client, the way Prometheus actually arrives. The
  #     server's HTTP body must be byte-identical to the protocol scrape.
  #  5. A traced fleet job merges into one flame: the router-written
  #     trace holds a single trace id whose spans cover at least two
  #     pids (router dispatch + worker engine phases), and the traced
  #     run's suite JSON is byte-identical to the batch front door.
  #  6. store_tool --stats renders the per-shard occupancy of the fleet's
  #     checkpointed store.
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target batch_validate validate_server validate_client validate_fleet \
    store_tool
  DIR="$(mktemp -d)"
  DAEMON=""
  trap 'if [ -n "$DAEMON" ]; then kill "$DAEMON" 2>/dev/null || true; fi; rm -rf "$DIR"' EXIT

  run_bv() {
    # 2 = some optimizations unprovable (expected on these profiles).
    local rc=0
    "$BUILD_DIR/batch_validate" --suite sqlite,hmmer --quiet "$@" || rc=$?
    [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ]
  }
  run_bv --threads 1 --json "$DIR/t1.json"
  run_bv --threads 2 --json "$DIR/t2.json" --trace "$DIR/t2.trace.json"
  run_bv --threads 8 --json "$DIR/t8.json" --trace "$DIR/t8.trace.json"
  cmp "$DIR/t1.json" "$DIR/t2.json"
  cmp "$DIR/t1.json" "$DIR/t8.json"
  python3 "$REPO_ROOT/scripts/check_obs.py" trace "$DIR/t2.trace.json"
  python3 "$REPO_ROOT/scripts/check_obs.py" trace "$DIR/t8.trace.json"

  run_client() {
    local rc=0
    "$BUILD_DIR/validate_client" --connect "$@" || rc=$?
    [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ]
  }
  wait_sock() {
    for _ in $(seq 1 100); do
      [ -S "$1" ] && return 0
      sleep 0.1
    done
    echo "$2 did not come up" >&2
    return 1
  }
  wait_http() {
    # The startup banner's "  http: HOST:PORT" line carries the ephemeral
    # port (the daemons bind --http-metrics ...:0 and fflush the banner).
    for _ in $(seq 1 100); do
      ADDR="$(awk '/^  http: / { print $2; exit }' "$1")"
      [ -n "$ADDR" ] && { echo "$ADDR"; return 0; }
      sleep 0.1
    done
    echo "http banner did not appear in $1" >&2
    return 1
  }

  # A daemon that has served a suite must expose both its own layer and
  # the engine's counters at /metrics, in valid exposition format —
  # identically over the framed protocol and over plain HTTP.
  "$BUILD_DIR/validate_server" --listen "$DIR/s.sock" \
    --http-metrics 127.0.0.1:0 > "$DIR/server.log" &
  DAEMON=$!
  wait_sock "$DIR/s.sock" "daemon"
  SRV_HTTP="$(wait_http "$DIR/server.log")"
  run_client "$DIR/s.sock" --suite sqlite,hmmer --quiet --json "$DIR/srv.json"
  run_client "$DIR/s.sock" --metrics --quiet > "$DIR/server.prom"
  python3 "$REPO_ROOT/scripts/check_obs.py" http "http://$SRV_HTTP/metrics"
  python3 - "$SRV_HTTP" "$DIR/server.http.prom" << 'EOF'
import sys, urllib.request
body = urllib.request.urlopen("http://%s/metrics" % sys.argv[1]).read()
open(sys.argv[2], "wb").write(body)
EOF
  run_client "$DIR/s.sock" --shutdown --quiet
  wait "$DAEMON"
  python3 "$REPO_ROOT/scripts/check_obs.py" prom "$DIR/server.prom"
  grep -q '^llvmmd_server_jobs_completed_total ' "$DIR/server.prom"
  grep -q '^llvmmd_server_queue_wait_us_count ' "$DIR/server.prom"
  grep -q '^llvmmd_engine_pairs_validated_total ' "$DIR/server.prom"
  # The transport must not change the bytes: HTTP scrape == protocol
  # scrape (both taken after the suite, with the daemon idle).
  cmp "$DIR/server.prom" "$DIR/server.http.prom"

  # The fleet roll-up: router-level families plus every worker's samples
  # relabeled with worker="N", still one valid exposition document —
  # also answering over HTTP while jobs could be in flight.
  "$BUILD_DIR/validate_fleet" --listen "$DIR/f.sock" --workers 2 \
    --cache "$DIR/f.vstore" --http-metrics 127.0.0.1:0 > "$DIR/fleet.log" &
  DAEMON=$!
  wait_sock "$DIR/f.sock" "fleet"
  FLT_HTTP="$(wait_http "$DIR/fleet.log")"
  run_client "$DIR/f.sock" --suite sqlite,hmmer --quiet --json "$DIR/flt.json"
  run_client "$DIR/f.sock" --metrics --quiet > "$DIR/fleet.prom"
  python3 "$REPO_ROOT/scripts/check_obs.py" http "http://$FLT_HTTP/metrics"
  run_client "$DIR/f.sock" --shutdown --quiet
  wait "$DAEMON"
  DAEMON=""
  python3 "$REPO_ROOT/scripts/check_obs.py" prom "$DIR/fleet.prom"
  grep -q '^llvmmd_fleet_worker_up{worker="0"} 1' "$DIR/fleet.prom"
  grep -q '^llvmmd_fleet_jobs_completed_total ' "$DIR/fleet.prom"
  grep -q '^llvmmd_server_jobs_completed_total{worker=' "$DIR/fleet.prom"

  # The merged flame: a traced single-job fleet run must produce a trace
  # with exactly one trace id spanning at least two pids, and the traced
  # run's report must be byte-identical to the batch front door over the
  # same module (tracing is invisible in reports).
  "$BUILD_DIR/validate_fleet" --listen "$DIR/t.sock" --workers 2 \
    --trace "$DIR/fleet.trace.json" > "$DIR/traced.log" &
  DAEMON=$!
  wait_sock "$DIR/t.sock" "traced fleet"
  run_client "$DIR/t.sock" --suite hmmer --quiet --json "$DIR/traced.json"
  run_client "$DIR/t.sock" --shutdown --quiet
  wait "$DAEMON"
  DAEMON=""
  python3 "$REPO_ROOT/scripts/check_obs.py" trace "$DIR/fleet.trace.json" \
    --single-trace-id --min-pids 2
  rc=0
  "$BUILD_DIR/batch_validate" --suite hmmer --quiet \
    --json "$DIR/hmmer_batch.json" || rc=$?
  [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ]
  cmp "$DIR/traced.json" "$DIR/hmmer_batch.json"

  # The drain checkpointed the merged store; --stats must render its
  # per-shard occupancy (and exit 0: every shard healthy).
  "$BUILD_DIR/store_tool" --stats "$DIR/f.vstore" | grep -q 'shard 0:'

  echo "check.sh (obs): OK — reports byte-identical with telemetry on/off" \
    "and across thread counts, trace and /metrics validated over the" \
    "protocol and over HTTP, one trace id across processes"
  exit 0
fi

if [ "$MODE" = fleet ]; then
  # The CI fleet job, locally. Five invariants:
  #  1. The fleet is indistinguishable from a single daemon at the socket:
  #     the client suite runs against the router unchanged, and a second
  #     pass replays 100% warm (validate_client --expect-warm exits 3
  #     otherwise) from the sticky worker's shard.
  #  2. kill -9 on a worker mid-suite costs only the in-flight attempt:
  #     the job completes via the supervised restart with at most one
  #     requeue, and the fleet keeps serving.
  #  3. A fleet *restarted* on the merged base store serves a fully warm
  #     replay whose suite JSON is byte-identical to batch_validate over
  #     the same store — two process boundaries add no bytes, lose none.
  #  4. The router exits 0 on a client Shutdown frame (drain, worker
  #     checkpoint, shard merge).
  #  5. store_tool can inspect the surviving shards and union them offline
  #     into a loadable store; no leaked lock or write-temp files remain.
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target validate_fleet validate_server validate_client batch_validate \
    store_tool
  DIR="$(mktemp -d)"
  ROUTER=""
  trap 'if [ -n "$ROUTER" ]; then kill "$ROUTER" 2>/dev/null || true; fi; rm -rf "$DIR"' EXIT
  STORE="$DIR/fleet.vstore"
  SOCK="$DIR/fleet.sock"

  run_client() {
    # 2 = some optimizations unprovable (expected on these profiles);
    # 3 = --expect-warm violated, which IS a failure here.
    local rc=0
    "$BUILD_DIR/validate_client" --connect "$SOCK" "$@" || rc=$?
    [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ]
  }

  start_fleet() {
    # Not --quiet: the startup banner carries the worker pids the kill
    # test needs.
    "$BUILD_DIR/validate_fleet" --listen "$SOCK" --workers 2 \
      --cache "$STORE" --triage > "$DIR/fleet.log" &
    ROUTER=$!
    for _ in $(seq 1 100); do
      [ -S "$SOCK" ] && return 0
      sleep 0.1
    done
    echo "fleet did not come up" >&2
    cat "$DIR/fleet.log" >&2
    return 1
  }

  start_fleet
  run_client --suite sqlite,hmmer --quiet --json "$DIR/first.json"
  run_client --suite sqlite,hmmer --quiet --expect-warm

  # Crash recovery over the wire: a distinct (cold) suite sticks to the
  # second worker; kill -9 it mid-run. The client must still complete the
  # job (restart + requeue are invisible at the socket), and the router
  # stats must show at most one requeue. If validation finished before the
  # kill landed, the check degrades to "the fleet survives losing an idle
  # worker" — the deterministic mid-flight version lives in FleetTest.
  W1_PID="$(awk '/worker 1:/ { print $4 }' "$DIR/fleet.log")"
  [ -n "$W1_PID" ]
  run_client --suite sqlite,hmmer,sjeng --quiet --json "$DIR/kill.json" &
  KILL_CLIENT=$!
  sleep 0.5
  kill -9 "$W1_PID" 2> /dev/null || true
  wait "$KILL_CLIENT"
  run_client --stats --quiet > "$DIR/stats.json"
  REQUEUED="$(grep -o '"requeued": [0-9]*' "$DIR/stats.json" | grep -o '[0-9]*')"
  if [ "${REQUEUED:-0}" -gt 1 ]; then
    echo "worker kill cost $REQUEUED requeues (expected at most 1)" >&2
    exit 1
  fi

  run_client --shutdown --quiet
  wait "$ROUTER"

  # The drain merged the shards into the base store; store_tool must agree
  # they are loadable, and an offline union of the shards alone must also
  # produce a loadable, non-empty store (the crashed-fleet salvage path).
  "$BUILD_DIR/store_tool" --dump "$STORE" "$STORE.shard0" "$STORE.shard1"
  "$BUILD_DIR/store_tool" --merge "$STORE.shard0,$STORE.shard1" \
    -o "$DIR/offline.vstore"
  "$BUILD_DIR/store_tool" --dump "$DIR/offline.vstore" | grep -q 'verdicts [1-9]'

  # Warm restart: the merged store must make the new fleet serve a 100%
  # warm replay, byte-identical to the batch path over the same store.
  start_fleet
  run_client --suite sqlite,hmmer --quiet --expect-warm \
    --json "$DIR/served_warm.json"
  run_client --shutdown --quiet
  wait "$ROUTER"

  cp "$STORE" "$DIR/batch.vstore"
  rc=0
  "$BUILD_DIR/batch_validate" --suite sqlite,hmmer --triage \
    --cache "$DIR/batch.vstore" --expect-warm --quiet \
    --json "$DIR/batch_warm.json" || rc=$?
  [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ]
  cmp "$DIR/served_warm.json" "$DIR/batch_warm.json"

  # Clean shutdown: the advisory lock must be free and no atomic-save temp
  # files may survive the fleet (base store or shards).
  if command -v flock > /dev/null 2>&1; then
    flock -n "$STORE.lock" true
  fi
  if ls "$STORE".tmp.* "$STORE".shard*.tmp.* > /dev/null 2>&1; then
    echo "leaked verdict-store temp file" >&2
    exit 1
  fi
  echo "check.sh (fleet): OK — warm replay through the router, worker" \
    "kill survived, byte-identical to the batch path, clean shutdown"
  exit 0
fi

if [ "$MODE" = llvm ]; then
  # The CI llvm-ingest job, locally. Three invariants:
  #  1. The frozen .ll fixture pair (clang -O0 vs opt output) imports and
  #     validates through the batch front door: every transformed function
  #     validates (exit 0), and the one function outside the importer's
  #     subset (to_int, fptosi) is rejected *per function* with its named
  #     reason — present in the JSON — never sinking its module.
  #  2. The same specs submitted through the server front door produce
  #     byte-identical suite JSON: the unified ModuleLoader means one load
  #     path behind every front door.
  #  3. Same through the fleet router — two process boundaries add no
  #     bytes and lose none.
  #  When clang AND opt are both on PATH the pair is regenerated from the
  #  fixtures' C source and the fresh output revalidated: current compiler
  #  output must still import, still validate, and still reject to_int by
  #  name. Frozen fixtures keep the job deterministic everywhere else.
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target batch_validate validate_server validate_client validate_fleet
  DIR="$(mktemp -d)"
  DAEMON=""
  trap 'if [ -n "$DAEMON" ]; then kill "$DAEMON" 2>/dev/null || true; fi; rm -rf "$DIR"' EXIT
  FIX="$REPO_ROOT/tests/fixtures/llvm"
  PAIR=("$FIX/kernels_O0.ll" "$FIX/kernels_opt.ll")

  "$BUILD_DIR/batch_validate" "${PAIR[@]}" --quiet --json "$DIR/batch.json"
  grep -q '"unsupported_functions": 2' "$DIR/batch.json"
  grep -q '"name": "to_int"' "$DIR/batch.json"
  grep -q '"reason": "unsupported-instruction"' "$DIR/batch.json"

  wait_sock() {
    for _ in $(seq 1 100); do
      [ -S "$1" ] && return 0
      sleep 0.1
    done
    echo "$2 did not come up" >&2
    return 1
  }

  "$BUILD_DIR/validate_server" --listen "$DIR/s.sock" --quiet &
  DAEMON=$!
  wait_sock "$DIR/s.sock" "daemon"
  "$BUILD_DIR/validate_client" --connect "$DIR/s.sock" "${PAIR[@]}" \
    --quiet --json "$DIR/server.json"
  "$BUILD_DIR/validate_client" --connect "$DIR/s.sock" --shutdown --quiet
  wait "$DAEMON"
  cmp "$DIR/batch.json" "$DIR/server.json"

  "$BUILD_DIR/validate_fleet" --listen "$DIR/f.sock" --workers 2 --quiet &
  DAEMON=$!
  wait_sock "$DIR/f.sock" "fleet"
  "$BUILD_DIR/validate_client" --connect "$DIR/f.sock" "${PAIR[@]}" \
    --quiet --json "$DIR/fleet.json"
  "$BUILD_DIR/validate_client" --connect "$DIR/f.sock" --shutdown --quiet
  wait "$DAEMON"
  DAEMON=""
  cmp "$DIR/batch.json" "$DIR/fleet.json"

  REGEN=" (regeneration skipped: clang/opt not on PATH)"
  if command -v clang > /dev/null 2>&1 && command -v opt > /dev/null 2>&1; then
    # Match the frozen fixtures' shape: -O0 without optnone so opt can
    # work, mem2reg'd into SSA form, then a conservative scalar pipeline
    # for the "optimized" side. Per-function rejects of constructs newer
    # compilers emit are fine; a module-level import failure is not.
    clang -S -emit-llvm -O0 -Xclang -disable-O0-optnone \
      -o "$DIR/fresh_base.ll" "$FIX/kernels.c"
    opt -S -passes=mem2reg "$DIR/fresh_base.ll" -o "$DIR/fresh_O0.ll"
    opt -S -passes=mem2reg,sccp,adce,simplifycfg "$DIR/fresh_base.ll" \
      -o "$DIR/fresh_opt.ll"
    rc=0
    "$BUILD_DIR/batch_validate" "$DIR/fresh_O0.ll" "$DIR/fresh_opt.ll" \
      --quiet --json "$DIR/fresh.json" || rc=$?
    [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ]
    grep -q '"name": "to_int"' "$DIR/fresh.json"
    grep -q '"reason": "unsupported-instruction"' "$DIR/fresh.json"
    REGEN=" and regenerated clang/opt output revalidated"
  fi
  echo "check.sh (llvm): OK — fixture pair byte-identical through batch," \
    "server and fleet$REGEN"
  exit 0
fi

if [ "$MODE" = triage ]; then
  # The CI triage job, locally. Three invariants:
  #  1. On the bug-injected corpus the validator/triage never disagrees
  #     with the reference interpreter: no accepted pair diverges, and no
  #     rejected pair the probe can distinguish lacks a triage witness
  #     (bug_detector exits 1 on either).
  #  2. Triage reports are a pure function of the input: --triage JSON is
  #     byte-identical across thread counts.
  #  3. Under the deliberately restricted paper rule mask (the default —
  #     no libc/float/global extension rules) at least one suite alarm is
  #     classified suspected-false-alarm with a named missing rule.
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target batch_validate bug_detector
  "$BUILD_DIR/bug_detector" 32

  run_triage() {
    local rc=0
    "$BUILD_DIR/batch_validate" --profile sqlite --triage "$@" || rc=$?
    [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ]
  }
  run_triage --threads 1 --quiet --json "$BUILD_DIR/triage_t1.json"
  run_triage --threads 8 --quiet --json "$BUILD_DIR/triage_t8.json"
  cmp "$BUILD_DIR/triage_t1.json" "$BUILD_DIR/triage_t8.json"

  grep -q '"classification": "suspected-false-alarm"' "$BUILD_DIR/triage_t1.json"
  grep -q '"missing_rule": "[a-z-]*"' "$BUILD_DIR/triage_t1.json"
  echo "check.sh (triage): OK — corpus witnessed, reports thread-count" \
    "independent, rule gap attributed"
  exit 0
fi

# Tier-1 verify (see ROADMAP.md).
cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
cmake --build "$BUILD_DIR" -j
(cd "$BUILD_DIR" && ctest --output-on-failure -j)

# Figure 4 in the smoke configuration (3 programs at 1/4 scale), on the
# validation engine.
"$BUILD_DIR/fig4_pipeline" --smoke

# Engine determinism spot check: the JSON report must not depend on the
# thread count. batch_validate exits 2 when some optimizations could not be
# proven — expected on this profile; only exit 1 (usage/IO error) is fatal.
run_bv() {
  local rc=0
  "$BUILD_DIR/batch_validate" "$@" || rc=$?
  [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ]
}
run_bv --profile sqlite --threads 1 --quiet --json "$BUILD_DIR/check_t1.json"
run_bv --profile sqlite --threads 8 --quiet --json "$BUILD_DIR/check_t8.json"
cmp "$BUILD_DIR/check_t1.json" "$BUILD_DIR/check_t8.json"

# Same for suite mode: multiple modules sharded over one pool must emit
# byte-identical per-module and roll-up JSON at any thread count.
run_bv --suite sqlite,hmmer --threads 1 --quiet --json "$BUILD_DIR/check_s1.json"
run_bv --suite sqlite,hmmer --threads 8 --quiet --json "$BUILD_DIR/check_s8.json"
cmp "$BUILD_DIR/check_s1.json" "$BUILD_DIR/check_s8.json"

# The whole 12-profile Table-1 suite must be byte-identical at 1 and 4
# threads too: modules are generated concurrently into one Context and each
# function body is cloned inside its optimize task, so this covers ingest
# and cloning on every module, not just the two above.
TABLE1=sqlite,bzip2,gcc,h264ref,hmmer,lbm,libquantum,mcf,milc,perlbench,sjeng,sphinx
run_bv --suite "$TABLE1" --threads 1 --quiet --json "$BUILD_DIR/check_table1_t1.json"
run_bv --suite "$TABLE1" --threads 4 --quiet --json "$BUILD_DIR/check_table1.json"
cmp "$BUILD_DIR/check_table1_t1.json" "$BUILD_DIR/check_table1.json"

# And under --stepwise: the only mode that snapshots (clones) a function
# between passes and validates each step, so it exercises the optimizer's
# shared CFG analyses being invalidated and rebuilt pass by pass.
run_bv --suite "$TABLE1" --stepwise --threads 1 --quiet \
  --json "$BUILD_DIR/check_table1_step_t1.json"
run_bv --suite "$TABLE1" --stepwise --threads 4 --quiet \
  --json "$BUILD_DIR/check_table1_step.json"
cmp "$BUILD_DIR/check_table1_step_t1.json" "$BUILD_DIR/check_table1_step.json"

# Termination gate: over the same suite, normalization must stop on merged
# roots or on a sweep that changed nothing, never on the iteration budget.
# Two rules that undo each other show up here as "iteration budget
# exhausted". The function count keeps the grep honest.
FUNCS=$(grep -c '"reason": ' "$BUILD_DIR/check_table1.json" || true)
if [ "$FUNCS" -lt 400 ]; then
  echo "check.sh: expected the Table-1 suite's functions, found $FUNCS" >&2
  exit 1
fi
if grep '"reason": "iteration budget exhausted"' \
  "$BUILD_DIR/check_table1.json" | grep -o '"name": "[^"]*"' >&2; then
  echo "check.sh: the functions above hit the normalizer's iteration budget" >&2
  exit 1
fi

echo "check.sh: OK"
