#!/bin/sh
# Full local check: configure, build (warnings are errors), run the
# test suite (with the job cache enabled and disabled), lint every
# benchmark design, and smoke-run every bench binary. Set
# CHECK_SANITIZE=1 for an additional ASan/UBSan pass. Each stage's
# wall time is reported in a summary at the end.
set -eu
cd "$(dirname "$0")/.."

TIMES=""
STAGE=""
STAGE_T0=0

stage() {
    stage_end
    STAGE="$1"
    STAGE_T0=$(date +%s)
    echo "== $STAGE"
}

stage_end() {
    if [ -n "$STAGE" ]; then
        TIMES="${TIMES}$(printf '%6ss  %s' \
            "$(( $(date +%s) - STAGE_T0 ))" "$STAGE")
"
        STAGE=""
    fi
}

stage "configure"
# CMAKE_COMPILE_WARNING_AS_ERROR needs CMake 3.24 or later.
cmake -B build -G Ninja -DCMAKE_COMPILE_WARNING_AS_ERROR=ON

stage "build"
cmake --build build

stage "tests (cache enabled)"
ctest --test-dir build --output-on-failure

stage "tests (PREDVFS_DISABLE_CACHE=1)"
PREDVFS_DISABLE_CACHE=1 ctest --test-dir build --output-on-failure

stage "design lint"
build/examples/example_lint_design all

stage "translation validation"
# Statically prove every benchmark's compiled form (typed expression
# nodes, bytecode, segments and routes; also of its RTL and HLS
# slices) equivalent to the source design.
build/examples/example_verify_design all

stage "clang-tidy (if available)"
if command -v clang-tidy > /dev/null 2>&1; then
    cmake -B build -G Ninja -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
        > /dev/null
    find src -name '*.cc' -print0 \
        | xargs -0 clang-tidy -p build --quiet
else
    echo "clang-tidy not installed; skipping (CI runs it)"
fi

stage "serving smoke (unix socket, 1 benchmark)"
# Start the serving daemon, replay sha's test workload through the
# client binary over the socket, and require the served golden to
# byte-match the checked-in fixture. The stop file gives the server a
# deterministic, sanitizer-clean shutdown.
SERVE_SOCK="build/predvfs_smoke.sock"
SERVE_STOP="build/predvfs_smoke.stop"
SERVE_OUT="build/predvfs_smoke.golden"
rm -f "$SERVE_SOCK" "$SERVE_STOP" "$SERVE_OUT"
build/examples/example_serve_server --socket "$SERVE_SOCK" \
    --bench sha --stop-file "$SERVE_STOP" --max-seconds 120 \
    > /dev/null &
SERVE_PID=$!
build/examples/example_serve_client --socket "$SERVE_SOCK" \
    --bench sha --golden > "$SERVE_OUT"
touch "$SERVE_STOP"
wait "$SERVE_PID"
diff tests/goldens/serve_sha.golden "$SERVE_OUT"
rm -f "$SERVE_SOCK" "$SERVE_STOP"

stage "distributed smoke (2 TCP servers, client fleet, SIGKILL one)"
# Two server processes split the benchmark set over TCP (ephemeral
# ports, scraped from stdout). A client fleet replays both goldens
# concurrently; then one server is SIGKILLed mid-run — the surviving
# server keeps serving byte-exact replies — and the dead one
# warm-restarts from its snapshot and must serve the identical bytes
# again on a fresh port.
TCP_LOG1="build/predvfs_tcp1.log"
TCP_LOG2="build/predvfs_tcp2.log"
TCP_STOP="build/predvfs_tcp.stop"
TCP_SNAP="build/predvfs_tcp1.snapshot"
rm -f "$TCP_LOG1" "$TCP_LOG2" "$TCP_STOP" "$TCP_SNAP" \
    build/predvfs_tcp_*.golden

# Block until a server's log shows its concrete tcp:// address.
scrape_tcp_addr() {
    i=0
    while [ "$i" -lt 150 ]; do
        addr=$(grep -o 'tcp://[0-9.]*:[0-9]*' "$1" 2> /dev/null \
            | head -n 1 || true)
        if [ -n "$addr" ]; then
            echo "$addr"
            return 0
        fi
        sleep 0.2
        i=$((i + 1))
    done
    echo "server at $1 never reported its address" >&2
    return 1
}

build/examples/example_serve_server --listen tcp://127.0.0.1:0 \
    --bench sha --shards 2 --snapshot "$TCP_SNAP" \
    --snapshot-seconds 0.2 --max-seconds 120 > "$TCP_LOG1" &
TCP_PID1=$!
build/examples/example_serve_server --listen tcp://127.0.0.1:0 \
    --bench cjpeg --stop-file "$TCP_STOP" --max-seconds 120 \
    > "$TCP_LOG2" &
TCP_PID2=$!
TCP_ADDR1=$(scrape_tcp_addr "$TCP_LOG1")
TCP_ADDR2=$(scrape_tcp_addr "$TCP_LOG2")

# Client fleet: both benchmarks replayed concurrently, each against
# its server, plus a second sha client to exercise shard concurrency.
build/examples/example_serve_client --connect "$TCP_ADDR1" \
    --bench sha --golden > build/predvfs_tcp_sha.golden &
TCP_C1=$!
build/examples/example_serve_client --connect "$TCP_ADDR2" \
    --bench cjpeg --golden > build/predvfs_tcp_cjpeg.golden &
TCP_C2=$!
build/examples/example_serve_client --connect "$TCP_ADDR1" \
    --bench sha --golden > build/predvfs_tcp_sha2.golden &
TCP_C3=$!
wait "$TCP_C1" "$TCP_C2" "$TCP_C3"
diff tests/goldens/serve_sha.golden build/predvfs_tcp_sha.golden
diff tests/goldens/serve_sha.golden build/predvfs_tcp_sha2.golden
diff tests/goldens/serve_cjpeg.golden build/predvfs_tcp_cjpeg.golden

# SIGKILL server 1 while server 2 is mid-burst: the fleet survives.
sleep 1  # Let a periodic snapshot observe the warmed cache.
build/examples/example_serve_client --connect "$TCP_ADDR2" \
    --bench cjpeg --golden > build/predvfs_tcp_cjpeg2.golden &
TCP_C4=$!
kill -9 "$TCP_PID1"
wait "$TCP_PID1" 2> /dev/null || true
wait "$TCP_C4"
diff tests/goldens/serve_cjpeg.golden build/predvfs_tcp_cjpeg2.golden

# Warm restart of the killed server on a fresh ephemeral port: the
# snapshot survives the SIGKILL and the served bytes are identical.
test -s "$TCP_SNAP"
: > "$TCP_LOG1"
build/examples/example_serve_server --listen tcp://127.0.0.1:0 \
    --bench sha --shards 2 --snapshot "$TCP_SNAP" \
    --stop-file "$TCP_STOP" --max-seconds 120 > "$TCP_LOG1" &
TCP_PID1=$!
TCP_ADDR1=$(scrape_tcp_addr "$TCP_LOG1")
build/examples/example_serve_client --connect "$TCP_ADDR1" \
    --bench sha --golden > build/predvfs_tcp_sha3.golden
diff tests/goldens/serve_sha.golden build/predvfs_tcp_sha3.golden

touch "$TCP_STOP"
wait "$TCP_PID1" "$TCP_PID2"
rm -f "$TCP_LOG1" "$TCP_LOG2" "$TCP_STOP" "$TCP_SNAP" \
    build/predvfs_tcp_*.golden

stage "kill-restart smoke (SIGKILL, snapshot warm start, SIGTERM)"
# Serve with periodic snapshots, SIGKILL mid-serving (no drain, no
# flush — only atomically-renamed snapshots survive), restart from
# the snapshot, and require the served golden to byte-match the
# fixture again: a crash costs warmth, never correctness. The restart
# is then stopped with SIGTERM to exercise the self-pipe drain path.
KR_SOCK="build/predvfs_kr.sock"
KR_SNAP="build/predvfs_kr.snapshot"
KR_OUT="build/predvfs_kr.golden"
rm -f "$KR_SOCK" "$KR_SNAP" "$KR_OUT"
build/examples/example_serve_server --socket "$KR_SOCK" \
    --bench sha --snapshot "$KR_SNAP" --snapshot-seconds 0.2 \
    --max-seconds 120 > /dev/null &
KR_PID=$!
build/examples/example_serve_client --socket "$KR_SOCK" \
    --bench sha --golden > /dev/null
sleep 1  # Let a periodic snapshot observe the warmed cache.
kill -9 "$KR_PID"
wait "$KR_PID" 2> /dev/null || true
test -s "$KR_SNAP"
build/examples/example_serve_server --socket "$KR_SOCK" \
    --bench sha --snapshot "$KR_SNAP" --max-seconds 120 \
    > /dev/null &
KR_PID=$!
build/examples/example_serve_client --socket "$KR_SOCK" \
    --bench sha --golden > "$KR_OUT"
kill -TERM "$KR_PID"
wait "$KR_PID"  # Must drain and exit 0, same as the stop-file path.
diff tests/goldens/serve_sha.golden "$KR_OUT"
rm -f "$KR_SOCK" "$KR_SNAP" "$KR_OUT"

stage "robustness smoke (1 benchmark, 60 jobs)"
build/bench/bench_robustness_faults sha 60 > /dev/null

stage "perf regression harness"
build/bench/bench_perf_pipeline BENCH_perf.json

stage "serving bench + chaos soak + sharded dispatch"
# Exits non-zero if cold and warm serving replies ever diverge, if
# the seeded chaos soak sees a byte divergence or a telemetry
# identity violation, or if the sharded dispatcher's replies diverge
# from the single-dispatcher reference.
build/bench/bench_serve BENCH_serve.json

stage "served-path correctness (perfledger solo_hot + solo_cold)"
# One controller over a Unix socket, hot then cold jobs: run.py exits
# non-zero if any served reply differs bit for bit from the in-process
# engine or the tree-walking interpreter.
python3 perfledger/run.py --workload solo_hot --seed 1 --seconds 2
python3 perfledger/run.py --workload solo_cold --seed 1 --seconds 2

stage "bench smoke"
for b in build/bench/*; do
    case "$b" in
        */bench_perf_pipeline) continue ;;  # ran above, with output
        */bench_serve) continue ;;          # ran above, with output
    esac
    if [ -f "$b" ] && [ -x "$b" ]; then
        echo "-- $b"
        "$b" > /dev/null
    fi
done

if [ "${CHECK_SANITIZE:-0}" = "1" ]; then
    stage "sanitizer pass (address;undefined)"
    cmake -B build-san -G Ninja \
        -DPREDVFS_SANITIZE="address;undefined"
    cmake --build build-san
    ctest --test-dir build-san --output-on-failure
    build-san/examples/example_lint_design all
fi

stage_end
echo "== stage wall times"
printf '%s' "$TIMES"
echo "all checks passed"
