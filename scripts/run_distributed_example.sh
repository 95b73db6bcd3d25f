#!/usr/bin/env bash
# Runs the generated distributed example as two real OS processes over
# loopback and checks both sides ran the session to completion.
#
# Usage:
#     run_distributed_example.sh tcp|uds [BINARY] [--telemetry TRACE_BIN [CHECK_BIN]]
#
# BINARY defaults to the release build of examples/distributed_streaming
# (built with `cargo build --release --example distributed_streaming`);
# pass a path to skip the cargo invocation, e.g. in CI after a workspace
# build.
#
# --telemetry TRACE_BIN additionally exercises the observability path
# (requires a BINARY built with `--features telemetry`): role S serves
# `GET /metrics`, a scraper polls it *while the session runs* and
# asserts the exposition parses and carries per-link histogram series,
# both roles write trace dumps, and TRACE_BIN (a `rumpsteak-trace`
# build) merges them into one timeline — failing unless every protocol
# edge with frame sends produced at least one cross-process flow event.
# CHECK_BIN (a `bench-check` build, by default the one beside TRACE_BIN)
# validates the merged timeline.
#
# Topology: role S is listed first so role T (listed later) dials S;
# S accepts. Starting T first exercises the dial-retry path.
set -euo pipefail

mode="${1:-}"
case "$mode" in
    tcp | uds) ;;
    *)
        echo "usage: $0 tcp|uds [BINARY] [--telemetry TRACE_BIN [CHECK_BIN]]" >&2
        exit 2
        ;;
esac
shift

binary=""
trace_bin=""
check_bin=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --telemetry)
            trace_bin="${2:?--telemetry requires a rumpsteak-trace binary}"
            shift 2
            # Both are `bench` binaries, so cargo builds them side by side.
            check_bin="$(dirname "$trace_bin")/bench-check"
            if [[ $# -gt 0 && "$1" != --* ]]; then
                check_bin="$1"
                shift
            fi
            ;;
        *)
            binary="$1"
            shift
            ;;
    esac
done

repo="$(cd "$(dirname "$0")/.." && pwd)"
if [[ -z "$binary" ]]; then
    (cd "$repo" && cargo build --release --example distributed_streaming)
    binary="$repo/target/release/examples/distributed_streaming"
fi

workdir="$(mktemp -d)"
pids=()
# The trap owns teardown for every exit path: any still-running role is
# killed (so an interrupt can't leak a process holding a bound socket)
# and the workdir — UDS sockets included — is removed.
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

topology="$workdir/topology.txt"
metrics_port=""
if [[ "$mode" == tcp || -n "$trace_bin" ]]; then
    # Loopback ports nobody listens on (a connect probe is refused),
    # drawn below the kernel's ephemeral range: two for a TCP topology,
    # one more for the metrics endpoint. A port can still be taken
    # between the probe and the role's bind; the role then fails loudly.
    count=0
    [[ "$mode" == tcp ]] && count=2
    [[ -n "$trace_bin" ]] && count=$((count + 1))
    ports=()
    while ((${#ports[@]} < count)); do
        port=$((20000 + RANDOM % 12768))
        [[ " ${ports[*]} " == *" $port "* ]] && continue
        (exec 3<> "/dev/tcp/127.0.0.1/$port") 2> /dev/null || ports+=("$port")
    done
    [[ -n "$trace_bin" ]] && metrics_port="${ports[-1]}"
fi
if [[ "$mode" == tcp ]]; then
    printf 'S tcp:127.0.0.1:%s\nT tcp:127.0.0.1:%s\n' "${ports[0]}" "${ports[1]}" > "$topology"
else
    printf 'S uds:%s/s.sock\nT uds:%s/t.sock\n' "$workdir" "$workdir" > "$topology"
fi

echo "== topology ($mode) =="
cat "$topology"

# Polls role S's metrics endpoint until the exposition carries per-link
# wire-latency histogram series (and every line parses), then saves
# that scrape. Fails on timeout — the run is over and the endpoint is
# gone, so a miss means the mid-run window closed without a valid
# scrape. Builtins only inside the loop: the session is over in
# milliseconds, so a fork per poll would eat the scrape window.
scrape() {
    local line_re='^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [0-9.e+-]+$'
    local deadline=$((SECONDS + 30)) lines line body in_headers
    # The launcher holds the roles back until this file exists.
    : > "$workdir/scrape.ready"
    while ((SECONDS < deadline)); do
        if ! { exec 3<> "/dev/tcp/127.0.0.1/$metrics_port"; } 2> /dev/null; then
            continue
        fi
        printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
        mapfile -t lines <&3
        exec 3<&-
        body=""
        in_headers=1
        for line in "${lines[@]}"; do
            if ((in_headers)); then
                [[ "$line" == $'\r' ]] && in_headers=0
            elif [[ -n "$line" && "$line" != \#* && ! "$line" =~ $line_re ]]; then
                echo "unparseable exposition line: $line" >&2
                return 1
            else
                body+="$line"$'\n'
            fi
        done
        if [[ "$body" == *'rumpsteak_wire_latency_ns{'* && "$body" == *'quantile="0.99"'* ]]; then
            printf '%s' "$body" > "$workdir/metrics.txt"
            echo "scraped ${#body} byte(s) mid-run"
            return 0
        fi
    done
    echo "metrics endpoint never served per-link histogram series" >&2
    return 1
}

# One telemetry attempt can lose the race between the scraper and a
# fast session (the endpoint lives exactly as long as the run), so the
# launch block retries a miss; role failures fail immediately.
attempts=1
[[ -n "$trace_bin" ]] && attempts=5
scrape_ok=1
for attempt in $(seq 1 "$attempts"); do
    scrape_pid=""
    if [[ -n "$trace_bin" ]]; then
        rm -f "$workdir/scrape.ready"
        scrape > "$workdir/scrape.log" 2>&1 &
        scrape_pid=$!
        pids+=("$scrape_pid")
        # Hold the roles until the scraper is actually polling.
        for _ in $(seq 1 200); do
            [[ -e "$workdir/scrape.ready" ]] && break
            sleep 0.05
        done
    fi

    # T dials S and retries until S binds, so launch order is free;
    # start T first to make the retry path do real work. Each role is
    # waited on individually: either crashing fails the script with
    # that role's own exit status. The observability env vars are only
    # *set* in telemetry mode — the generated main treats a set-but-
    # empty value as a real path/address.
    t_env=()
    s_env=()
    if [[ -n "$trace_bin" ]]; then
        t_env=("RUMPSTEAK_TRACE_OUT=$workdir/t.trace")
        s_env=(
            "RUMPSTEAK_TRACE_OUT=$workdir/s.trace"
            "RUMPSTEAK_METRICS=127.0.0.1:$metrics_port"
        )
    fi
    env "${t_env[@]}" timeout 60 "$binary" T "$topology" > "$workdir/t.log" 2>&1 &
    t_pid=$!
    pids+=("$t_pid")
    env "${s_env[@]}" timeout 60 "$binary" S "$topology" > "$workdir/s.log" 2>&1 &
    s_pid=$!
    pids+=("$s_pid")

    status_s=0
    status_t=0
    wait "$s_pid" || status_s=$?
    wait "$t_pid" || status_t=$?

    echo "== role S (attempt $attempt) =="
    cat "$workdir/s.log"
    echo "== role T (attempt $attempt) =="
    cat "$workdir/t.log"

    for role in S T; do
        status_var="status_${role,,}"
        if [[ "${!status_var}" -ne 0 ]]; then
            echo "run_distributed_example: role $role exited with status ${!status_var}" >&2
            exit 1
        fi
        if ! grep -q "ran to completion" "$workdir/${role,,}.log"; then
            echo "run_distributed_example: role $role did not report completion" >&2
            exit 1
        fi
    done

    [[ -z "$trace_bin" ]] && break
    # The endpoint died with role S: a scraper still polling now can
    # only time out, so give it a moment to finish writing and reap it.
    sleep 0.2
    kill "$scrape_pid" 2>/dev/null || true
    scrape_ok=0
    wait "$scrape_pid" || scrape_ok=$?
    cat "$workdir/scrape.log"
    [[ "$scrape_ok" -eq 0 ]] && break
    echo "run_distributed_example: mid-run scrape missed, retrying" >&2
done

if [[ -n "$trace_bin" ]]; then
    if [[ "$scrape_ok" -ne 0 ]]; then
        echo "run_distributed_example: metrics endpoint was never scraped mid-run" >&2
        exit 1
    fi
    echo "== metrics (wire latency series) =="
    grep "rumpsteak_wire_latency_ns" "$workdir/metrics.txt"

    # Stitch the two per-process dumps; rumpsteak-trace exits non-zero
    # if any edge with frame sends produced no cross-process flow.
    echo "== trace merge =="
    "$trace_bin" --merge "$workdir/s.trace" "$workdir/t.trace" \
        --out "$workdir/merged.json"
    "$check_bin" trace "$workdir/merged.json"
fi

echo "run_distributed_example: ok ($mode)"
