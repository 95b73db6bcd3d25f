#!/usr/bin/env bash
# Runs the generated distributed example as two real OS processes over
# loopback and checks both sides ran the session to completion.
#
# Usage:
#     run_distributed_example.sh tcp|uds [BINARY] [--telemetry TRACE_BIN]
#
# BINARY defaults to the release build of examples/distributed_streaming
# (built with `cargo build --release --example distributed_streaming`);
# pass a path to skip the cargo invocation, e.g. in CI after a workspace
# build.
#
# --telemetry TRACE_BIN additionally exercises the observability path
# (requires a BINARY built with `--features telemetry`): both roles
# write trace dumps and TRACE_BIN (a `rumpsteak-trace` build) merges
# them into one timeline — failing unless every protocol edge with
# frame sends produced at least one cross-process flow event.
#
# Topology: role S is listed first so role T (listed later) dials S;
# S accepts. Starting T first exercises the dial-retry path.
set -euo pipefail

mode="${1:-}"
case "$mode" in
    tcp | uds) ;;
    *)
        echo "usage: $0 tcp|uds [BINARY] [--telemetry TRACE_BIN]" >&2
        exit 2
        ;;
esac
shift

binary=""
trace_bin=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --telemetry)
            trace_bin="${2:?--telemetry requires a rumpsteak-trace binary}"
            shift 2
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
declare -A pids=()
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
if [[ "$mode" == tcp ]]; then
    # Two loopback ports nobody listens on (a connect probe is refused),
    # drawn below the kernel's ephemeral range. A port can still be taken
    # between the probe and the role's bind; the role then fails loudly.
    ports=()
    while ((${#ports[@]} < 2)); do
        port=$((20000 + RANDOM % 12768))
        [[ " ${ports[*]} " == *" $port "* ]] && continue
        (exec 3<> "/dev/tcp/127.0.0.1/$port") 2> /dev/null || ports+=("$port")
    done
    printf 'S tcp:127.0.0.1:%s\nT tcp:127.0.0.1:%s\n' "${ports[0]}" "${ports[1]}" > "$topology"
else
    printf 'S uds:%s/s.sock\nT uds:%s/t.sock\n' "$workdir" "$workdir" > "$topology"
fi

echo "== topology ($mode) =="
cat "$topology"

# T first: its dial retries until S binds. RUMPSTEAK_TRACE_OUT is only
# *set* in telemetry mode — the generated main treats a set-but-empty
# value as a real path.
for role in T S; do
    if [[ -n "$trace_bin" ]]; then
        export RUMPSTEAK_TRACE_OUT="$workdir/${role,,}.trace"
    fi
    timeout 60 "$binary" "$role" "$topology" > "$workdir/${role,,}.log" 2>&1 &
    pids[$role]=$!
done

# Each role is waited on individually: either crashing fails the script
# with that role's own exit status.
declare -A status=([S]=0 [T]=0)
for role in S T; do
    wait "${pids[$role]}" || status[$role]=$?
    echo "== role $role =="
    cat "$workdir/${role,,}.log"
done

for role in S T; do
    if [[ "${status[$role]}" -ne 0 ]]; then
        echo "run_distributed_example: role $role exited with status ${status[$role]}" >&2
        exit 1
    fi
    if ! grep -q "ran to completion" "$workdir/${role,,}.log"; then
        echo "run_distributed_example: role $role did not report completion" >&2
        exit 1
    fi
done

if [[ -n "$trace_bin" ]]; then
    # Stitch the two per-process dumps; rumpsteak-trace exits non-zero
    # if any edge with frame sends produced no cross-process flow.
    echo "== trace merge =="
    "$trace_bin" --merge "$workdir/s.trace" "$workdir/t.trace" \
        --out "$workdir/merged.json"
fi

echo "run_distributed_example: ok ($mode)"
