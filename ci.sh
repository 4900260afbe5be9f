#!/usr/bin/env bash
# CI gate: warnings-as-errors build, full test suite, the determinism
# suite under forced parallelism, the no-panic fuzz gate (reproducible
# seed), the failpoint matrix, the parinda-lint static-analysis pass
# (never-crash / determinism / lock-discipline / failpoint-coverage
# contracts), its fixture corpus, the API-surface grep gate, smoke runs
# of the E4, E8 and E9 benches, and a one-round run of the benchmark
# workspace.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> tier-1: release build"
cargo build --release

echo "==> warnings-as-errors build"
RUSTFLAGS="-D warnings" cargo build --workspace

echo "==> API-surface gate (one entry point per job: no suffixed siblings, no too_many_arguments on a pub fn)"
# The advisor's entry points take what varies in RunCtx / AdviseRequest /
# their option structs (DESIGN.md, "API surface"). A new `foo_traced` next
# to `foo`, or a pub fn that needs the clippy allowance, is the variant
# explosion coming back.
surface=(crates/parallel/src crates/inum/src crates/advisor/src crates/core/src)
if grep -rnE 'pub fn \w+_(traced|budgeted|par|constrained|shared|weighted)\b' "${surface[@]}"; then
    echo "suffixed sibling entry point: add a field to RunCtx/AdviseRequest or a parameter to the one function instead"
    exit 1
fi
if find "${surface[@]}" -name '*.rs' -print0 | xargs -0 awk '
    /allow\(clippy::too_many_arguments\)/ { armed = 1; next }
    armed && /^[[:space:]]*(#\[|\/\/)/ { next }
    armed { if ($0 ~ /^[[:space:]]*pub fn /) { print FILENAME ":" FNR ": " $0; bad = 1 } armed = 0 }
    END { exit !bad }'; then
    echo "pub fn under #[allow(clippy::too_many_arguments)]: group the parameters into the request/context structs"
    exit 1
fi
# One what-if costing path (DESIGN.md, "What-if costing path"): only the
# rewriter itself and `WhatIfDesign::cheaper_rewrite` may call
# `rewrite_select`; everything else rewrites, binds, plans and compares
# through `WhatIfDesign`. Test code (`tests/` dirs and the body of a
# `#[cfg(test)] mod { ... }`, tracked by brace depth) is exempt; any other
# line after a test module is still checked.
rewrite_gate='
    FNR == 1 { pending = 0; skip = 0 }
    FILENAME ~ /crates\/advisor\/src\/(rewrite|whatif_design)\.rs$/ { nextfile }
    /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; next }
    pending && /^[[:space:]]*(#\[|\/\/)/ { next }
    pending { pending = 0; if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+[[:space:]]*\{/) { skip = 1; depth = 0 } }
    skip { depth += gsub(/\{/, "{"); depth -= gsub(/\}/, "}"); if (depth <= 0) skip = 0; next }
    /rewrite_select\(/ && $0 !~ /^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit !bad }'
if find crates src examples benchmark/src -path '*/tests' -prune -o -name '*.rs' -print0 \
    | xargs -0 awk "$rewrite_gate"; then
    echo "rewrite_select called outside the what-if costing path: go through parinda_advisor::WhatIfDesign::cheaper_rewrite"
    exit 1
fi

echo "==> tier-1: tests (whole workspace; includes the lint fixture corpus)"
cargo test -q --workspace

echo "==> determinism suite (PARINDA_THREADS=2)"
PARINDA_THREADS=2 cargo test -q --test determinism

echo "==> no-panic fuzz gate (tests/no_panic.rs, extra seed)"
cargo test -q --test no_panic
# Reproducible extra-seed leg: the seed defaults to the current epoch
# but is echoed so a red run can be replayed exactly with
#   PARINDA_CI_SEED=<seed> ./ci.sh
PARINDA_CI_SEED="${PARINDA_CI_SEED:-$(date +%s)}"
echo "    fuzz seed: PARINDA_CI_SEED=${PARINDA_CI_SEED} (set this env var to replay)"
PROPTEST_SEED="${PARINDA_CI_SEED}" cargo test -q --test no_panic

echo "==> failpoint matrix (every site x err/panic/delay x 1/2/8 threads)"
cargo test -q --features failpoints --test failpoints

echo "==> daemon leg (parinda-server: 10 concurrent wire clients against one live daemon)"
daemon_log="$(mktemp)"
client_dir="$(mktemp -d)"
./target/release/parinda-cli serve --listen 127.0.0.1:0 --load paper > "$daemon_log" &
daemon_pid=$!
port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$daemon_log")"
    [ -n "$port" ] && break
    sleep 0.1
done
[ -n "$port" ] || { echo "daemon never announced its port"; exit 1; }

# Frame headers carry payload byte counts and DEGRADED lines carry wall
# clock; scrub both so concurrent transcripts can be diffed bytewise.
scrub() {
    sed -e 's/^ok [0-9][0-9]*$/ok/' \
        -e 's/^err \([a-z]*\) [0-9][0-9]*$/err \1/' \
        -e 's/after [0-9.]* ms/after <time> ms/'
}

replay_client() {  # one scripted advisor session, transcript to stdout
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf 'show tables\nworkload sdss\nworkload stats\nwhatif index w_ra photoobj ra\nshow design\nsuggest indexes 512 greedy\nquit\n' >&3
    cat <&3
    exec 3<&- 3>&-
}
exhauster_client() {  # runs its advisor under a 1-round budget cap
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf 'workload sdss\nbudget rounds 1\nsuggest indexes 512 greedy\nquit\n' >&3
    cat <&3
    exec 3<&- 3>&-
}
canceller_client() {  # fires `cancel` while its own request is in flight
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf 'workload sdss\nsuggest indexes 2048 ilp\n' >&3
    sleep 0.2
    printf 'cancel\nquit\n' >&3
    cat <&3
    exec 3<&- 3>&-
}

client_pids=()
for i in $(seq 1 8); do
    replay_client > "$client_dir/replay.$i" & client_pids+=($!)
done
exhauster_client > "$client_dir/exhauster" & client_pids+=($!)
canceller_client > "$client_dir/canceller" & client_pids+=($!)
for pid in "${client_pids[@]}"; do
    wait "$pid" || { echo "a wire client failed"; exit 1; }
done

# all eight identical sessions must produce byte-identical transcripts
scrub < "$client_dir/replay.1" > "$client_dir/replay.expected"
grep -q '^bye 0$' "$client_dir/replay.expected" || { echo "replay session did not end with bye"; exit 1; }
if grep -q 'DEGRADED' "$client_dir/replay.expected"; then echo "unbudgeted replay must not degrade"; exit 1; fi
for i in $(seq 2 8); do
    scrub < "$client_dir/replay.$i" | diff -u "$client_dir/replay.expected" - \
        || { echo "replay client $i diverged from client 1"; exit 1; }
done
grep -q 'DEGRADED' "$client_dir/exhauster" || { echo "budget-exhauster session never degraded"; exit 1; }
grep -q '^bye 0$' "$client_dir/canceller" || { echo "canceller session did not end cleanly"; exit 1; }

# admin session: the shared plan cache must show cross-session reuse and
# no request may have recovered a worker panic; then shut the daemon down.
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf 'server stats\nserver shutdown\n' >&3
cat <&3 > "$client_dir/admin"
exec 3<&- 3>&-
grep -q '^worker_panics_recovered 0$' "$client_dir/admin" || { echo "daemon recovered a worker panic"; cat "$client_dir/admin"; exit 1; }
if grep -q '^inum_plan_cache_hits 0$' "$client_dir/admin"; then echo "shared plan cache saw no cross-session hits"; exit 1; fi
grep -q '^inum_plan_cache_hits ' "$client_dir/admin" || { echo "server stats missing cache counters"; exit 1; }

wait "$daemon_pid" || { echo "daemon did not exit cleanly after server shutdown"; exit 1; }
rm -rf "$daemon_log" "$client_dir"
echo "    daemon leg ok: 8 identical transcripts, exhauster degraded, canceller clean, zero recovered panics"

echo "==> crash matrix (SIGKILL at mid-request / post-fsync / mid-snapshot; recovery vs uncrashed reference)"
# The mid-snapshot point needs an injectable snapshot delay: a debug
# build with the failpoint sites compiled in. Recovery is then probed
# with the release binary — the data dir format is the contract.
cargo build -q --features failpoints
crash_dir="$(mktemp -d)"

start_daemon() {  # <binary> <data-dir> <logfile>; sets $daemon_pid and $port
    : > "$3"
    "$1" serve --listen 127.0.0.1:0 --load paper --data-dir "$2" > "$3" &
    daemon_pid=$!
    port=""
    for _ in $(seq 1 200); do
        port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$3")"
        [ -n "$port" ] && break
        sleep 0.1
    done
    [ -n "$port" ] || { echo "crash-matrix daemon never announced its port"; exit 1; }
}

read_frames() {  # read exactly $1 reply frames from fd 5 (header + sized payload)
    local i hdr n
    for ((i = 0; i < $1; i++)); do
        IFS= read -r hdr <&5 || return 1
        printf '%s\n' "$hdr"
        n="${hdr##* }"
        if [ "$n" -gt 0 ] 2>/dev/null; then
            # dd bs=1 reads exactly n bytes from the socket (head -c may
            # buffer past the frame and eat the next header)
            dd bs=1 count="$n" <&5 2>/dev/null
        fi
    done
}

send_journaled() {  # greeting + three state-mutating commands, replies awaited
    exec 5<>"/dev/tcp/127.0.0.1/$port"
    read_frames 1 > /dev/null
    printf 'workload sdss\nwhatif index w_ra photoobj ra\nthreads 3\n' >&5
    # Once the replies are back, journal-before-apply guarantees all
    # three commands are fsynced in the WAL: safe to crash.
    read_frames 3 > /dev/null
}

sigkill_daemon() {
    kill -9 "$daemon_pid"
    wait "$daemon_pid" 2>/dev/null || true
    exec 5<&- 5>&-
}

# Stable view of a recovered daemon: attach, transcript, session state,
# stats reduced to run-invariant lines (counters like wal_records and
# recovery_replayed_records legitimately differ between a crashed tail
# replay and a reference that snapshotted on its graceful shutdown).
probe_recovery() {  # <data-dir>
    start_daemon ./target/release/parinda-cli "$1" "$crash_dir/probe.log"
    exec 5<>"/dev/tcp/127.0.0.1/$port"
    printf 'server attach 1\nserver transcript\nshow design\nserver stats\nserver shutdown\n' >&5
    cat <&5 | scrub | grep -vE '^(sessions_|requests |request_errors |cancelled_inflight |server_request_spans |inum_plan_cache_|wal_records |wal_bytes |snapshots_taken |recovery_replayed_records |recovery_truncated_tail )'
    exec 5<&- 5>&-
    wait "$daemon_pid" || { echo "recovery probe daemon did not exit cleanly"; exit 1; }
}

# Uncrashed reference: same journaled commands, advisor run completed,
# graceful shutdown (drain + final snapshot).
start_daemon ./target/release/parinda-cli "$crash_dir/ref" "$crash_dir/ref.log"
send_journaled
printf 'suggest indexes 512 greedy\n' >&5
read_frames 1 > /dev/null
printf 'server shutdown\n' >&5
read_frames 2 > /dev/null || true
exec 5<&- 5>&-
wait "$daemon_pid" || { echo "reference daemon did not exit cleanly"; exit 1; }

# Kill point 1: mid-request — SIGKILL while an advisor run is in flight.
start_daemon ./target/release/parinda-cli "$crash_dir/midreq" "$crash_dir/midreq.log"
send_journaled
printf 'suggest indexes 512 greedy\n' >&5
sleep 0.3
sigkill_daemon

# Kill point 2: post-fsync — SIGKILL right after the journaled replies.
start_daemon ./target/release/parinda-cli "$crash_dir/postfsync" "$crash_dir/postfsync.log"
send_journaled
sigkill_daemon

# Kill point 3: mid-snapshot — the failpoints build stalls the shutdown
# snapshot for 2 s; SIGKILL lands inside it.
PARINDA_FAILPOINTS='wal::snapshot=delay:2000' \
    start_daemon ./target/debug/parinda-cli "$crash_dir/midsnap" "$crash_dir/midsnap.log"
send_journaled
printf 'server shutdown\n' >&5
sleep 0.5
sigkill_daemon

probe_recovery "$crash_dir/ref" > "$crash_dir/probe.ref"
grep -q 'attached durable session 1: 3 journaled command(s) replayed' "$crash_dir/probe.ref" \
    || { echo "reference recovery did not restore the session"; cat "$crash_dir/probe.ref"; exit 1; }
grep -q '^durability on$' "$crash_dir/probe.ref" \
    || { echo "reference restart is not durable"; cat "$crash_dir/probe.ref"; exit 1; }
grep -q '^worker_panics_recovered 0$' "$crash_dir/probe.ref" \
    || { echo "reference restart recovered a worker panic"; exit 1; }
for point in midreq postfsync midsnap; do
    probe_recovery "$crash_dir/$point" > "$crash_dir/probe.$point"
    diff -u "$crash_dir/probe.ref" "$crash_dir/probe.$point" \
        || { echo "crash point $point: recovered state diverged from the uncrashed reference"; exit 1; }
done
rm -rf "$crash_dir"
echo "    crash matrix ok: 3 SIGKILL points recovered bit-identical to the uncrashed reference"

echo "==> stream leg (live durable daemon: drift-triggered re-advice, pin/ban honored, SIGKILL mid-epoch)"
stream_dir="$(mktemp -d)"

# One epoch committed (drift maximal -> auto re-advise), two feeds left
# pending: the SIGKILL lands mid-epoch. Every reply is awaited, so all
# nine commands are journaled before the crash.
send_stream() {  # replies to $1
    exec 5<>"/dev/tcp/127.0.0.1/$port"
    read_frames 1 > /dev/null
    printf 'advise auto on\nadvise budget 64\npin photoobj(objid)\nban photoobj(dec)\n' >&5
    printf 'feed SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 20\n' >&5
    printf 'feed SELECT objid FROM photoobj WHERE ra BETWEEN 30 AND 40\n' >&5
    printf 'epoch\n' >&5
    printf 'feed SELECT objid FROM photoobj WHERE dec > 5\n' >&5
    printf 'feed SELECT objid FROM photoobj WHERE dec > 7\n' >&5
    read_frames 9 > "$1"
}

probe_stream() {  # <data-dir>: attach, inspect the stream, close the epoch
    start_daemon ./target/release/parinda-cli "$1" "$stream_dir/probe.log"
    exec 5<>"/dev/tcp/127.0.0.1/$port"
    printf 'server attach 1\nserver transcript\ndrift\nepoch\nserver stats\nserver shutdown\n' >&5
    cat <&5 | scrub | grep -vE '^(sessions_|requests |request_errors |cancelled_inflight |server_request_spans |inum_plan_cache_|wal_records |wal_bytes |snapshots_taken |recovery_replayed_records |recovery_truncated_tail )'
    exec 5<&- 5>&-
    wait "$daemon_pid" || { echo "stream probe daemon did not exit cleanly"; exit 1; }
}

start_daemon ./target/release/parinda-cli "$stream_dir/ref" "$stream_dir/ref.log"
send_stream "$stream_dir/ref.replies"
printf 'server shutdown\n' >&5
read_frames 2 > /dev/null || true
exec 5<&- 5>&-
wait "$daemon_pid" || { echo "stream reference daemon did not exit cleanly"; exit 1; }

start_daemon ./target/release/parinda-cli "$stream_dir/crash" "$stream_dir/crash.log"
send_stream "$stream_dir/crash.replies"
sigkill_daemon

# The live epoch already enforced the constraints and re-advised on drift.
grep -q 're-advising' "$stream_dir/crash.replies" || { echo "drift did not trigger a re-advise"; exit 1; }
grep -q 'idx_photoobj_objid' "$stream_dir/crash.replies" || { echo "pinned index missing from the advised design"; exit 1; }
if grep -q 'idx_photoobj_dec ON' "$stream_dir/crash.replies"; then echo "banned index advised"; exit 1; fi

probe_stream "$stream_dir/ref" > "$stream_dir/probe.ref"
probe_stream "$stream_dir/crash" > "$stream_dir/probe.crash"
diff -u "$stream_dir/probe.ref" "$stream_dir/probe.crash" \
    || { echo "mid-epoch SIGKILL recovery diverged from the uncrashed reference"; exit 1; }
grep -q 'attached durable session 1: 9 journaled command(s) replayed' "$stream_dir/probe.crash" \
    || { echo "stream recovery did not replay all journaled commands"; cat "$stream_dir/probe.crash"; exit 1; }
grep -q '2 pending statement(s)' "$stream_dir/probe.crash" \
    || { echo "pending feeds lost in recovery"; cat "$stream_dir/probe.crash"; exit 1; }
grep -q 're-advising' "$stream_dir/probe.crash" || { echo "post-recovery epoch did not re-advise"; exit 1; }
grep -q 'idx_photoobj_objid' "$stream_dir/probe.crash" || { echo "pin lost in recovery"; exit 1; }
if grep -q 'idx_photoobj_dec ON' "$stream_dir/probe.crash"; then echo "ban lost in recovery"; exit 1; fi
rm -rf "$stream_dir"
echo "    stream leg ok: drift re-advised, pin/ban honored, mid-epoch SIGKILL recovered bit-identical"

echo "==> static analysis (parinda-lint: panic-site, nondeterminism, lock-discipline, failpoint-coverage, trace-coverage, lock-order, blocking-while-locked, guard-across-unwind)"
cargo run -q -p parinda-lint --release -- --workspace --json lint.json
python3 - <<'PYEOF' || { echo "lint.json failed validation"; exit 1; }
import json, sys
with open("lint.json") as f:
    doc = json.load(f)
assert doc["schema"] == "parinda-lint/v1", f"bad schema {doc['schema']!r}"
assert isinstance(doc["findings"], list)
for fnd in doc["findings"]:
    assert set(fnd) == {"file", "line", "rule", "message"}, f"bad finding keys {set(fnd)}"
    assert isinstance(fnd["line"], int)
stats = doc["stats"]
assert set(stats) == {"files", "files_lexed", "findings", "suppressed"}, f"bad stats keys {set(stats)}"
assert stats["findings"] == len(doc["findings"])
assert stats["files_lexed"] == stats["files"], \
    f"single-pass contract broken: {stats['files_lexed']} lexer passes over {stats['files']} files"
PYEOF

echo "==> lint fixture corpus (the lints are themselves tested)"
cargo run -q -p parinda-lint --release -- --fixtures

echo "==> e4 ilp-vs-greedy bench (smoke; the one bench that runs the simplex and branch-and-bound)"
cargo bench -p parinda-bench --bench e4_ilp_vs_greedy -- --test

echo "==> e8 parallel-scaling bench (smoke)"
cargo bench -p parinda-bench --bench e8_parallel_scaling -- --test

echo "==> e9 trace-overhead bench (smoke)"
cargo bench -p parinda-bench --bench e9_trace_overhead -- --test

echo "==> E3/E4 machine-readable artifact (BENCH_e3_e4.json, schema parinda-bench/e3e4/v1)"
cargo run -q --release -p parinda-bench --bin experiments -- json e3e4 BENCH_e3_e4.json
python3 -m json.tool BENCH_e3_e4.json > /dev/null 2>&1 || \
    { echo "BENCH_e3_e4.json is not valid JSON"; exit 1; }

echo "==> E10 scaling artifact (BENCH_e10.json, schema parinda-bench/e10/v1)"
cargo run -q --release -p parinda-bench --bin experiments -- json e10 BENCH_e10.json
python3 - <<'PYEOF' || { echo "BENCH_e10.json failed validation"; exit 1; }
import json
with open("BENCH_e10.json") as f:
    d = json.load(f)
assert d["schema"] == "parinda-bench/e10/v1", d["schema"]
assert d["statements"] == 100000, d["statements"]
assert 0 < d["templates"] < d["statements"]
# the sparse matrix must stay well under the dense size
assert d["matrix_nnz"] < 0.2 * d["dense_cells"], (d["matrix_nnz"], d["dense_cells"])
# the greedy incumbent never makes the search do more work
assert d["solver_nodes_warm"] <= d["solver_nodes_cold"]
PYEOF

echo "==> benchmark --quick (the benchmark is a workspace of its own: compile its adapter against the library, check every reply against benchmark/expected/)"
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --quick

echo "==> ci green"
