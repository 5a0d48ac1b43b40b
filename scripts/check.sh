#!/usr/bin/env bash
# Full local gate: formatting, lints, release build, tests.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> golden snapshots (quick scale, release)"
# The golden suite is compiled out of debug builds (quick-scale runs are
# far too slow unoptimized), so it needs an explicit release invocation.
cargo test -q --release -p mlp-experiments --test golden

echo "==> fault isolation (end to end, release)"
# Same deal: spawns real quick-scale CLI runs with MLP_FAULT armed and
# checks survivors stay byte-identical, so release only.
cargo test -q --release -p mlp-experiments --test faults

echo "==> differential cross-validation (release)"
# MLPsim vs CycleSim over identical trace windows, compared through the
# mlp-obs counter layer — the paper's Table 1/3/4 agreement as a gate.
cargo test -q --release -p mlp-experiments --test differential

echo "==> no-panic property suites"
# Hostile-input coverage: arbitrary/mutated trace bytes must never panic
# the decoders (v1 and chunked v2), randomly panicking sweep jobs must
# never lose a slot, and no byte string panics the JSON parser.
cargo test -q -p mlp-isa --test prop
cargo test -q -p mlp-isa --test chunked_prop
cargo test -q -p mlp-par --test prop
# The JSON parser every reader shares: write->parse round trips, random
# and mutated bytes never panic, nesting past MAX_DEPTH is an error.
cargo test -q -p mlp-json

echo "==> mlp-serve unit tests, 20 runs (race check for armed faults)"
# The cache and job tests arm fault sites; a fault armed for one test
# must never be consumed by a sibling running on another thread.
for _ in $(seq 20); do cargo test -q -p mlp-serve --lib >/dev/null; done

echo "==> model + observability property suites"
# Algebraic laws of the §2.2 CPI model and conservation invariants of
# the mlp-obs counters the engines flush.
cargo test -q -p mlp-model --test prop
cargo test -q -p mlpsim --test prop

echo "==> mlp-stats smoke (armed run -> summary/timeline/self-diff)"
# One small armed experiment with an event trace, then the analyzer over
# its own output: the self-diff must report zero deltas and exit 0.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
MLP_OBS=all MLP_THREADS=1 target/release/mlp-experiments \
    --only epochs --scale quick \
    --json "$smoke_dir" --events "$smoke_dir" >/dev/null
grep -q '"schema": "mlp-experiments.report/v4"' "$smoke_dir/epochs.quick.json"
target/release/mlp-stats summary "$smoke_dir/epochs.quick.json" >/dev/null
target/release/mlp-stats timeline "$smoke_dir/epochs.quick.jsonl" >/dev/null
target/release/mlp-stats diff \
    "$smoke_dir/epochs.quick.json" "$smoke_dir/epochs.quick.json" >/dev/null

echo "==> streaming smoke (spilled trace run == in-memory run)"
# Force every trace to spill as a chunked v2 file and re-run an
# experiment from disk: the streamed report must be byte-identical to
# the in-memory one.
stream_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir" "$stream_dir"' EXIT
target/release/mlp-experiments table5 --scale quick \
    --json "$stream_dir/mem" >/dev/null
MLP_TRACE_CACHE_BYTES=0 target/release/mlp-experiments table5 --scale quick \
    --trace-cache "$stream_dir/cache" --json "$stream_dir/disk" >/dev/null
ls "$stream_dir"/cache/*.mlp2 >/dev/null   # traces really went to disk
diff "$stream_dir/mem/table5.quick.json" "$stream_dir/disk/table5.quick.json"

echo "==> surrogate property + cross-validation suites"
# Planted-coefficient recovery, ridge totality on hostile designs,
# row-order-invariant fits, and the sparse ridge / envelope Cholesky
# bit for bit against the dense loops (prop); then k-fold CV over the
# golden report corpus against the published 5%/15% tolerance. Both
# also run in the debug workspace run above; here they run optimized.
cargo test -q --release -p mlp-surrogate --test prop
cargo test -q --release -p mlp-surrogate --test crossval

echo "==> surrogate smoke (train from reports -> predict -> self-validate)"
# Run a few experiments with --json, train the surrogate from the report
# directory (only reports with full sweep coordinates contribute rows —
# the others must be tolerated, not fatal), and check the schema-tagged
# report lands with an in-tolerance verdict (exit 0).
surr_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir" "$stream_dir" "$surr_dir"' EXIT
target/release/mlp-experiments --only sweep1000,table1,figure7 --scale quick \
    --json "$surr_dir" >/dev/null
target/release/mlp-experiments --surrogate "$surr_dir" >/dev/null
grep -q '"schema": "mlp-surrogate.report/v1"' "$surr_dir/surrogate.json"

echo "==> serve chaos suite (hang/io-error/cache-corrupt/shed, release)"
# Arms each MLP_FAULT serve site in a real daemon process and checks the
# faulted job degrades while sibling responses stay byte-identical and
# the daemon keeps serving.
cargo test -q --release -p mlp-serve --test chaos

echo "==> mlp-serve smoke (daemon response == CLI artifact bytes)"
# Start the daemon on an ephemeral port, run one experiment through it,
# and diff the response byte-for-byte against the file the CLI writes
# for the same experiment and scale.
serve_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir" "$stream_dir" "$surr_dir" "$serve_dir"' EXIT
target/release/mlp-serve --addr 127.0.0.1:0 --port-file "$serve_dir/port" \
    --workers 2 --cache-dir "$serve_dir/cache" 2>/dev/null &
serve_pid=$!
for _ in $(seq 150); do [ -s "$serve_dir/port" ] && break; sleep 0.1; done
serve_addr=$(cat "$serve_dir/port")
target/release/mlp-loadgen get "$serve_addr" /healthz | grep -q '"status":"ok"'
target/release/mlp-loadgen run "$serve_addr" fm quick > "$serve_dir/served.json"
target/release/mlp-experiments fm --scale quick --json "$serve_dir/cli" >/dev/null
diff "$serve_dir/served.json" "$serve_dir/cli/fm.quick.json"

echo "==> serve load burst (records results/BENCH_serve.json; 3x p50 guard)"
# Client-observed latency distribution + serve.* counter deltas against
# the same daemon (mostly cache-served after the smoke run above).
# Re-bless intentional changes with MLP_BENCH_GUARD=off.
target/release/mlp-loadgen bench "$serve_addr" --clients 4 --requests 8 >/dev/null
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true

echo "==> line coverage (fail-soft; see scripts/coverage.sh)"
if scripts/coverage.sh; then
    :
else
    rc=$?
    if [ "$rc" -eq 2 ]; then
        echo "coverage regression — failing the gate"
        exit 1
    fi
    echo "  (skipped: no usable coverage tooling in this environment)"
fi

echo "==> experiment bench (records results/BENCH_experiments.json; guards figure6/table3/figure5)"
# The bench compares the hot sweeps individually against the recorded
# baseline and fails on a >3x same-scale regression. Re-bless intentional
# changes with MLP_BENCH_GUARD=off.
cargo bench -q -p mlp-bench --bench experiments >/dev/null

echo "==> surrogate bench (records results/BENCH_surrogate.json; asserts >=50x + CV tolerance)"
# Active-sampling exploration, fit time, predict throughput, and the
# speedup over a surrogate-free full sweep; fails if the speedup drops
# below 50x, the CV tolerance breaks, or exploration regresses >3x.
cargo bench -q -p mlp-bench --bench surrogate >/dev/null

echo "==> stream bench (records results/BENCH_stream.json; guards peak RSS + wall time)"
# Bounded-memory property of the streaming path at the paper's window
# size: spill 100M instructions, run from disk, assert peak RSS stays
# under the absolute streaming budget. (~90s; the bench's own default is
# 8M so plain 'cargo bench' stays fast.)
MLP_STREAM_BENCH_INSTS=100M cargo bench -q -p mlp-bench --bench stream >/dev/null

echo "All checks passed."
