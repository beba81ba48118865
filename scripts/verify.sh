#!/usr/bin/env bash
# Tier-1 verification gate, hermetic by construction: every step runs with
# --offline so a regression that reintroduces a registry dependency fails
# here rather than on the first airgapped machine.
#
#   scripts/verify.sh          # build + clippy + rustdoc + test + smokes
#   scripts/verify.sh --fast   # build + clippy + rustdoc + test only
#
# Performance is measured by the repository benchmark, not here:
#   bash perfbench/run.sh --workload table4|serve-hot|serve-feedback
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

# Start esp-serve with the given arguments on ephemeral protocol and HTTP
# ports, logging to $1, and wait until it prints both bound addresses.
# Sets serve_pid, tcp_addr and http_addr. $2 names the smoke in the
# failure message; on failure the log is dumped and the server killed.
start_server() {
    local log=$1 smoke=$2
    shift 2
    ./target/release/esp-serve "$@" --addr 127.0.0.1:0 --http-addr 127.0.0.1:0 2> "$log" &
    serve_pid=$!
    tcp_addr=""; http_addr=""
    for _ in $(seq 1 100); do
        tcp_addr=$(sed -n 's/^esp-serve listening on \([^ ]*\) .*/\1/p' "$log")
        http_addr=$(sed -n 's|^esp-serve telemetry on http://\([^ ]*\) .*|\1|p' "$log")
        [[ -n "$tcp_addr" && -n "$http_addr" ]] && return 0
        sleep 0.1
    done
    echo "esp-serve${smoke:+ ($smoke)} did not print its bound addresses:" >&2
    cat "$log" >&2
    kill "$serve_pid" 2>/dev/null
    exit 1
}

# Fail with message $1, killing the server start_server started.
server_fail() {
    echo "$1" >&2
    kill "$serve_pid" 2>/dev/null
    exit 1
}

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

# perfbench/ is its own workspace and is not formatted here.
echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Broken, ambiguous or private intra-doc links fail here, so a deletion
# cannot leave a doc comment pointing at an item that is gone.
echo "==> cargo doc --workspace (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# esp-serve's `poll(2)` call is the only `unsafe` in a library crate; every
# other crate forbids it, and esp-serve denies it outside `mod poll`.
echo "==> unsafe gate (allow(unsafe_code) only in crates/serve/src/poll.rs)"
stray=$(grep -rl 'allow(unsafe_code)' crates/*/src | grep -vx 'crates/serve/src/poll.rs' || true)
[[ -z "$stray" ]] \
    || { echo "allow(unsafe_code) outside crates/serve/src/poll.rs:" >&2; echo "$stray" >&2; exit 1; }

echo "==> cargo test --workspace --offline"
cargo test -q --workspace --offline

# The benchmark is its own workspace with path dependencies on crates/, so
# these also fail when a workspace item it compiles against goes away.
echo "==> cargo clippy perfbench --all-targets (deny warnings)"
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> perfbench unit tests"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> serve integration test (train -> save -> serve -> bitwise compare)"
cargo test -q --release --offline -p esp-serve --test serve_integration
# Release builds wrap on overflow instead of panicking, so the decoder's
# size checks must also hold against hostile frames there.
echo "==> hostile frames against a release-built server"
cargo test -q --release --offline -p esp-serve --test hostile_frames
cargo test -q --release --offline -p esp-artifact --test roundtrip

if [[ "$fast" -eq 0 ]]; then
    echo "==> corpus lint gate (full-corpus findings vs results/lint_golden.json)"
    cargo run --release --offline -q -p esp-bench --bin esp_lint -- \
        --json target/lint_report.json > /dev/null
    diff -u results/lint_golden.json target/lint_report.json \
        || { echo "lint findings drifted from the golden report — if the change \
is intentional, regenerate results/lint_golden.json with esp_lint --json" >&2; exit 1; }
    rm -f target/lint_report.json

    echo "==> static-vs-profile oracle (decided branches must match execution)"
    cargo run --release --offline -q -p esp-bench --bin esp_lint -- \
        --subset sort,grep,sed,gzip --oracle | tee lint_oracle.txt
    grep -q 'oracle: PASS' lint_oracle.txt \
        || { echo "a statically-decided branch contradicts its execution profile" >&2; exit 1; }
    rm -f lint_oracle.txt

    echo "==> telemetry sidecar smoke (esp-serve --http-addr, scraped via esp-client get)"
    start_server serve_sidecar.log "" --synthetic 24,8,7
    ./target/release/esp-client get --addr "$http_addr" --path /metrics > sidecar_metrics.prom
    for series in esp_serve_requests_total esp_ledger_sites \
                  esp_ledger_observed_miss_rate esp_ledger_calibration_ece; do
        grep -q "$series" sidecar_metrics.prom || server_fail "/metrics is missing $series"
    done
    ./target/release/esp-client get --addr "$http_addr" --path /healthz > sidecar_healthz.json
    grep -q '"protocol_version": 4' sidecar_healthz.json \
        || server_fail "/healthz is missing protocol_version 4"
    grep -q '"ledger_enabled": true' sidecar_healthz.json \
        || server_fail "/healthz says the default-on ledger is off"
    grep -q '"shard_health": \[' sidecar_healthz.json \
        || server_fail "/healthz is missing the shard_health array"
    ./target/release/esp-client get --addr "$http_addr" --path '/sitez?top=5' > sidecar_sitez.json
    if command -v python3 >/dev/null 2>&1; then
        python3 - <<'PYEOF'
import json
doc = json.load(open("sidecar_sitez.json"))
assert isinstance(doc.get("sites"), list), "/sitez has no sites array"
summary = doc.get("summary")
assert isinstance(summary, dict), "/sitez has no summary object"
for k in ("sites", "served", "profile_records", "observed_miss_rate", "calibration_ece"):
    assert k in summary, f"/sitez summary is missing {k!r}"
print(f"sitez OK: {len(doc['sites'])} hot sites, {summary['served']} served")
PYEOF
    else
        grep -q '"sites": \[' sidecar_sitez.json \
            || server_fail "/sitez is missing the sites array"
    fi
    ./target/release/esp-client shutdown --addr "$tcp_addr" > /dev/null
    wait "$serve_pid"
    rm -f serve_sidecar.log sidecar_metrics.prom sidecar_healthz.json sidecar_sitez.json

    echo "==> hot-reload smoke (2 shards, registry publish mid-run, version gauge flips)"
    rm -rf target/verify_reload_registry
    ./target/release/esp-client registry publish --dir target/verify_reload_registry \
        --name smoke --synthetic 16,6,41 > /dev/null
    start_server serve_reload.log "reload smoke" --registry target/verify_reload_registry \
        --name smoke --shards 2 --reload-watch 50
    ./target/release/esp-client info --addr "$tcp_addr" --model smoke | grep -q '\[smoke@1\]' \
        || server_fail "reload smoke: expected smoke@1 before publish"
    ./target/release/esp-client registry publish --dir target/verify_reload_registry \
        --name smoke --synthetic 16,6,42 > /dev/null
    reloaded=0
    for _ in $(seq 1 100); do
        ./target/release/esp-client get --addr "$http_addr" --path /metrics > reload_metrics.prom
        if grep -q '^esp_serve_model_version 2$' reload_metrics.prom; then reloaded=1; break; fi
        sleep 0.1
    done
    [[ "$reloaded" -eq 1 ]] || server_fail "reload smoke: esp_serve_model_version never reached 2"
    grep -q '^esp_serve_reloads_total 1$' reload_metrics.prom \
        || server_fail "reload smoke: esp_serve_reloads_total != 1"
    grep -q '^esp_serve_shards 2$' reload_metrics.prom \
        || server_fail "reload smoke: esp_serve_shards != 2"
    for family in esp_serve_shard_0_queue_depth esp_serve_shard_1_queue_depth \
                  esp_serve_cache_entries; do
        grep -q "^${family} " reload_metrics.prom || server_fail "reload smoke: missing ${family}"
    done
    ./target/release/esp-client info --addr "$tcp_addr" --model smoke@2 | grep -q '\[smoke@2\]' \
        || server_fail "reload smoke: smoke@2 not served after reload"
    ./target/release/esp-client shutdown --addr "$tcp_addr" > /dev/null
    wait "$serve_pid"
    rm -f serve_reload.log reload_metrics.prom
    rm -rf target/verify_reload_registry

    # A traced run fails when a per-layer series it reads stays empty (an
    # all-hit workload recording no compute sample, say).
    echo "==> traced benchmark smoke (perfbench serve-hot, 2 s, --trace 1)"
    # The result line decides; a failed run prints none or an incorrect one.
    bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 2 --trace 1 \
        > perfbench_smoke.out 2> perfbench_smoke.log || true
    tail -n 1 perfbench_smoke.out | grep -q '"correct": true' \
        || { echo "traced serve-hot run is not correct:" >&2; tail -n 1 perfbench_smoke.out >&2; \
             tail -n 20 perfbench_smoke.log >&2; exit 1; }
    rm -f perfbench_smoke.out perfbench_smoke.log

    echo "==> observability smoke (traced Table 4 subset, writes trace + exposition)"
    cargo run --release --offline -q -p esp-bench --bin repro_tables -- \
        table4 --quick --subset sort,grep,sed,gzip \
        --trace-out trace_obs.json --metrics-out metrics_obs.prom > /dev/null
    if command -v python3 >/dev/null 2>&1; then
        python3 - <<'PYEOF'
import json
events = json.load(open("trace_obs.json"))
assert isinstance(events, list) and events, "trace is empty or not a list"
assert any(e.get("ph") == "X" for e in events), "no complete spans in trace"
names = {e.get("name") for e in events}
for needed in ("build_suite", "table4_fold", "restart", "epoch"):
    assert needed in names, f"trace is missing `{needed}` spans"
print(f"trace OK: {len(events)} events, spans include {sorted(names)[:8]}…")
PYEOF
    else
        # No python3: at least check the trace has the span names in shape.
        for name in build_suite table4_fold epoch; do
            grep -q "\"name\":\"$name\"" trace_obs.json \
                || { echo "trace is missing \`$name\` spans" >&2; exit 1; }
        done
    fi
    for fam in esp_runtime_ esp_train_ esp_eval_; do
        grep -q "$fam" metrics_obs.prom \
            || { echo "metrics exposition is missing the $fam family" >&2; exit 1; }
    done
    echo "metrics OK: $(grep -c '^# TYPE' metrics_obs.prom) families exposed"
    rm -f trace_obs.json metrics_obs.prom

    echo "==> dynamic-predictor arena smoke (2-program dyn table, run twice, byte-identical)"
    cargo run --release --offline -q -p esp-bench --bin repro_tables -- \
        dyn --quick --subset sort,grep | tee table_dyn.txt
    grep -q 'ESP+TAGE' table_dyn.txt \
        || { echo "dyn table is missing the ESP+TAGE hybrid column" >&2; exit 1; }
    grep -Eq 'wins warmup|warmup tie' table_dyn.txt \
        || { echo "dyn table is missing the warmup verdict" >&2; exit 1; }
    cargo run --release --offline -q -p esp-bench --bin repro_tables -- \
        dyn --quick --subset sort,grep > table_dyn_again.txt
    cmp table_dyn.txt table_dyn_again.txt \
        || { echo "two consecutive dyn runs differ" >&2; exit 1; }
    rm -f table_dyn.txt table_dyn_again.txt

    echo "==> f32 quantization gate (2-fold Table 4 subset, flip bound 0.05)"
    rm -rf target/verify_f32_registry
    cargo run --release --offline -q -p esp-bench --bin repro_tables -- \
        table4 --quick --subset sort,grep --precision f32 --flip-bound 0.05 \
        --save-model target/verify_f32_registry | tee table4_f32.txt
    grep -q 'f32_flip_rate=' table4_f32.txt \
        || { echo "gate report is missing f32_flip_rate" >&2; exit 1; }
    grep -q 'gate: PASS' table4_f32.txt \
        || { echo "f32 flip rate exceeded the 0.05 bound" >&2; exit 1; }
    rm -f table4_f32.txt

    echo "==> f32 serving smoke (serve a gated *-f32 fold, precision gauge reads 32)"
    f32_names=$(./target/release/esp-client registry list --dir target/verify_f32_registry \
        | sed -n 's/^\(table4-.*-f32\): .*/\1/p')
    f32_name=${f32_names%%$'\n'*}
    [[ -n "$f32_name" ]] \
        || { echo "the f32 gate published no *-f32 fold" >&2; exit 1; }
    start_server serve_f32.log "f32 smoke" --registry target/verify_f32_registry \
        --name "$f32_name"
    ./target/release/esp-client get --addr "$http_addr" --path /metrics > f32_metrics.prom
    grep -q '^esp_serve_predict_precision 32$' f32_metrics.prom \
        || server_fail "f32 smoke: $f32_name is not served at 32-bit precision"
    ./target/release/esp-client shutdown --addr "$tcp_addr" > /dev/null
    wait "$serve_pid"
    rm -f serve_f32.log f32_metrics.prom
    rm -rf target/verify_f32_registry

    echo "==> extended-features smoke (2-fold Table 4 subset, extended vs baseline)"
    cargo run --release --offline -q -p esp-bench --bin repro_tables -- \
        table4 --quick --subset sort,grep --features extended \
        | tee table4_ext.txt
    grep -q 'extended_vs_baseline:' table4_ext.txt \
        || { echo "extended run is missing the extended_vs_baseline delta line" >&2; exit 1; }
    rm -f table4_ext.txt
fi

echo "==> verify OK"
