#!/usr/bin/env bash
# Tier-1 verification gate, hermetic by construction: every step runs with
# --offline so a regression that reintroduces a registry dependency fails
# here rather than on the first airgapped machine.
#
#   scripts/verify.sh          # build + test + smokes
#   scripts/verify.sh --fast   # build + test only
#
# Performance is measured by the repository benchmark, not here:
#   bash perfbench/run.sh --workload table4|serve-hot|serve-feedback
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "==> cargo clippy --workspace --all-targets (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test --workspace --offline"
cargo test -q --workspace --offline

# The benchmark is its own workspace with path dependencies on crates/, so
# this also fails when a workspace item it compiles against goes away.
echo "==> perfbench unit tests"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> serve integration test (train -> save -> serve -> bitwise compare)"
cargo test -q --release --offline -p esp-serve --test serve_integration
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
    ./target/release/esp-serve --synthetic 24,8,7 --addr 127.0.0.1:0 \
        --http-addr 127.0.0.1:0 2> serve_sidecar.log &
    serve_pid=$!
    tcp_addr=""; http_addr=""
    for _ in $(seq 1 100); do
        tcp_addr=$(sed -n 's/^esp-serve listening on \([^ ]*\) .*/\1/p' serve_sidecar.log)
        http_addr=$(sed -n 's|^esp-serve telemetry on http://\([^ ]*\) .*|\1|p' serve_sidecar.log)
        [[ -n "$tcp_addr" && -n "$http_addr" ]] && break
        sleep 0.1
    done
    [[ -n "$tcp_addr" && -n "$http_addr" ]] \
        || { echo "esp-serve did not print its bound addresses:" >&2; \
             cat serve_sidecar.log >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
    ./target/release/esp-client get --addr "$http_addr" --path /metrics > sidecar_metrics.prom
    for series in esp_serve_requests_total esp_ledger_sites \
                  esp_ledger_observed_miss_rate esp_ledger_calibration_ece; do
        grep -q "$series" sidecar_metrics.prom \
            || { echo "/metrics is missing $series" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
    done
    ./target/release/esp-client get --addr "$http_addr" --path /healthz > sidecar_healthz.json
    grep -q '"protocol_version": 4' sidecar_healthz.json \
        || { echo "/healthz is missing protocol_version 4" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
    grep -q '"ledger_enabled": true' sidecar_healthz.json \
        || { echo "/healthz says the default-on ledger is off" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
    grep -q '"shard_health": \[' sidecar_healthz.json \
        || { echo "/healthz is missing the shard_health array" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
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
            || { echo "/sitez is missing the sites array" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
    fi
    ./target/release/esp-client shutdown --addr "$tcp_addr" > /dev/null
    wait "$serve_pid"
    rm -f serve_sidecar.log sidecar_metrics.prom sidecar_healthz.json sidecar_sitez.json

    echo "==> hot-reload smoke (2 shards, registry publish mid-run, version gauge flips)"
    rm -rf target/verify_reload_registry
    ./target/release/esp-client registry publish --dir target/verify_reload_registry \
        --name smoke --synthetic 16,6,41 > /dev/null
    ./target/release/esp-serve --registry target/verify_reload_registry --name smoke \
        --shards 2 --reload-watch 50 --addr 127.0.0.1:0 \
        --http-addr 127.0.0.1:0 2> serve_reload.log &
    reload_pid=$!
    tcp_addr=""; http_addr=""
    for _ in $(seq 1 100); do
        tcp_addr=$(sed -n 's/^esp-serve listening on \([^ ]*\) .*/\1/p' serve_reload.log)
        http_addr=$(sed -n 's|^esp-serve telemetry on http://\([^ ]*\) .*|\1|p' serve_reload.log)
        [[ -n "$tcp_addr" && -n "$http_addr" ]] && break
        sleep 0.1
    done
    [[ -n "$tcp_addr" && -n "$http_addr" ]] \
        || { echo "esp-serve (reload smoke) did not print its bound addresses:" >&2; \
             cat serve_reload.log >&2; kill "$reload_pid" 2>/dev/null; exit 1; }
    ./target/release/esp-client info --addr "$tcp_addr" --model smoke | grep -q '\[smoke@1\]' \
        || { echo "reload smoke: expected smoke@1 before publish" >&2; kill "$reload_pid" 2>/dev/null; exit 1; }
    ./target/release/esp-client registry publish --dir target/verify_reload_registry \
        --name smoke --synthetic 16,6,42 > /dev/null
    reloaded=0
    for _ in $(seq 1 100); do
        ./target/release/esp-client get --addr "$http_addr" --path /metrics > reload_metrics.prom
        if grep -q '^esp_serve_model_version 2$' reload_metrics.prom; then reloaded=1; break; fi
        sleep 0.1
    done
    [[ "$reloaded" -eq 1 ]] \
        || { echo "reload smoke: esp_serve_model_version never reached 2" >&2; \
             kill "$reload_pid" 2>/dev/null; exit 1; }
    grep -q '^esp_serve_reloads_total 1$' reload_metrics.prom \
        || { echo "reload smoke: esp_serve_reloads_total != 1" >&2; kill "$reload_pid" 2>/dev/null; exit 1; }
    grep -q '^esp_serve_shards 2$' reload_metrics.prom \
        || { echo "reload smoke: esp_serve_shards != 2" >&2; kill "$reload_pid" 2>/dev/null; exit 1; }
    for shard in 0 1; do
        for family in queue_depth cache_hit_ratio cache_entries; do
            grep -q "^esp_serve_shard_${shard}_${family} " reload_metrics.prom \
                || { echo "reload smoke: missing esp_serve_shard_${shard}_${family}" >&2; \
                     kill "$reload_pid" 2>/dev/null; exit 1; }
        done
    done
    ./target/release/esp-client info --addr "$tcp_addr" --model smoke@2 | grep -q '\[smoke@2\]' \
        || { echo "reload smoke: smoke@2 not served after reload" >&2; kill "$reload_pid" 2>/dev/null; exit 1; }
    ./target/release/esp-client shutdown --addr "$tcp_addr" > /dev/null
    wait "$reload_pid"
    rm -f serve_reload.log reload_metrics.prom
    rm -rf target/verify_reload_registry

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

    echo "==> dynamic-predictor arena smoke (2-program dyn table, cached traces)"
    cargo run --release --offline -q -p esp-bench --bin repro_tables -- \
        --dynamic --quick --subset sort,grep --trace-dir target/esptraces \
        | tee table_dyn.txt
    grep -q 'ESP+TAGE' table_dyn.txt \
        || { echo "dyn table is missing the ESP+TAGE hybrid column" >&2; exit 1; }
    grep -Eq 'wins warmup|warmup tie' table_dyn.txt \
        || { echo "dyn table is missing the warmup verdict" >&2; exit 1; }
    rm -f table_dyn.txt

    echo "==> f32 quantization gate (2-fold Table 4 subset, flip bound 0.05)"
    cargo run --release --offline -q -p esp-bench --bin repro_tables -- \
        table4 --quick --subset sort,grep --precision f32 --flip-bound 0.05 \
        | tee table4_f32.txt
    grep -q 'f32_flip_rate=' table4_f32.txt \
        || { echo "gate report is missing f32_flip_rate" >&2; exit 1; }
    grep -q 'gate: PASS' table4_f32.txt \
        || { echo "f32 flip rate exceeded the 0.05 bound" >&2; exit 1; }
    rm -f table4_f32.txt

    echo "==> extended-features smoke (2-fold Table 4 subset, extended vs baseline)"
    cargo run --release --offline -q -p esp-bench --bin repro_tables -- \
        table4 --quick --subset sort,grep --features extended \
        | tee table4_ext.txt
    grep -q 'extended_vs_baseline:' table4_ext.txt \
        || { echo "extended run is missing the extended_vs_baseline delta line" >&2; exit 1; }
    rm -f table4_ext.txt
fi

echo "==> verify OK"
