# Developer workflow shortcuts. `just` (or `just check`) mirrors CI.

# Run everything CI runs, in the same order.
check: fmt build test clippy doc

fmt:
    cargo fmt --all --check

build:
    cargo build --release

test:
    cargo test -q --workspace --release

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Rust line counts per crate (plus the root package, examples and tests),
# excluding build output and the vendored offline stubs.
loc:
    #!/usr/bin/env sh
    total=0
    for d in crates/* src examples tests e2ebench; do
        case "$d" in crates/bytes|crates/parking_lot|crates/proptest|crates/rand|crates/criterion) continue ;; esac
        n=$(find "$d" -name '*.rs' -not -path '*/target/*' -exec cat {} + | wc -l)
        printf '%7d  %s\n' "$n" "$d"
        total=$((total + n))
    done
    printf '%7d  total\n' "$total"

# Dispatch-layer microbenchmarks (persistent pool vs spawn-per-dispatch).
bench-dispatch:
    cargo bench -p bench --bench dispatch_overhead

# Regenerate the paper's tables/figures benches.
bench-paper:
    cargo bench -p bench --bench paper_tables

# Re-measure the SoA/column kernel trajectory and rewrite the committed
# BENCH_kernels.json, then validate it with the CI gate. (The bench harness
# runs from the crate directory, hence the absolute path.)
bench-kernels:
    BENCH_KERNELS_JSON=$(pwd)/BENCH_kernels.json cargo bench -p bench --bench kernels
    cargo run --release -p bench --bin bench_check -- BENCH_kernels.json

# Run the workflow comparison with telemetry armed and export a Chrome
# trace (load trace.json in Perfetto / chrome://tracing).
trace-demo:
    cargo run --release --features recording --example workflow_compare -- --trace trace.json

# Incremental re-execution: every workflow twice against one artifact cache;
# the warm pass must hit for everything and change no catalog byte.
cache-demo:
    cargo run --release --example cache_demo

# Multi-campaign service: ten campaigns through an eight-slot batch queue
# must saturate with backpressure, recover, and match their solo catalogs.
service-demo:
    cargo run --release --example service_demo

# The multi-campaign chaos + crash-schedule suite (CI sweeps CHAOS_SEED 1-3).
service:
    cargo test -q --release --test service

# Distributed artifact store: a streamed campaign, one store node killed for
# good, and a warm re-run that must recompute nothing (byte-compared).
store-demo:
    cargo run --release --example store_demo

# The store crash-schedule + node-death suite (CI sweeps CHAOS_SEED 1-3).
store:
    cargo test -q --release --test store

# In-situ visualization demo: every-step density render through the
# CosmoTools task, final frame as HCIM + ASCII, render-phase cost line.
render-demo:
    cargo run --release --example density_render

# The render chaos suite: fault-storm byte-identity, exactly-once frame
# listener crash/restart, warm re-runs with zero re-renders (CI sweeps
# CHAOS_SEED 1-3).
render:
    cargo test -q --release --test render

# Fast conformance suite: differential backends, physics oracles, bounded
# crash-schedule exploration, listener regressions, golden fixtures.
conformance:
    cargo test -q --release --test conformance
    cargo test -q --release -p conformance

# Nightly scope: crash at every recorded (site, hit) pair instead of the
# first hit per site.
conformance-exhaustive:
    CONFORMANCE_EXHAUSTIVE=1 cargo test -q --release --test conformance

# The smoke scenario sweep: 60 scenarios × 25 seeds on the virtual clock,
# artifacts (JSON/CSV/summary) under target/sweep.
sweep:
    cargo run --release -p scenarios --bin sweep -- --smoke

# The full grammar (648 scenarios: every machine × load × strategy × fault
# plan × scheduler, minus the excluded combinations).
sweep-full:
    cargo run --release -p scenarios --bin sweep -- --full --out target/sweep-full

# Regenerate the golden fixtures under tests/goldens/ after an intentional
# behaviour change (the only sanctioned way to update them).
bless:
    BLESS=1 cargo test -q --release --test conformance golden
    BLESS=1 cargo test -q --release --test sweep
