#!/usr/bin/env bash
# Offline CI gate for the PRIMACY suite.
#
# The workspace is hermetic: every dependency is an in-tree `primacy-*`
# path crate (see DESIGN.md "Dependency policy"), so the whole gate runs
# with `--offline` — no registry, no network, an empty cargo cache is fine.
# `.github/workflows/ci.yml` runs this script one stage per job; run it
# locally with no argument to get the full gate before pushing.
#
# Usage: ./ci.sh [lint|build-test|conformance|bench|archive-io|serve|all]
set -euo pipefail
cd "$(dirname "$0")"

stage="${1:-all}"

# Echo the command, run it, and report its wall time so slow steps are
# attributable from the CI log alone.
run() {
    echo "==> $*"
    local t0 t1
    t0=$SECONDS
    "$@"
    t1=$SECONDS
    echo "==> done in $((t1 - t0))s: $*"
}

lint() {
    run cargo fmt --check
    # Clippy carries the panic, index and doc rules (DESIGN.md "Static
    # analysis"): the panic family is declared at each library crate root,
    # `missing_docs` in core and codecs, `clippy::indexing_slicing` at the
    # top of each untrusted-input module, and clippy.toml exempts test code.
    # `-D warnings` makes each of them, an unused `#[expect]`, an `#[expect]`
    # without a reason and an `#[allow]` fatal.
    run cargo clippy --workspace --all-targets --offline -- -D warnings
    # Static analysis gate: the rules no toolchain lint covers — the
    # whole-workspace interprocedural taint pass (call graph, function
    # summaries, cross-function taint), `overflow` in the modules that
    # declare `clippy::indexing_slicing`, `decode-result`, and the unsafe
    # and concurrency rules. Non-zero exit on any rule violation and on any
    # *regression* against the checked-in diagnostics baseline (a new
    # finding, suppression, `// lint: allow` directive or
    # `#[allow]`/`#[expect]` attribute under any per-file per-rule key
    # fails, rendered as a per-rule delta table; improvements pass).
    # Refresh intentionally with:
    #   primacy-lint . --write-baseline lint-baseline.json
    #
    # Build first so the timed run below measures analysis, not rustc; the
    # analyzer has a 10s whole-workspace runtime budget so the gate stays
    # cheap enough to run on every push.
    run cargo build --release --offline -p primacy-lint
    run dep_edges
    run serve_off_trace
    run codec_entry_points
    run stage_sequence_once
    local lint_t0=$SECONDS
    run ./target/release/primacy-lint . --baseline lint-baseline.json
    local lint_dt=$((SECONDS - lint_t0))
    echo "==> primacy-lint whole-workspace runtime: ${lint_dt}s (budget: <10s)"
    if ((lint_dt >= 10)); then
        echo "==> primacy-lint blew its 10s runtime budget (${lint_dt}s)" >&2
        exit 1
    fi
}

# Dependency-edge gate: primacy-lint reads its baseline through
# primacy-trace's JSON codec and needs no other crate, and neither the CLI
# nor the server may pull in the bench harness.
dep_edges() {
    local tree extra pkg
    tree=$(cargo tree --offline -e normal -p primacy-lint --prefix none)
    extra=$(awk '$1 != "primacy-lint" && $1 != "primacy-trace" {print $1}' <<<"$tree" | sort -u)
    if [[ -n "$extra" ]]; then
        echo "==> primacy-lint depends on more than primacy-trace:" $extra >&2
        return 1
    fi
    for pkg in primacy-cli primacy-serve; do
        tree=$(cargo tree --offline -e normal -p "$pkg" --prefix none)
        if awk '$1 == "primacy-bench" {found = 1} END {exit !found}' <<<"$tree"; then
            echo "==> $pkg depends on primacy-bench" >&2
            return 1
        fi
    done
}

# Serve records into its per-server `Metrics` registry only: a call into
# the process-global trace facade from `crates/serve/src` fails the gate.
serve_off_trace() {
    local calls
    calls=$(grep -rnE '\b(primacy_)?trace::(span|span_duration|counter|observe|observe_many|thread_scope|flush_thread)\b' \
        crates/serve/src || true)
    if [[ -n "$calls" ]]; then
        echo "==> crates/serve/src calls the trace facade:" >&2
        echo "$calls" >&2
        return 1
    fi
}

# Every codec is reached through the `Codec` trait's `compress_with` and
# `decompress_into` only: an inherent byte-level twin defined in
# `crates/codecs/src` fails the gate.
codec_entry_points() {
    local defs
    defs=$(grep -rnE '\bfn (compress_bytes|compress_bytes_with|decompress_bytes|decompress_bytes_into)\b' \
        crates/codecs/src || true)
    if [[ -n "$defs" ]]; then
        echo "==> crates/codecs/src defines a codec entry point beside the Codec trait:" >&2
        echo "$defs" >&2
        return 1
    fi
}

# The split → freq → ID map → linearize → ISOBAR sequence lives once, in
# the chunk encoder `pipeline::precondition`: a call to `IdMap::from_freq`
# or `.encode_hi(` in any file under `crates/*/src` other than `idmap.rs`
# and the encoder's `pipeline.rs` fails the gate. The per-stage timing
# bench (`crates/bench/benches/primacy_stages.rs`) and the test
# directories sit outside `src` and stay out of the check.
stage_sequence_once() {
    local calls
    calls=$(grep -rnE 'IdMap::from_freq|\.encode_hi\(' crates/*/src |
        grep -vE '^crates/core/src/(idmap|pipeline)\.rs:' || true)
    if [[ -n "$calls" ]]; then
        echo "==> the chunk-encoder stage sequence is written out beside pipeline::precondition:" >&2
        echo "$calls" >&2
        return 1
    fi
}

build_test() {
    run cargo build --release --workspace --offline
    # The workspace test pass runs every suite — unit, adversarial-decode
    # corpus, golden vectors, parallel determinism — at default test
    # parallelism, so none of those need a separate default-parallelism
    # invocation here.
    run cargo test -q --workspace --offline
    # Second test pass with overflow checks compiled in
    # (profile.release-checked): arithmetic wraps that plain release would
    # mask abort the suite here.
    run cargo test -q --workspace --offline --profile release-checked
}

conformance() {
    # Format-conformance gate, *serialized*: golden vectors, the deflate
    # encoder's megabyte-scale known answers, parallel determinism and the
    # overlapped writer's byte identity with RUST_TEST_THREADS=1. The
    # build-test stage already runs these suites at default parallelism;
    # this run only adds the single-threaded schedule, pinning that thread
    # scheduling never changes container or encoder bytes. (Earlier
    # revisions also re-ran them at default parallelism and re-ran
    # adversarial_decode by name — both were exact duplicates of
    # workspace-test coverage and are deliberately gone.)
    run env RUST_TEST_THREADS=1 cargo test -q --offline \
        --test golden_format --test deflate_known_answers \
        --test parallel_determinism --test archive_overlap
}

bench() {
    # Throughput benchmark in smoke mode: validates the BENCH_throughput.json
    # schema (6 compress and 5 decompress stage records per corpus), asserts
    # every per-stage/per-codec rate is a finite positive number no higher
    # than 10^6 MB/s, and gates per-corpus compression ratios against the
    # checked-in results/ratio-baseline.json (±0.5%). Absolute MB/s figures are
    # report-only — CI machines vary — the full-size trajectory lives in
    # EXPERIMENTS.md. The smoke report JSON is kept for artifact upload.
    run env PRIMACY_BENCH_JSON=results/BENCH_throughput_smoke.json \
        cargo run --release --offline -p primacy-bench --bin throughput -- --smoke
}

archive_io() {
    # Overlapped-archive smoke gate: writes the two acceptance corpora
    # through both writers and asserts (a) overlapped archives are
    # byte-identical to bulk-synchronous ones at every thread count, (b) the
    # hidden share `archive.hidden_pct` lies in 0–100 on every row and is
    # nonzero behind the staging link, and (c) behind the modeled staging
    # link the overlapped writer beats bulk by ≥ 1.05× (the full-size ≥ 1.3×
    # claim lives in EXPERIMENTS.md / results/BENCH_archive_io.json,
    # regenerated with a plain `archive_io` run). Absolute MB/s stays report-only here.
    # Budget: must finish inside 60s even on a 1-core runner (measured ~3s
    # plus compile).
    run cargo build --release --offline -p primacy-bench
    local aio_t0=$SECONDS
    run env PRIMACY_BENCH_JSON=results/BENCH_archive_io_smoke.json \
        ./target/release/archive_io --smoke
    local aio_dt=$((SECONDS - aio_t0))
    echo "==> archive_io --smoke runtime: ${aio_dt}s (budget: <60s)"
    if ((aio_dt >= 60)); then
        echo "==> archive_io --smoke blew its 60s runtime budget (${aio_dt}s)" >&2
        exit 1
    fi
}

serve() {
    # Serving smoke gate: an in-process `primacy-serve` instance under
    # `primacy-loadgen --smoke`, twice. The closed loop runs 100 concurrent
    # connections of compress/decompress round trips plus slow-loris and
    # malformed companions; the open loop (`--rate 200 --connections 32`)
    # sends seeded bursts of pipelined compress requests, 128 in flight at
    # most, under the in-process queue depth of 256. Each run fails on any
    # dropped, corrupted, or error response and on any caught panic, and
    # writes its latency percentiles and sustained MB/s for artifact upload
    # (results/BENCH_serve.json, results/BENCH_serve_open.json). Budget:
    # each run must finish inside 60s even on a 1-core runner (measured
    # under 1s each).
    run cargo build --release --offline -p primacy-serve
    serve_smoke results/BENCH_serve.json
    serve_smoke results/BENCH_serve_open.json --rate 200 --connections 32
}

# One `primacy-loadgen --smoke` run with extra flags "${@:2}", its report
# written to $1, held to the 60s budget.
serve_smoke() {
    local report=$1
    shift
    local serve_t0=$SECONDS
    run env PRIMACY_BENCH_JSON="$report" ./target/release/primacy-loadgen --smoke "$@"
    local serve_dt=$((SECONDS - serve_t0))
    echo "==> primacy-loadgen --smoke${*:+ $*} runtime: ${serve_dt}s (budget: <60s)"
    if ((serve_dt >= 60)); then
        echo "==> primacy-loadgen --smoke${*:+ $*} blew its 60s runtime budget (${serve_dt}s)" >&2
        exit 1
    fi
}

case "$stage" in
lint) lint ;;
build-test) build_test ;;
conformance) conformance ;;
bench) bench ;;
archive-io) archive_io ;;
serve) serve ;;
all)
    lint
    build_test
    conformance
    bench
    archive_io
    serve
    ;;
*)
    echo "usage: $0 [lint|build-test|conformance|bench|archive-io|serve|all]" >&2
    exit 2
    ;;
esac

echo "==> ci.sh: stage '$stage' green"
