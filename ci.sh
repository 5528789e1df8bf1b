#!/usr/bin/env bash
# Tier-1 verification entry point. Everything here must pass before a PR
# lands.
#
# Modes:
#   ./ci.sh            tier-1: fmt, clippy, build, test, process smokes,
#                      benchmark smoke, doc gate
#   ./ci.sh --sanitize opt-in (not tier-1): run the ps + trainer
#                      concurrency tests under ThreadSanitizer. Needs a
#                      nightly toolchain with the rust-src component;
#                      skips with a message when one is not installed.
#                      TSan is the only race check: it covers the std::sync
#                      and atomic traffic the executed tests reach (the
#                      parameter server's state sits behind one mutex, so
#                      no lock order needs a proof), at ~10x runtime cost,
#                      hence opt-in rather than tier-1.
set -euo pipefail
cd "$(dirname "$0")"

# Run one labelled step, timing it and failing fast with a [FAIL] marker.
step() {
  local label="$1"
  shift
  local t0=$SECONDS
  echo "==> $label"
  if "$@"; then
    echo "[ok] $label ($((SECONDS - t0))s)"
  else
    local rc=$?
    echo "[FAIL] $label ($((SECONDS - t0))s)" >&2
    exit "$rc"
  fi
}

if [[ "${1:-}" == "--sanitize" ]]; then
  # ThreadSanitizer needs -Zsanitizer=thread and a rebuilt std, both
  # nightly-only. Probe for a usable toolchain and skip gracefully so the
  # mode is safe to wire into any environment.
  if ! rustup run nightly rustc --version >/dev/null 2>&1; then
    echo "==> sanitize: no nightly toolchain installed; skipping (rustup toolchain install nightly)"
    exit 0
  fi
  if ! rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src.*(installed)'; then
    echo "==> sanitize: nightly lacks rust-src (needed for -Zbuild-std); skipping (rustup component add rust-src --toolchain nightly)"
    exit 0
  fi
  host=$(rustc -vV | sed -n 's/^host: //p')
  step "tsan: ps concurrency tests" \
    env RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -q -p agl-ps -Zbuild-std --target "$host"
  step "tsan: trainer concurrency tests" \
    env RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -q -p agl-trainer -Zbuild-std --target "$host"
  echo "ci.sh: sanitize green"
  exit 0
fi

# Multi-process smoke: 2 shuffle workers + 2 PS shards as real OS
# processes over Unix-domain sockets, output verified byte-identical
# against the in-process engines. The trap guarantees no worker process
# or socket file survives the step, pass or fail; the explicit checks
# before the trap runs make a leak a hard failure rather than silent
# cleanup. (The pgrep pattern's [-] guards against matching this step's
# own shell.)
dist_smoke() {
  local dir
  dir=$(mktemp -d -t agl-dist-smoke.XXXXXX)
  # pkill exits 1 when there is nothing to kill (the healthy case) — don't
  # let errexit turn that into a step failure.
  trap 'pkill -f "dist-worker -[-]role" 2>/dev/null || true; rm -rf "'"$dir"'"' RETURN
  ./target/release/agl-cli dist-run --dir "$dir" \
    --nodes 300 --hops 2 --epochs 2 \
    --shuffle-workers 2 --ps-shards 2 --train-workers 2 \
    --verify true || return 1
  # GraphFlat's merge and fill rounds at a depth other than 2.
  ./target/release/agl-cli dist-run --dir "$dir" \
    --nodes 300 --hops 3 --epochs 1 \
    --shuffle-workers 2 --ps-shards 2 --train-workers 2 \
    --verify true || return 1
  # At one hop the join round asks for the feature rows.
  ./target/release/agl-cli dist-run --dir "$dir" \
    --nodes 300 --hops 1 --epochs 1 \
    --shuffle-workers 2 --ps-shards 2 --train-workers 2 \
    --verify true || return 1
  if pgrep -f "dist-worker -[-]role" >/dev/null; then
    echo "dist smoke: leaked worker processes" >&2
    return 1
  fi
  if compgen -G "$dir/*.sock" >/dev/null; then
    echo "dist smoke: leaked socket files in $dir" >&2
    return 1
  fi
}

# Observability smoke: two same-seed traced dist-runs under the logical
# clock must write byte-identical merged trace + metrics artifacts; the
# obs-report analyzer must parse them (schema gate), see every worker
# span causally parented under a driver RPC span, nonzero RPC telemetry,
# and itself render byte-identically across the two runs.
obs_smoke() {
  local dir out
  dir=$(mktemp -d -t agl-obs-smoke.XXXXXX)
  trap 'pkill -f "dist-worker -[-]role" 2>/dev/null || true; rm -rf "'"$dir"'"' RETURN
  local i
  for i in 1 2; do
    ./target/release/agl-cli dist-run --dir "$dir/run$i" \
      --nodes 300 --hops 2 --epochs 2 \
      --shuffle-workers 2 --ps-shards 2 --train-workers 2 \
      --clock logical --trace-out "$dir/trace$i.json" \
      --metrics-out "$dir/metrics$i.json" >/dev/null || return 1
  done
  cmp -s "$dir/trace1.json" "$dir/trace2.json" \
    || { echo "obs smoke: merged traces differ between same-seed runs" >&2; return 1; }
  cmp -s "$dir/metrics1.json" "$dir/metrics2.json" \
    || { echo "obs smoke: metrics dumps differ between same-seed runs" >&2; return 1; }
  out=$(./target/release/agl-cli obs-report --trace "$dir/trace1.json" \
    --metrics "$dir/metrics1.json") || return 1
  echo "$out" | grep -qE "^obs-report: [1-9][0-9]* spans" \
    || { echo "obs smoke: report parsed no spans" >&2; return 1; }
  echo "$out" | grep -qE "^parented_worker_spans=[1-9]" \
    || { echo "obs smoke: no worker spans parented under driver RPCs" >&2; return 1; }
  echo "$out" | grep -qE "^rpc_histograms=[1-9]" \
    || { echo "obs smoke: no RPC histograms recorded" >&2; return 1; }
  [ "$out" = "$(./target/release/agl-cli obs-report --trace "$dir/trace2.json" \
      --metrics "$dir/metrics2.json")" ] \
    || { echo "obs smoke: obs-report not byte-identical across runs" >&2; return 1; }
}

# Online read-path smoke: build a store from a small InferOutput, drive
# the seeded power-law load generator in-process, then the sharded
# multi-process mode (2 serve-worker processes, answers verified against
# the in-process store). Asserts point + top-k queries happened and a
# nonzero p99 was reported.
serve_smoke() {
  local dir out
  dir=$(mktemp -d -t agl-serve-smoke.XXXXXX)
  trap 'pkill -f "agl-cli serve[-]worker" 2>/dev/null || true; rm -rf "'"$dir"'"' RETURN
  out=$(./target/release/agl-cli serve-bench --synthetic-nodes 400 --shards 4 \
    --load-workers 2 --batches 50 --batch-size 8) || return 1
  echo "$out" | grep -qE "^qps=[1-9]" || { echo "serve smoke: no qps reported" >&2; return 1; }
  echo "$out" | grep -qE "^lookup_p99_ns=[1-9]" || { echo "serve smoke: p99 is zero" >&2; return 1; }
  echo "$out" | grep -qE "^topk_p99_ns=[1-9]" || { echo "serve smoke: top-k p99 is zero" >&2; return 1; }
  out=$(./target/release/agl-cli serve --synthetic-nodes 300 --workers 2 --dir "$dir") || return 1
  echo "$out" | grep -q "verified=true" || { echo "serve smoke: remote answers diverged" >&2; return 1; }
  if pgrep -f "agl-cli serve[-]worker" >/dev/null; then
    echo "serve smoke: leaked worker processes" >&2
    return 1
  fi
}

# Streaming-inference smoke: (1) single-process streamed run verified
# bit-identical to the materialized baseline and to GraphInfer, with a
# nonzero peak-memory gauge and combiner savings; (2) the same job across
# 2 infer-shuffle worker processes, verified and leak-checked; (3) two same-seed runs
# under the logical clock must write byte-identical traces (the obs smoke
# harness applied to the inference path).
infer_stream_smoke() {
  local dir out
  dir=$(mktemp -d -t agl-infer-smoke.XXXXXX)
  trap 'pkill -f "dist-worker -[-]role" 2>/dev/null || true; rm -rf "'"$dir"'"' RETURN
  out=$(./target/release/agl-cli infer-stream --synthetic-nodes 300 --verify true) || return 1
  echo "$out" | grep -q "verified=true" \
    || { echo "infer-stream smoke: streamed output diverged from materialized or GraphInfer" >&2; return 1; }
  echo "$out" | grep -qE "^peak_resident_bytes=[1-9]" \
    || { echo "infer-stream smoke: peak-memory gauge is zero" >&2; return 1; }
  echo "$out" | grep -qE "combine_bytes_saved=[1-9]" \
    || { echo "infer-stream smoke: combiner saved no shuffle bytes" >&2; return 1; }
  out=$(./target/release/agl-cli infer-stream --synthetic-nodes 300 --verify true \
    --workers 2 --dir "$dir/sock") || return 1
  echo "$out" | grep -q "verified=true" \
    || { echo "infer-stream smoke: dist output diverged from materialized or GraphInfer" >&2; return 1; }
  if pgrep -f "dist-worker -[-]role" >/dev/null; then
    echo "infer-stream smoke: leaked worker processes" >&2
    return 1
  fi
  if compgen -G "$dir/sock/*.sock" >/dev/null; then
    echo "infer-stream smoke: leaked socket files in $dir/sock" >&2
    return 1
  fi
  local i
  for i in 1 2; do
    ./target/release/agl-cli infer-stream --synthetic-nodes 300 \
      --clock logical --trace-out "$dir/trace$i.json" >/dev/null || return 1
  done
  cmp -s "$dir/trace1.json" "$dir/trace2.json" \
    || { echo "infer-stream smoke: traces differ between same-seed runs" >&2; return 1; }
}

# SIGKILL a shuffle worker after its first reduce dispatch: the job must
# recover (surviving worker re-runs the lost partitions), still verify
# byte-identical, and record the retry. Bounded by the transport
# deadlines — a hang here is a bug, and the step would time out in CI.
dist_kill() {
  local dir
  dir=$(mktemp -d -t agl-dist-kill.XXXXXX)
  # pkill exits 1 when there is nothing to kill (the healthy case) — don't
  # let errexit turn that into a step failure.
  trap 'pkill -f "dist-worker -[-]role" 2>/dev/null || true; rm -rf "'"$dir"'"' RETURN
  local out
  out=$(./target/release/agl-cli dist-run --dir "$dir" \
    --nodes 300 --hops 2 --epochs 2 \
    --shuffle-workers 2 --ps-shards 2 --train-workers 2 \
    --verify true --kill-shuffle-after 1) || return 1
  echo "$out" | grep -q "verified=true" || { echo "kill test: output not verified" >&2; return 1; }
  echo "$out" | grep -qE "task_retries=[1-9]" || { echo "kill test: no retries recorded" >&2; return 1; }
}

step "cargo fmt --check" cargo fmt --check
# The workspace lints: clippy's defaults, the panic lints each pipeline crate
# declares in its src/lib.rs, `undocumented_unsafe_blocks` from the root
# Cargo.toml and the `disallowed-methods` list in clippy.toml. Every
# deliberate exception is a scoped `#[expect(…, reason = …)]`, which fails
# here once the code under it stops needing it.
step "cargo clippy (workspace)" cargo clippy -q --workspace --all-targets -- -D warnings
# The benchmark package is outside the workspace; it keeps the clock, spawn
# and unsafe rules (clippy finds the root clippy.toml from its manifest).
step "cargo clippy (pipeline_bench)" cargo clippy -q --manifest-path pipeline_bench/Cargo.toml --all-targets \
  -- -D clippy::disallowed_methods -D clippy::undocumented_unsafe_blocks
# --workspace: the root package does not depend on the agl-cli binary the
# smoke steps below drive, so a bare `cargo build` in a fresh checkout would
# leave ./target/release/agl-cli unbuilt.
step "cargo build --release" cargo build --release --workspace
# --workspace: a bare `cargo test` at the root runs only the root package,
# not the per-crate suites (placement byte-identity, fault determinism,
# codec and spill round-trips, golden traces, and the GraphFeature
# hostile-byte sweeps, sized to stay under ~1 s in this debug build). The
# benchmark package sits outside the workspace and has tests of its own.
step "cargo test -q --workspace" cargo test -q --workspace
step "cargo test -q (pipeline_bench)" cargo test -q --manifest-path pipeline_bench/Cargo.toml
step "dist smoke (2 shuffle + 2 ps processes, byte-identical)" dist_smoke
step "dist kill-a-worker (SIGKILL mid-job, deterministic re-run)" dist_kill
step "obs smoke (traced dist-run, deterministic merged trace + obs-report)" obs_smoke
step "serve smoke (load generator + 2 serve-worker processes, verified)" serve_smoke
step "infer-stream smoke (streamed == materialized == GraphInfer, 2-worker dist, deterministic)" infer_stream_smoke
# The benchmark package path-depends on crates/* but sits outside the
# workspace, so nothing above compiles it: build it and run every workload
# once at ~1/20 size, so a public-API break there fails here and not when
# the benchmark is next run. Each workload's output digest is a pure
# function of the seed, so drift from the pinned values means the
# arithmetic changed; a change that alters it on purpose updates them here.
bench_smoke() {
  local out got want
  out=$(cargo run --quiet --release --manifest-path pipeline_bench/Cargo.toml -- --smoke) || return 1
  got=$(echo "$out" | awk '/^pipeline_bench /{w=$2} /^  output_digest /{print w, $2}')
  want="flat.uug-2hop 0x1838ec17e2517f96
train.ppi-2layer 0x72918210077ff891
infer.uug-hub 0x53f50a6336a4817f
serve.mixed-rw 0xce4084d68633c4b4
dist.uug-uds 0x3b9bba1118137b1f"
  if [ "$got" != "$want" ]; then
    echo "pipeline-bench smoke: output digests drifted (want, then got):" >&2
    echo "$want" >&2
    echo "$got" >&2
    return 1
  fi
}
step "pipeline-bench smoke (pinned output digests)" bench_smoke
# Rustdoc is part of the contract: broken intra-doc links or missing docs
# on public items (crates with #![warn(missing_docs)]) fail the build.
step "cargo doc (rustdoc gate)" env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
echo "ci.sh: all green"
