#!/usr/bin/env bash
# Repo gate: format, lint, test, and smoke the perf report.
#
# Everything runs --offline: the third-party surface is vendored as stub
# crates under crates/compat/, so no network access is needed (or wanted).
# Clippy is scoped to the f2pm packages — the compat stubs only have to
# compile, not be lint-clean.
set -euo pipefail
cd "$(dirname "$0")"

F2PM_PACKAGES=(
    f2pm-repro f2pm f2pm-linalg f2pm-ml f2pm-features
    f2pm-monitor f2pm-sim f2pm-serve f2pm-cli f2pm-bench f2pm-obs
    f2pm-registry
)

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> non-test Rust line count"
# Lines of the tracked crate and root sources up to each file's first
# #[cfg(test)], excluding the offline dependency stubs and the standalone
# benchmark package. Deleting code is progress; growing past the ceiling
# fails CI until the ceiling is raised on purpose.
NONTEST_LOC_MAX=25343
python3 - "$NONTEST_LOC_MAX" <<'EOF'
import subprocess, sys

ceiling = int(sys.argv[1])
files = subprocess.run(
    ["git", "ls-files", "crates/*/src/*.rs", "src/*.rs"],
    capture_output=True, text=True, check=True,
).stdout.split()
total = 0
for path in files:
    if path.startswith(("crates/compat/", "crates/bench/src/bin/benchmark/")):
        continue
    with open(path) as f:
        for line in f:
            if line.strip().startswith("#[cfg(test)]"):
                break
            total += 1
print(f"non-test Rust lines: {total} (ceiling {ceiling})")
assert total <= ceiling, f"non-test Rust lines {total} over the {ceiling} ceiling"
EOF

echo "==> cargo clippy (-D warnings)"
clippy_args=()
for p in "${F2PM_PACKAGES[@]}"; do clippy_args+=(-p "$p"); done
cargo clippy --offline --all-targets "${clippy_args[@]}" -- -D warnings

echo "==> benchmark package build (API + recorded dependencies)"
# The standalone benchmark package builds against the library crates'
# public API through path dependencies, and its tracked Cargo.lock records
# their dependency lists: a build that breaks, or that rewrites the lock,
# means a library change leaked into the benchmark's interface.
cargo build --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
git diff --exit-code -- crates/bench/src/bin/benchmark/Cargo.lock

echo "==> cargo test (workspace)"
cargo test -q --offline --workspace

echo "==> perf_report smoke (reduced sizes)"
cargo run --release --offline -p f2pm-bench --bin perf_report -- --smoke
# The fast-training rework's tracked section must be present with sane
# (positive, finite) timings in the smoke snapshot and the committed
# baseline.
python3 - <<'EOF'
import json, math, sys

REQUIRED = [
    "lssvm_blocked_s", "lssvm_scalar_cholesky_s", "lssvm_cg_s",
    "lasso_path_active_set_s", "lasso_path_reference_s",
    "m5p_presort_s", "m5p_resort_s", "workflow_wall_s",
]
for path in ("target/BENCH_compute_smoke.json", "BENCH_compute.json"):
    training = json.load(open(path)).get("training")
    assert training is not None, f"{path}: no 'training' section"
    for key in REQUIRED:
        v = training.get(key)
        ok = isinstance(v, (int, float)) and math.isfinite(v) and v > 0
        assert ok, f"{path}: training[{key!r}] = {v!r} is not a positive finite number"
print("training section OK")
EOF
# Columnar re-scoring engine + batch-predict regression gates. The
# committed full-run bench must keep the tentpole claim — >=10x over the
# row-oriented re-score loop on a >=2M-row history — while the smoke run
# (tiny history, noisy CI box) gates loosely but still proves the whole
# export -> scan -> aggregate path and the zone-map pruning work.
python3 - <<'EOF'
import json

# predict_batch must never regress below the per-row loop (the serial
# threshold keeps small batches off the thread pool); 5% timer headroom.
# The section is named for its row count (predict_400 in smoke,
# predict_2000 in the committed full run).
for path in ("target/BENCH_compute_smoke.json", "BENCH_compute.json"):
    j = json.load(open(path))
    key = [k for k in j if k.startswith("predict_")]
    assert len(key) == 1, f"{path}: predict sections: {key}"
    p = j[key[0]]
    for m in ("svr", "ls_svm"):
        per_row, batch = p[f"{m}_per_row_s"], p[f"{m}_batch_s"]
        # +250us absolute: smoke passes are sub-millisecond, where timer
        # jitter alone exceeds the 5% ratio headroom.
        assert batch <= per_row * 1.05 + 250e-6, (
            f"{path}: {m} batch {batch:.6f}s slower than 1.05x per-row {per_row:.6f}s"
        )

for path, min_rows, min_speedup in (
    ("target/BENCH_compute_smoke.json", 100_000, 3.0),
    ("BENCH_compute.json", 2_000_000, 10.0),
):
    c = json.load(open(path)).get("columnar")
    assert c is not None, f"{path}: no 'columnar' section"
    assert c["rows"] >= min_rows, f"{path}: only {c['rows']} rows in the history"
    assert c["row_rows_per_s"] > 0 and c["columnar_rows_per_s"] > 0, path
    assert c["speedup"] >= min_speedup, (
        f"{path}: columnar speedup {c['speedup']:.2f}x under the {min_speedup}x floor"
    )
    assert c["metrics_match"] is True, (
        f"{path}: columnar aggregates diverged from the row-oriented pass"
    )
    assert c["chunks_pruned"] > 0, f"{path}: zone maps pruned no chunks"
print("columnar + predict gates OK")
EOF
# Warm-start retraining gate (DESIGN.md §15). Both 1-run window shifts
# over the paper-scale 2000-row window — rows out == rows in and rows
# out != rows in (the shape a live window mostly sees) — must stay >=8x
# faster than a cold rebuild, and the warm model must agree with the
# cold oracle to 1e-6 on the newest run's rows. Every shift runs inside
# the factor's own buffer, so the unequal shape may cost at most 15%
# more than the equal one. The retrain section always runs at full
# scale (the claim is about n=2000), so smoke and the committed
# baseline gate at the same floor.
python3 - <<'EOF'
import json

MIN_SPEEDUP = 8.0
MAX_PRED_DELTA = 1e-6
MAX_UNEQUAL_OVER_EQUAL = 1.15

for path in ("target/BENCH_compute_smoke.json", "BENCH_compute.json"):
    r = json.load(open(path)).get("retrain")
    assert r is not None, f"{path}: no 'retrain' section"
    assert r["window_rows"] >= 2000, f"{path}: window only {r['window_rows']} rows"
    for shape, equal in (("equal_shift", True), ("unequal_shift", False)):
        s = r.get(shape)
        assert s is not None, f"{path}: no retrain[{shape!r}]"
        assert s["retired_rows"] > 0, f"{path}: {shape} retired no rows"
        assert (s["retired_rows"] == s["appended_rows"]) == equal, (
            f"{path}: {shape} moved {s['retired_rows']} rows out, "
            f"{s['appended_rows']} in"
        )
        assert s["warm_s"] > 0 and s["cold_s"] > 0, f"{path}: {shape}"
        assert s["speedup"] >= MIN_SPEEDUP, (
            f"{path}: {shape} warm retrain only {s['speedup']:.2f}x over cold "
            f"(need >={MIN_SPEEDUP}x)"
        )
        assert s["max_pred_delta"] <= MAX_PRED_DELTA, (
            f"{path}: {shape} warm/cold models diverged by {s['max_pred_delta']:e}"
        )
        for layer in ("shift_s", "dual_s"):
            assert s[layer] > 0, f"{path}: {shape} {layer} = {s[layer]!r}"
    ratio = r["unequal_shift"]["warm_s"] / r["equal_shift"]["warm_s"]
    assert ratio <= MAX_UNEQUAL_OVER_EQUAL, (
        f"{path}: unequal shift costs {ratio:.2f}x the equal one "
        f"(at most {MAX_UNEQUAL_OVER_EQUAL}x)"
    )

# SVR shrinking regression floor: every benchmarked size sits below
# SVR_SHRINK_MIN_N, where shrinking must be a no-op — the gate proves
# the activation threshold keeps it off the small-problem path (any
# real slowdown would show up here). `speedup` is the median of
# interleaved per-pair ratios, with each side given a 0.5 s budget; the
# floors leave headroom for the timer noise left on the 1-30 ms fits.
for path, floor in (
    ("target/BENCH_compute_smoke.json", 0.90),
    ("BENCH_compute.json", 0.95),
):
    j = json.load(open(path))
    sections = [k for k in j if k.startswith("svr_train_")]
    assert sections, f"{path}: no svr_train sections"
    for key in sections:
        s = j[key]["speedup"]
        assert s >= floor, (
            f"{path}: {key} shrinking speedup {s:.2f} under the {floor} "
            f"no-op floor"
        )
print("retrain + svr shrinking gates OK")
EOF
# Quoted numbers must match the committed JSON: README's "Continuous
# retraining" speedups, DESIGN.md §15.5's table (warm, cold, speedup,
# shift and dual layers per shift shape) and §15.2's dual-solve figure
# are read against BENCH_compute.json's `retrain` section, so a
# regenerated bench cannot leave stale prose.
python3 - <<'EOF'
import json, re

r = json.load(open("BENCH_compute.json"))["retrain"]
readme = open("README.md").read()
design = open("DESIGN.md").read()
section = design[design.index("### 15.5 Measurement"):]
section = section.split("\n## ")[0]
lifecycle = design[design.index("### 15.2 Factor lifecycle"):]
lifecycle = " ".join(lifecycle[: lifecycle.index("### 15.3")].split())
quoted = re.findall(r"`dual_s` ([0-9.]+) s", lifecycle)
assert quoted, "DESIGN.md §15.2 quotes no `dual_s` figure"
for q in quoted:
    assert float(q) == r["equal_shift"]["dual_s"], (
        f"DESIGN.md §15.2 quotes dual_s {q}, BENCH_compute.json reads "
        f"{r['equal_shift']['dual_s']}"
    )
for shape in ("equal_shift", "unequal_shift"):
    want = r[shape]
    quoted = re.findall(rf"([0-9.]+)x \(`{shape}`\)", readme)
    assert quoted, f"README.md quotes no {shape} retrain speedup"
    for q in quoted:
        assert float(q) == want["speedup"], (
            f"README.md quotes {q}x for {shape}, BENCH_compute.json reads {want['speedup']}x"
        )
    rows = re.findall(
        rf"^\| `{shape}`[^|]*\| ([0-9.]+) s \| ([0-9.]+) s \| ([0-9.]+)x \| "
        rf"([0-9.]+) s \| ([0-9.]+) s \|",
        section,
        re.M,
    )
    assert len(rows) == 1, f"DESIGN.md §15.5 has {len(rows)} table rows for {shape}"
    keys = ("warm_s", "cold_s", "speedup", "shift_s", "dual_s")
    for key, q in zip(keys, rows[0]):
        assert float(q) == want[key], (
            f"DESIGN.md §15.5 quotes {key} {q} for {shape}, BENCH_compute.json reads {want[key]}"
        )
print("quoted retrain numbers match BENCH_compute.json")
EOF
# The serve numbers README and DESIGN.md §8 and §10 quote are read
# against BENCH_serve.json the same way. Each quote sits next to the
# JSON key it names, and every place listed must quote at least once.
python3 - <<'EOF'
import json, re

j = json.load(open("BENCH_serve.json"))
design = open("DESIGN.md").read()


def flat(text):
    return " ".join(text.split())


def section(title):
    return flat(design[design.index(title):].split("\n## ")[0])


readme = flat(open("README.md").read())
s8 = section("## 8. Serving architecture")
s10 = section("## 10. Serve data-plane performance")
sweep = [run["ingest_rate_per_s"] for run in j["sweep"]]
p99 = j["predict_rtt_us"]["p99"]
CHECKS = [
    (r"\(`sweep`\)(?: reads)? ([0-9.]+) / ([0-9.]+) / ([0-9.]+) datapoints/s", sweep),
    (r"`predict_rtt_us` p99 (?:of|is) ([0-9.]+) µs", [p99]),
    (r"([0-9.]+) µs (?:pre-batching|PR 2) baseline \(`baseline_p99_us`", [j["baseline_p99_us"]]),
]
for name, text, checks in (
    ("README.md", readme, CHECKS),
    ("DESIGN.md §10", s10, CHECKS + [
        (r"`p99_speedup_vs_baseline` ([0-9.]+)", [j["p99_speedup_vs_baseline"]]),
    ]),
    ("DESIGN.md §8", s8, [
        (r"([0-9.]+) datapoints \(`datapoints`\)", [j["datapoints"]]),
        (r"([0-9.]+) datapoints/s ingest \(`ingest_rate_per_s`\)", [j["ingest_rate_per_s"]]),
    ]),
):
    for pattern, want in checks:
        found = re.findall(pattern, text)
        assert found, f"{name} quotes nothing matching {pattern!r}"
        for q in found:
            got = [float(v) for v in (q if isinstance(q, tuple) else (q,))]
            assert got == want, (
                f"{name} quotes {got} for {pattern!r}, BENCH_serve.json reads {want}"
            )
print("quoted serve numbers match BENCH_serve.json")
EOF

echo "==> f2pm query end-to-end (campaign -> train -> predict -> export-columnar -> query)"
CIDIR=target/ci-columnar
rm -rf "$CIDIR"; mkdir -p "$CIDIR"
cargo run --release --offline -q -p f2pm-cli --bin f2pm -- campaign \
    --runs 3 --seed 7 --quick --out "$CIDIR/history.csv"
cargo run --release --offline -q -p f2pm-cli --bin f2pm -- train \
    --history "$CIDIR/history.csv" --method linear --out "$CIDIR/model.f2pm"
# The --out file is a checksummed artifact that predict reads as is.
cargo run --release --offline -q -p f2pm-cli --bin f2pm -- predict \
    --model "$CIDIR/model.f2pm" --history "$CIDIR/history.csv" >"$CIDIR/predict.log"
grep -q "predicted RTTF" "$CIDIR/predict.log"
cargo run --release --offline -q -p f2pm-cli --bin f2pm -- export-columnar \
    --history "$CIDIR/history.csv" --out "$CIDIR/history.f2pc" \
    2>&1 | tee "$CIDIR/export.log"
grep -q "^wrote .* rows" "$CIDIR/export.log"
cargo run --release --offline -q -p f2pm-cli --bin f2pm -- query \
    --store "$CIDIR/history.f2pc" --model "$CIDIR/model.f2pm" --cohort run \
    >"$CIDIR/query.log" 2>&1
grep -q "rows matched" "$CIDIR/query.log"
grep -q "throughput:" "$CIDIR/query.log"
grep -q "total" "$CIDIR/query.log"
# A run-filtered query goes through the zone-map pruning path and must
# report the scan/prune accounting line.
cargo run --release --offline -q -p f2pm-cli --bin f2pm -- query \
    --store "$CIDIR/history.f2pc" --model "$CIDIR/model.f2pm" --run 2 \
    >"$CIDIR/query_run2.log" 2>&1
grep -q "pruned by zone maps" "$CIDIR/query_run2.log"
rm -rf "$CIDIR"
echo "query CLI e2e OK"

echo "==> serve loadgen smoke (reduced fleet, --sweep: 1 and 2 shards, 2k-conn reactor gate, 3x1k fleet plane)"
cargo run --release --offline -p f2pm-bench --bin loadgen -- --smoke --sweep \
    --connections 2000 --idle-fraction 0.9 --fleet-hosts 1000 --fleet-instances 3
# The smoke run must have scraped the metrics exposition and found it in
# exact agreement with the harness's own counters, and the batched data
# plane must hold its tail-latency budget at the (tiny) smoke load.
python3 - <<'EOF'
import json

# Tail budget for the smoke fleet (40 clients x 120 points). The full-load
# p99 target is ~64ms (3x under the PR 2 baseline, see BENCH_serve.json);
# the smoke fleet is 1/6 the load, but CI boxes are noisy, so gate at the
# same 120ms ceiling that the seed data plane blew through even at smoke
# scale when queues backed up.
SMOKE_P99_BUDGET_US = 120_000

for path in ("target/BENCH_serve_smoke.json", "BENCH_serve.json"):
    r = json.load(open(path))
    assert r["checks_passed"] is True, f"{path}: harness checks failed"
    assert r["metrics_scrape_ok"] is True, f"{path}: metrics scrape mismatch"
    assert r["scraped_datapoints"] == r["datapoints"], (
        f"{path}: scraped {r['scraped_datapoints']} != sent {r['datapoints']}"
    )
    assert r["dropped_frames"] == 0, f"{path}: {r['dropped_frames']} frames dropped"
    assert r["scraped_model_generation"] == r["hot_reload_generation"], path

smoke = json.load(open("target/BENCH_serve_smoke.json"))
p99 = smoke["predict_rtt_us"]["p99"]
assert p99 <= SMOKE_P99_BUDGET_US, (
    f"smoke predict p99 {p99}us blew the {SMOKE_P99_BUDGET_US}us budget"
)
assert len(smoke["sweep"]) >= 2, "smoke sweep must cover >=2 shard counts"
for run in smoke["sweep"]:
    assert run["dropped_frames"] == 0, f"sweep@{run['shards']} dropped frames"
    assert run["checks_passed"] is True, f"sweep@{run['shards']} checks failed"

# The committed full-load benchmark must keep the tentpole's claims:
# a >=3 shard-count sweep, ingest throughput scaling up with shards, and
# a p99 predict RTT at least 3x under the 191229us PR 2 baseline.
full = json.load(open("BENCH_serve.json"))
sweep = full["sweep"]
assert len(sweep) >= 3, "committed sweep must cover shards {1,2,4}"
rates = [run["ingest_rate_per_s"] for run in sweep]
assert rates[0] < rates[-1], f"ingest rate must scale with shards: {rates}"
assert full["baseline_p99_us"] == 191229
full_p99 = full["predict_rtt_us"]["p99"]
assert full_p99 * 3 <= full["baseline_p99_us"], (
    f"committed full-load p99 {full_p99}us is not 3x under baseline"
)
for key in ("decode", "queue_wait", "predict", "reply"):
    assert key in full["stage_latency_us"], f"missing stage breakdown: {key}"
assert full["wire_codec"]["encode_into_frames_per_s"] > 0

# High-connection gate for the epoll reactor edge. The smoke run parks a
# 2k mostly-idle fleet (a re-exec'd child process holds the client fds)
# on the same server that serves a hot sweep: zero drops, zero slow-
# consumer evictions, every fleet + sweep datapoint scraped back exactly
# (the loadgen harness already cross-checked the totals before setting
# checks_passed), a clean close of the whole fleet, and the hot path
# holding its p99 budget with the fleet parked.
conn = smoke.get("connections")
assert conn is not None, "smoke run must include the --connections phase"
assert conn["checks_passed"] is True, "connection-phase checks failed"
assert conn["connected"] == conn["target"] >= 2000, (
    f"fleet only reached {conn['connected']}/{conn['target']} connections"
)
assert conn["peak_live"] >= conn["target"], "server never saw the full fleet live"
assert conn["dropped_frames"] == 0, "fleet phase dropped frames"
assert conn["evicted_slow"] == 0, "idle fleet conns must never be evicted"
assert conn["hot_predict_p99_us"] <= conn["hot_p99_budget_us"], (
    f"hot p99 {conn['hot_predict_p99_us']}us over budget with the fleet parked"
)

# The committed full benchmark carries the 10k-connection run: same
# invariants at scale, plus the resident-memory claim — a reactor
# connection must cost >=10x less than a thread-per-connection one.
fconn = full.get("connections")
assert fconn is not None, "committed BENCH_serve.json must include 'connections'"
assert fconn["checks_passed"] is True, "committed connection-phase checks failed"
assert fconn["connected"] == fconn["target"] >= 10000, (
    f"committed fleet was {fconn['connected']} conns, need >=10000"
)
assert fconn["dropped_frames"] == 0 and fconn["evicted_slow"] == 0
assert fconn["hot_predict_p99_us"] <= fconn["hot_p99_budget_us"]
assert fconn["resident_ratio"] >= 10.0, (
    f"reactor per-conn residency only {fconn['resident_ratio']}x below threaded"
)

# Fleet-plane gate (wire v4): 3 serve instances, >=1k consistent-hash-
# routed heterogeneous hosts, and the aggregation layer's conservation
# law held EXACTLY — the fleet-merged exposition counter equals the sum
# of the per-instance scrapes equals what the harness sent — plus a
# non-empty cluster top-K that matched the union of the per-instance
# estimate boards entry for entry (the harness verified it before
# setting top_k_verified).
for path in ("target/BENCH_serve_smoke.json", "BENCH_serve.json"):
    fl = json.load(open(path)).get("fleet")
    assert fl is not None, f"{path}: no 'fleet' section"
    assert fl["checks_passed"] is True, f"{path}: fleet-phase checks failed"
    assert fl["instances"] >= 3, f"{path}: fleet ran only {fl['instances']} instances"
    assert fl["hosts"] >= 1000, f"{path}: fleet ran only {fl['hosts']} hosts"
    assert fl["datapoints"] == fl["fleet_scrape_datapoints"] == fl["instance_scrape_datapoints_sum"], (
        f"{path}: fleet counters diverged: sent {fl['datapoints']}, merged "
        f"{fl['fleet_scrape_datapoints']}, instance sum {fl['instance_scrape_datapoints_sum']}"
    )
    assert fl["hosts_tracked"] == fl["hosts_with_estimate"] == fl["hosts"], (
        f"{path}: {fl['hosts_tracked']}/{fl['hosts']} hosts tracked"
    )
    assert fl["dropped_frames"] == 0, f"{path}: fleet phase dropped frames"
    assert fl["top_k"] > 0 and fl["top_k_verified"] is True, (
        f"{path}: cluster top-K did not match the per-instance estimate boards"
    )
    assert len(fl["per_instance"]) == fl["instances"], path
    for row in fl["per_instance"]:
        assert row["hosts"] > 0, f"{path}: instance {row['instance_id']} got no hosts"
    assert sum(r["datapoints"] for r in fl["per_instance"]) == fl["datapoints"], (
        f"{path}: per-instance datapoints do not sum to the fleet total"
    )
print("serve smoke sweep + tail budget + committed bench + 2k-conn gate + fleet plane OK")
EOF

echo "==> cold-start smoke (artifact boot vs boot-retrain)"
# Train + publish a binary artifact, boot a server from --models-dir alone
# (no --history, no retrain), and time to the first estimate delivered
# over the wire. The artifact path must answer its first predict and beat
# the retrain boot by >=5x — both in the live smoke run and in the
# committed full-size benchmark.
cargo run --release --offline -p f2pm-bench --bin coldstart -- --smoke
python3 - <<'EOF'
import json

MIN_SPEEDUP = 5.0

for path in ("target/BENCH_coldstart_smoke.json", "BENCH_serve.json"):
    cs = json.load(open(path)).get("cold_start")
    assert cs is not None, f"{path}: no 'cold_start' section"
    assert cs["first_predict_ok"] is True, (
        f"{path}: artifact-booted server never answered its first predict"
    )
    for key in ("boot_retrain_ms", "cold_start_ms"):
        assert cs[key] > 0, f"{path}: cold_start[{key!r}] = {cs[key]!r}"
    speedup = cs["boot_retrain_ms"] / cs["cold_start_ms"]
    assert speedup >= MIN_SPEEDUP, (
        f"{path}: artifact cold start only {speedup:.1f}x faster than "
        f"boot-retrain (need >={MIN_SPEEDUP}x)"
    )
print("cold-start gate OK")
EOF

echo "CI OK"
