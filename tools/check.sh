#!/bin/sh
# Tier-1 verification: build and run the full test suite in the normal
# (RelWithDebInfo) configuration and again under ASan+UBSan
# (-DRSAFE_SANITIZE=ON). Run from the repository root:
#
#   tools/check.sh            # release + asan + tsan test configurations
#   tools/check.sh release    # normal configuration only
#   tools/check.sh sanitize   # ASan+UBSan configuration only
#   tools/check.sh tsan       # ThreadSanitizer configuration only
#   tools/check.sh tidy       # clang-tidy over src/ (skips if not installed)
#   tools/check.sh knobs      # runtime-knob lint: the RSAFE_NO_* names
#                             # read via getenv under src/ must be exactly
#                             # the set README.md documents, and every
#                             # name DESIGN.md, the verify skill, tools/,
#                             # bench/, .github/ or a test setenv uses
#                             # must be one of them.
#   tools/check.sh fuzz       # libFuzzer smoke over tests/corpus (clang);
#                             # falls back to corpus replay under gcc.
#                             # RSAFE_FUZZ_RUNS bounds the run (default 50000).
#   tools/check.sh trace      # observability smoke: run rsafe-report over
#                             # the attack mix + golden log, validate the
#                             # Chrome trace schema, and write the trace,
#                             # metrics and Prometheus artifacts.
#   tools/check.sh bench      # perf gate: bench_micro --gate against the
#                             # checked-in BENCH_micro.json baseline
#                             # (machine-independent speedup ratios;
#                             # RSAFE_BENCH_GATE_TOLERANCE overrides 10%).
#   tools/check.sh fleet      # multi-tenant gate: test_fleet (determinism,
#                             # shutdown, metric namespacing) plus
#                             # bench_fleet --gate against the committed
#                             # BENCH_fleet.json (aggregate throughput and
#                             # benign-tenant p99 regression thresholds).
#   tools/check.sh ckpt       # checkpoint-storage gate: test_ckpt_store
#                             # (dedup, compression A/B, wire restore)
#                             # plus bench_ckpt --gate against the
#                             # committed BENCH_ckpt.json (>=4x byte and
#                             # image reductions, restore-latency ratio).
#   tools/check.sh health     # health-plane smoke: test_health, then an
#                             # attack-mix fleet with the SLO monitor and
#                             # telemetry endpoint live — /healthz must
#                             # flag the attack tenant, the flight-box
#                             # dump must round-trip through
#                             # rsafe-report --flight, and the obs
#                             # overhead gate must hold with the plane on.
set -eu

cd "$(dirname "$0")/.."
mode="${1:-all}"

run_config() {
    dir="$1"
    shift
    cmake -B "$dir" -S . "$@"
    cmake --build "$dir" -j "$(nproc)"
    ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

run_tidy() {
    # clang-tidy is optional tooling: gate on its presence so the tier-1
    # flow works on machines without it.
    if ! command -v clang-tidy > /dev/null 2>&1; then
        echo "check.sh: clang-tidy not installed, skipping tidy mode"
        return 0
    fi
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    if command -v run-clang-tidy > /dev/null 2>&1; then
        run-clang-tidy -p build -quiet "src/.*\.cc"
    else
        find src -name '*.cc' -print0 |
            xargs -0 -n 1 -P "$(nproc)" clang-tidy -p build --quiet
    fi
}

run_knobs() {
    # Every RSAFE_NO_* environment switch the code reads is documented,
    # the README documents no switch the code no longer reads, and no
    # other doc, script, CI step or test setenv names a retired one.
    read_knobs="$(grep -rhoE 'getenv\("RSAFE_NO_[A-Z_]+"' src |
                  grep -oE 'RSAFE_NO_[A-Z_]+' | sort -u)"
    doc_knobs="$(grep -oE 'RSAFE_NO_[A-Z_]+' README.md | sort -u)"
    if [ "$read_knobs" != "$doc_knobs" ]; then
        echo "check.sh: RSAFE_NO_* knobs read via getenv under src/:" >&2
        echo "$read_knobs" | sed 's/^/  /' >&2
        echo "check.sh: RSAFE_NO_* knobs documented in README.md:" >&2
        echo "$doc_knobs" | sed 's/^/  /' >&2
        return 1
    fi
    named="$({ grep -rhoE 'RSAFE_NO_[A-Z_]+' DESIGN.md \
                   .claude/skills/verify/SKILL.md tools bench .github
               grep -rhoE 'setenv\("RSAFE_NO_[A-Z_]+"' tests |
                   grep -oE 'RSAFE_NO_[A-Z_]+'; } | sort -u)"
    stale=0
    for knob in $named; do
        if ! echo "$read_knobs" | grep -qx "$knob"; then
            echo "check.sh: $knob is named here but no longer read" \
                 "under src/:" >&2
            grep -rn "$knob" DESIGN.md .claude/skills/verify/SKILL.md \
                tools bench .github tests | sed 's/^/  /' >&2
            stale=1
        fi
    done
    [ "$stale" -eq 0 ] || return 1
    echo "check.sh: runtime knobs ok ($(echo "$read_knobs" | wc -l)" \
         "read under src/, the same set documented in README.md;" \
         "no stale name in docs, tools, bench, CI or tests)"
}

run_fuzz() {
    runs="${RSAFE_FUZZ_RUNS:-50000}"
    # libFuzzer instrumentation is Clang-only. Under any other compiler
    # the same binaries are built with a standalone driver that replays
    # the corpus once — still a regression gate, just not exploratory.
    if ${CXX:-c++} --version 2> /dev/null | grep -q clang; then
        cmake -B build-fuzz -S . -DRSAFE_FUZZ=ON -DRSAFE_SANITIZE=ON
    else
        echo "check.sh: compiler is not clang; corpus replay only"
        runs=0
        cmake -B build-fuzz -S .
    fi
    cmake --build build-fuzz -j "$(nproc)" \
        --target fuzz_wire --target fuzz_log --target fuzz_checkpoint \
        --target fuzz_ckpt_image --target fuzz_flight --target fuzz_policy
    for target in wire log checkpoint ckpt_image flight policy; do
        corpus="$target"
        # Full-image seeds live under corpus/ckpt.
        [ "$target" = ckpt_image ] && corpus=ckpt
        echo "check.sh: fuzz_$target over tests/corpus/$corpus" \
             "(runs=$runs)"
        "./build-fuzz/tools/fuzz_$target" -runs="$runs" \
            "tests/corpus/$corpus"
    done
}

run_trace() {
    # The observability gate: the attack-mix pipeline must produce a
    # schema-valid Perfetto-loadable trace (flow arrows included),
    # metrics in both formats, and forensic reports — live and over the
    # checked-in golden attack recording.
    cmake -B build -S .
    cmake --build build -j "$(nproc)" --target rsafe-report
    ./build/tools/rsafe-report --attack-mix --check-trace \
        --trace trace_attack_mix.json \
        --metrics metrics_attack_mix.json \
        --prom metrics_attack_mix.prom > forensics_attack_mix.txt
    ./build/tools/rsafe-report --log tests/corpus/golden/attack.rnrlog \
        --attack-mix --check-trace \
        --trace trace_golden_attack.json --json > forensics_golden.json
    grep -q k_vulnerable forensics_attack_mix.txt
    grep -q k_vulnerable forensics_golden.json
    echo "check.sh: trace schema + forensic artifacts ok"
}

run_bench() {
    # The perf gate compares freshly measured machine-independent
    # speedup ratios against the committed baseline; a Release build
    # keeps the measurement honest.
    cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-rel -j "$(nproc)" --target bench_micro
    (cd build-rel && ./bench/bench_micro --gate ../BENCH_micro.json)
    echo "check.sh: bench gate ok (build-rel/BENCH_micro.json measured)"
}

run_fleet() {
    # The multi-tenant gate: the fleet unit suite (A/B determinism vs the
    # single framework, drain/abandon shutdown, per-tenant metric
    # namespacing) plus the scheduling benchmark measured fresh and
    # compared against the committed baseline. Release keeps the real
    # fleet run (wall_ms, pool counters) honest; the gated figures
    # themselves are simulated cycles and machine-independent.
    cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-rel -j "$(nproc)" --target test_fleet \
        --target bench_fleet
    ./build-rel/tests/test_fleet
    # Run inside build-rel so the freshly measured JSON lands there
    # instead of clobbering the committed baseline it is gated against.
    (cd build-rel &&
         ./bench/bench_fleet --gate --reference=../BENCH_fleet.json)
    echo "check.sh: fleet gate ok (build-rel/BENCH_fleet.json measured)"
}

run_ckpt() {
    # The checkpoint-storage gate: the ckpt_store unit suite (dedup
    # refcount lifecycle, RSAFE_NO_CKPT_COMPRESS A/B determinism,
    # AR-boots-from-wire-image equivalence) plus the storage
    # benchmark measured fresh and compared against the committed
    # baseline. The byte/image reductions are deterministic functions of
    # the log and carry hard >=4x floors; only the restore-latency ratio
    # is wall-clock (Release keeps it honest).
    cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-rel -j "$(nproc)" --target test_ckpt_store \
        --target bench_ckpt
    ./build-rel/tests/test_ckpt_store
    # Run inside build-rel so the freshly measured JSON lands there
    # instead of clobbering the committed baseline it is gated against.
    (cd build-rel && ./bench/bench_ckpt --gate ../BENCH_ckpt.json)
    echo "check.sh: ckpt gate ok (build-rel/BENCH_ckpt.json measured)"
}

run_health() {
    # The health-plane smoke: the unit suite first, then a live
    # attack-mix fleet with the monitor and the loopback telemetry
    # endpoint up. The run itself asserts the contract (attack tenant
    # leaves healthy, flight box decodes); here we additionally
    # round-trip the dump through the CLI decoder, check the offline
    # snapshots, and curl the live endpoint when curl exists.
    cmake -B build -S .
    cmake --build build -j "$(nproc)" --target test_health \
        --target rsafe-report --target bench_pipeline
    ./build/tests/test_health
    snapdir="health_smoke"
    rm -rf "$snapdir" && mkdir -p "$snapdir"
    hold_ms=0
    command -v curl > /dev/null 2>&1 && hold_ms=5000
    ./build/tools/rsafe-report --fleet-health \
        --snapshot-dir "$snapdir" --flight-out "$snapdir/flight.bin" \
        --hold-ms "$hold_ms" > "$snapdir/healthz.live.json" &
    smoke_pid=$!
    if [ "$hold_ms" -gt 0 ]; then
        # Curl the endpoint while the post-run linger keeps it up.
        for _ in $(seq 1 100); do
            [ -s "$snapdir/telemetry.port" ] && break
            sleep 0.2
        done
        port="$(cat "$snapdir/telemetry.port" 2> /dev/null || echo 0)"
        if [ "$port" -gt 0 ]; then
            # Retry until the fleet run finishes and the linger begins.
            live_metrics=""
            for _ in $(seq 1 200); do
                if live_metrics="$(curl -fsS --max-time 2 \
                        "http://127.0.0.1:$port/metrics" 2> /dev/null)"; then
                    break
                fi
                kill -0 "$smoke_pid" 2> /dev/null || break
                sleep 0.2
            done
            echo "$live_metrics" | grep -q "rsafe_"
            curl -fsS --max-time 2 "http://127.0.0.1:$port/healthz" |
                grep -q '"attacker"'
            echo "check.sh: live /metrics + /healthz ok (port $port)"
        fi
    fi
    wait "$smoke_pid"
    ./build/tools/rsafe-report --flight "$snapdir/flight.bin" \
        > "$snapdir/flight.txt"
    grep -q "flight box:" "$snapdir/flight.txt"
    grep -q '"attacker"' "$snapdir/healthz.live.json"
    grep -q '"critical"' "$snapdir/healthz.json"
    grep -q "rsafe_" "$snapdir/metrics.prom"
    # The overhead gate, with the health plane riding the on-arm.
    (cd build &&
         ./bench/bench_pipeline --obs-only --obs-gate \
             --reference=../BENCH_obs.json)
    echo "check.sh: health plane smoke ok ($snapdir/ artifacts)"
}

case "$mode" in
  release)  run_config build ;;
  sanitize) run_config build-asan -DRSAFE_SANITIZE=ON ;;
  tsan)     run_config build-tsan -DRSAFE_SANITIZE=thread ;;
  tidy)     run_tidy ;;
  knobs)    run_knobs ;;
  fuzz)     run_fuzz ;;
  trace)    run_trace ;;
  bench)    run_bench ;;
  fleet)    run_fleet ;;
  ckpt)     run_ckpt ;;
  health)   run_health ;;
  all)
    run_config build
    run_config build-asan -DRSAFE_SANITIZE=ON
    run_config build-tsan -DRSAFE_SANITIZE=thread
    ;;
  *)
    echo "usage: tools/check.sh [release|sanitize|tsan|tidy|knobs|fuzz|trace|bench|fleet|ckpt|health|all]" >&2
    exit 2
    ;;
esac
echo "check.sh: all requested configurations passed"
