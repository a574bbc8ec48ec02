//! Zero-allocation steady-state regression test.
//!
//! With the inline `DataWords` payloads and interned identifiers, the
//! ticked hot path — master tick, interconnect tick, slave tick — must
//! not touch the heap at all once the platform has warmed up: every
//! request/response payload fits the inline representation and every
//! queue has reached its high-water capacity. This test pins that down
//! with the counting global allocator; a single new `Vec` per cycle
//! anywhere in the data plane fails it.
//!
//! Runs only under `--features alloc-count` (CI's bench-smoke stage does
//! so); without the feature the file compiles to nothing.
//!
//! The counter is global and the test harness runs tests on parallel
//! threads, so every test holds [`MEASURE`] for its whole body: a
//! neighbouring test's set-up must not land in another's measured
//! window.

#![cfg(feature = "alloc-count")]

use std::sync::{Mutex, MutexGuard};

use ntg_bench::{alloc_count, trace_and_translate};
use ntg_platform::InterconnectChoice;
use ntg_workloads::synthetic::{build_synthetic_platform, SyntheticSpec};
use ntg_workloads::Workload;

static MEASURE: Mutex<()> = Mutex::new(());

/// Serialises the tests of this binary; a poisoned lock only means an
/// earlier test failed, which does not invalidate the next measurement.
fn measure_alone() -> MutexGuard<'static, ()> {
    MEASURE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn steady_state_ticks_do_not_allocate() {
    let _alone = measure_alone();
    let workload = Workload::Cacheloop { iterations: 5_000 };
    let cores = 2;
    let images = trace_and_translate(workload, cores, InterconnectChoice::Amba);
    let mut p = workload
        .build_tg_platform(images, InterconnectChoice::Amba, false)
        .expect("build TG platform");
    // Tick-by-tick: `step` never skips, so every cycle exercises the
    // full data plane, and it builds no report that would allocate.
    p.set_cycle_skipping(false);

    // Warm up: first transactions grow channel queues and stats buffers
    // to their steady-state capacity.
    p.step(2_000);
    assert!(
        !p.is_quiesced(),
        "warmup must leave live traffic to measure"
    );

    let allocs_before = alloc_count::allocations();
    let bytes_before = alloc_count::bytes();
    p.step(10_000);
    let allocs = alloc_count::allocations() - allocs_before;
    let bytes = alloc_count::bytes() - bytes_before;

    assert_eq!(
        allocs, 0,
        "steady-state hot path allocated {allocs} times ({bytes} bytes) \
         over 10k cycles — the zero-copy data plane regressed"
    );
}

#[test]
fn steady_state_ticks_do_not_allocate_with_metrics_enabled() {
    let _alone = measure_alone();
    // The opt-in metrics layer must stay counters-only on the hot
    // path: the windowed utilization series pre-allocates its buffer
    // when enabled and merges windows in place at capacity, so sampling
    // every ticked cycle adds zero steady-state allocations.
    let workload = Workload::Cacheloop { iterations: 5_000 };
    let cores = 2;
    let images = trace_and_translate(workload, cores, InterconnectChoice::Amba);
    let mut p = workload
        .build_tg_platform(images, InterconnectChoice::Amba, false)
        .expect("build TG platform");
    p.set_cycle_skipping(false);
    p.enable_metrics();

    p.step(2_000);
    assert!(
        !p.is_quiesced(),
        "warmup must leave live traffic to measure"
    );

    let allocs_before = alloc_count::allocations();
    let bytes_before = alloc_count::bytes();
    p.step(10_000);
    let allocs = alloc_count::allocations() - allocs_before;
    let bytes = alloc_count::bytes() - bytes_before;

    assert_eq!(
        allocs, 0,
        "metrics-enabled hot path allocated {allocs} times ({bytes} bytes) \
         over 10k cycles — the observer must be counters-only when on"
    );
}

#[test]
fn synthetic_steady_state_ticks_do_not_allocate() {
    let _alone = measure_alone();
    // SyntheticTg generates traffic straight from its PRNG: no trace,
    // no program, no translation. With ≤4-word packets every payload
    // stays in the inline `DataWords` representation, so the generator
    // must be exactly as allocation-free as the TG replay — including
    // with the metrics observer sampling every cycle.
    let spec: SyntheticSpec = "uniform+bernoulli@0.1/4".parse().unwrap();
    let mut p = build_synthetic_platform(4, InterconnectChoice::Xpipes, spec, 1_000_000, 42)
        .expect("build synthetic platform");
    p.set_cycle_skipping(false);
    p.enable_metrics();

    p.step(2_000);
    assert!(
        !p.is_quiesced(),
        "warmup must leave live traffic to measure"
    );

    let allocs_before = alloc_count::allocations();
    let bytes_before = alloc_count::bytes();
    p.step(10_000);
    let allocs = alloc_count::allocations() - allocs_before;
    let bytes = alloc_count::bytes() - bytes_before;

    assert_eq!(
        allocs, 0,
        "synthetic steady state allocated {allocs} times ({bytes} bytes) \
         over 10k cycles — SyntheticTg must stay on the zero-copy plane"
    );
}

#[test]
fn two_platforms_on_two_threads_stay_allocation_free() {
    let _alone = measure_alone();
    // The arena data plane makes a platform a plain `Send` value, so
    // campaign workers run whole platforms on worker threads. The
    // zero-steady-state-allocation property must hold there too — and
    // concurrently, since the counting allocator is global: any
    // per-cycle allocation on either thread shows up in the shared
    // counters. Both platforms warm up first (queue growth, lazy sync
    // primitives, thread bookkeeping) before the measured window opens.
    let workload = Workload::Cacheloop { iterations: 5_000 };
    let cores = 2;
    let images = trace_and_translate(workload, cores, InterconnectChoice::Amba);
    let build = || {
        let mut p = workload
            .build_tg_platform(images.clone(), InterconnectChoice::Amba, false)
            .expect("build TG platform");
        p.set_cycle_skipping(false);
        p.enable_metrics();
        p
    };
    let mut a = build();
    let mut b = build();

    // Warm up on the worker threads themselves so thread-spawn and
    // first-tick growth allocations land outside the measured window.
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        let handles = [&mut a, &mut b].map(|p| {
            let barrier = &barrier;
            s.spawn(move || {
                p.step(2_000);
                assert!(!p.is_quiesced(), "warmup must leave live traffic");
                barrier.wait();
                let allocs_before = alloc_count::allocations();
                p.step(10_000);
                alloc_count::allocations() - allocs_before
            })
        });
        for h in handles {
            let allocs = h.join().unwrap();
            assert_eq!(
                allocs, 0,
                "concurrent steady-state hot path allocated {allocs} times \
                 over 10k cycles — the Send data plane regressed"
            );
        }
    });
}
