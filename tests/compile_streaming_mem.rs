//! The bounded-intermediate guarantee of the streaming covered compile:
//! `recompile()` on a broker with a covering layer streams the registry
//! straight into the interning pass and the grid model — it never
//! materializes an `O(N)` vector of `f64` rectangles. Verified with a
//! metering global allocator: the transient peak above the pre-recompile
//! live set must stay **well below** the measured cost of collecting the
//! registry into a `(NodeId, Rect)` list, for a population large enough
//! that the difference is unambiguous.
//!
//! `build()` takes the same compile, and only the compile: the builder
//! already holds the registry, which stores each distinct rectangle once
//! (12 bytes of slot per subscription). The compile clamps and interns
//! once per distinct rectangle, its per-subscription work does not
//! allocate, and the grid model walks each distinct rectangle once.
//!
//! These tests live in their own integration-test file so they own the
//! process-global allocator, and take [`METER`] so they do not meter
//! each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pubsub::core::{Broker, CoveringConfig};
use pubsub::geom::{Interval, Point, Rect, Space};
use pubsub::netsim::{NodeId, TransitStubConfig};

/// Tracks live and peak heap bytes and counts allocation calls;
/// delegates all work to the system allocator. Always on — tests window
/// it with [`live`] / [`reset_peak`] / [`calls`].
struct MeterAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// Held by each test while it reads the meter.
static METER: Mutex<()> = Mutex::new(());

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for MeterAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        new_ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }
}

#[global_allocator]
static ALLOCATOR: MeterAlloc = MeterAlloc;

fn live() -> usize {
    LIVE.load(Ordering::SeqCst)
}

fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
}

fn peak() -> usize {
    PEAK.load(Ordering::SeqCst)
}

/// Allocations and reallocations so far.
fn calls() -> usize {
    CALLS.load(Ordering::SeqCst)
}

/// Runs `f` and returns `(transient peak above entry live, result)`.
fn transient_peak<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = live();
    reset_peak();
    let result = f();
    (peak().saturating_sub(before), result)
}

const SUBS: usize = 100_000;
const POOL: usize = 64;

fn space_2d() -> Space {
    Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap()
}

/// A duplicate-heavy population: `SUBS` subscriptions drawn round-robin
/// with a stride from a pool of `POOL` rectangles (55 of them distinct:
/// the caps at 10 make some equal).
fn population(nodes: &[NodeId]) -> Vec<(NodeId, Rect)> {
    let pool: Vec<Rect> = (0..POOL)
        .map(|i| {
            let lo = (i % 19) as f64 * 0.5;
            let w = 1.0 + (i % 7) as f64;
            Rect::from_corners(
                &[lo, lo * 0.4],
                &[(lo + w).min(10.0), (lo * 0.4 + 2.0).min(10.0)],
            )
            .unwrap()
        })
        .collect();
    (0..SUBS)
        .map(|i| {
            (
                nodes[(i * 31) % nodes.len()],
                pool[(i * 7919) % POOL].clone(),
            )
        })
        .collect()
}

#[test]
fn covered_recompile_never_holds_an_o_n_rect_intermediate() {
    let _meter = METER.lock().unwrap_or_else(|e| e.into_inner());
    let topo = TransitStubConfig::tiny().generate(17).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let mut broker = Broker::builder(topo, space_2d())
        .covering(CoveringConfig::default())
        .grid_cells(5)
        .subscriptions(population(&nodes))
        .build()
        .unwrap();

    let stats = *broker.covering_stats().expect("covering layer installed");
    assert_eq!(stats.concrete, SUBS);
    assert!(
        stats.representatives <= POOL,
        "pool population must collapse to at most {POOL} representatives, got {}",
        stats.representatives
    );

    // The yardstick: what materializing the registry as a concrete
    // `(node, rect)` list actually costs on this layout. The streaming
    // path must stay far under this.
    let (collect_bytes, collected) = transient_peak(|| {
        broker
            .registry()
            .live()
            .map(|(_, n, r)| (n, Rect::new(r.to_vec()).unwrap()))
            .collect::<Vec<(NodeId, Rect)>>()
    });
    assert_eq!(collected.len(), SUBS);
    drop(collected);
    assert!(
        collect_bytes >= SUBS * 32,
        "yardstick collect unexpectedly cheap: {collect_bytes} bytes"
    );

    // The streaming covered recompile: transient peak above the live set
    // must be a small fraction of the collect yardstick. The compiled
    // artifacts it may legitimately allocate are O(representatives) f64
    // bounds plus O(N) narrow (u32-sized) expansion entries.
    let (recompile_bytes, ()) = transient_peak(|| broker.recompile().unwrap());
    assert!(
        recompile_bytes * 2 < collect_bytes,
        "covered recompile transient ({recompile_bytes} bytes) is not well \
         below the O(N) rect collect ({collect_bytes} bytes)"
    );

    // And the recompiled broker still matches: an event inside pool
    // rectangle 0 reaches a nonempty subscriber set.
    let outcome = broker
        .publish(&Point::new(vec![0.5, 0.5]).unwrap())
        .unwrap();
    assert!(!outcome.matched_subscriptions.is_empty());

    // Steady state: a second recompile of the unchanged population must
    // not need more transient memory than the first (no growth drift).
    let (second_bytes, ()) = transient_peak(|| broker.recompile().unwrap());
    assert!(
        second_bytes <= recompile_bytes + (recompile_bytes >> 2),
        "second recompile transient grew: {second_bytes} vs {recompile_bytes}"
    );
}

#[test]
fn covered_build_moves_its_rectangles_and_walks_without_allocating() {
    let _meter = METER.lock().unwrap_or_else(|e| e.into_inner());
    let topo = TransitStubConfig::tiny().generate(17).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let builder = Broker::builder(topo, space_2d())
        .covering(CoveringConfig::default())
        .grid_cells(5)
        .subscriptions(population(&nodes));

    let calls_before = calls();
    let (build_bytes, broker) = transient_peak(|| builder.build().unwrap());
    let build_calls = calls() - calls_before;
    assert_eq!(broker.registry().len(), SUBS);

    // The registry stores each pool rectangle once: a 12-byte slot per
    // subscription and a per-node count are nearly all it holds. Read
    // from its own accounting and from the meter, over a clone (which
    // allocates what the registry holds, at exact capacities).
    let registry = broker.registry();
    assert!(registry.distinct_rects() <= POOL);
    let (clone_bytes, clone) = transient_peak(|| registry.clone());
    drop(clone);
    for (what, bytes) in [
        ("heap_bytes", registry.heap_bytes()),
        ("clone", clone_bytes),
    ] {
        assert!(
            bytes <= 16 * SUBS,
            "registry {what}: {bytes} bytes for {SUBS} subscriptions over {POOL} rectangles"
        );
    }

    // No allocation per subscription: the covering pass clamps and
    // interns each of the registry's `POOL` rectangles once, and the grid
    // model walks each of them once.
    // What is left (~600 calls) is per representative and per build.
    // With a clamped `Rect` per subscription this was just over one per
    // subscription; with a registry clone, two more clamps and three
    // vectors per walk it was 7.35.
    assert!(
        build_calls < 1_000,
        "covered build made {build_calls} allocations for {SUBS} subscriptions"
    );

    // No second copy of the rectangles: against the peak measured when
    // `build()` cloned them into the registry, this one is lower by at
    // least their interval storage (it measures 4.0 MB).
    const CLONING_BUILD_PEAK: usize = 10_049_157;
    let interval_bytes = SUBS * 2 * std::mem::size_of::<Interval>();
    assert!(
        build_bytes + interval_bytes <= CLONING_BUILD_PEAK,
        "covered build peaked {build_bytes} bytes above its entry live set"
    );
}
