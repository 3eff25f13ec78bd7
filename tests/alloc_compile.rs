//! A compile allocates per distinct thing, not per grid cell: the grid
//! model stores each distinct cell member list once, and its mass pass
//! writes every cell into one reused rectangle.
//!
//! Verified with a counting global allocator. The test is alone in its
//! own integration-test file so it owns the process: no other test's
//! thread can start or finish while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::Broker;
use pubsub::netsim::TransitStubConfig;
use pubsub::workload::{stock_space, Modes, SubscriptionConfig};

/// Counts every `alloc`/`realloc`/`alloc_zeroed` while armed; delegates
/// all work to the system allocator.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Building the paper broker — the testbed's 1000 subscriptions on the
/// riabov topology, clustered by Forgy k-means into 11 groups over the
/// nine-mode publication model — allocates per distinct member list and
/// per group, not per grid cell: its 10,000-cell model holds 1,887
/// distinct lists. One allocation per cell for the lists (10,000) plus
/// two per cell for the mass pass's cell rectangles (20,000) is what the
/// bound rules out; the build measures 5,424.
#[test]
fn paper_build_allocates_per_distinct_list_not_per_cell() {
    let topo = TransitStubConfig::riabov().generate(1903).unwrap();
    let placed = SubscriptionConfig::riabov().generate(&topo, 2003).unwrap();
    let model = Modes::Nine.model();
    let builder = Broker::builder(topo, stock_space())
        .subscriptions(placed.into_iter().map(|p| (p.node, p.rect)))
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 11))
        .density(move |r| model.mass(r));

    ARMED.store(true, Ordering::SeqCst);
    let broker = builder.build().unwrap();
    ARMED.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(broker.grid_model().grid().cell_count(), 10_000);
    assert!(
        allocations <= 8_000,
        "build() made {allocations} heap allocations"
    );
}
