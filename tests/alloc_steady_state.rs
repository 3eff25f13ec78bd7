//! The zero-allocation guarantee of the fused batch pipeline: once the
//! per-worker states are warm, `publish_batch_stats` in dense mode
//! performs **no heap allocation at all** — not per event, not per
//! batch — on both the inline and the pooled dispatch path.
//!
//! The same holds on a covered (scale-mode) broker, whose warm
//! `publish_batch` additionally allocates only O(runs + nodes) bytes per
//! event: outcomes reference covering runs instead of copying ids.
//!
//! Churn allocates in proportion to what it keeps: the first
//! subscribe/unsubscribe after a build seeds per-(group, node) counts,
//! not a per-(cell, node) table.
//!
//! Clustering allocates per group and per sweep, not per distance: the
//! EW fold resumes from each group's cached prefix states in place.
//!
//! Verified with a counting global allocator. This test lives in its own
//! integration-test file so it owns the process: the only threads that
//! can allocate while the counter is armed are the ones under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use pubsub::clustering::{cluster, ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, CoveringConfig};
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::TransitStubConfig;
use pubsub::parallel::WorkerPool;
use pubsub::workload::{stock_space, Modes, ScaleConfig, SubscriptionConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Counts every `alloc`/`realloc`/`alloc_zeroed` (from any thread), and
/// the bytes asked for, while armed; delegates all work to the system
/// allocator.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Serializes the tests in this file: the armed counter is global, so
/// two tests measuring at once would count each other's allocations.
static COUNTER_OWNER: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` with the allocation counter armed; returns how many heap
/// allocations happened inside.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let result = f();
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), result)
}

#[test]
fn warm_batch_publish_is_allocation_free() {
    let _serial = COUNTER_OWNER.lock().unwrap();
    let pool = Arc::new(WorkerPool::new(2));
    let topo = TransitStubConfig::tiny().generate(11).unwrap();
    let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let mut broker = Broker::builder(topo, space)
        .worker_pool(Arc::clone(&pool))
        .subscription(
            nodes[0],
            Rect::from_corners(&[0.0, 0.0], &[6.0, 6.0]).unwrap(),
        )
        .subscription(
            nodes[1],
            Rect::from_corners(&[2.0, 1.0], &[9.0, 8.0]).unwrap(),
        )
        .subscription(
            nodes[2],
            Rect::from_corners(&[5.0, 4.0], &[10.0, 10.0]).unwrap(),
        )
        .build()
        .unwrap();
    // Several blocks' worth of events so the pooled path actually fans out.
    let events: Vec<Point> = (0..256)
        .map(|i| Point::new(vec![(i % 10) as f64 + 0.3, ((i * 7) % 10) as f64 + 0.1]).unwrap())
        .collect();

    for threads in [1usize, 2] {
        // Warm-up: grows arenas, creates SPT rows, fills the scheme memo.
        for _ in 0..2 {
            broker.publish_batch_stats(&events, Some(threads)).unwrap();
        }
        let growths_before = broker.metrics_snapshot().pipeline.arena_growths;
        let before = broker.report().messages;

        let (allocations, report) =
            count_allocations(|| broker.publish_batch_stats(&events, Some(threads)).unwrap());

        assert_eq!(report.messages, before + events.len() as u64);
        assert_eq!(
            broker.metrics_snapshot().pipeline.arena_growths,
            growths_before,
            "warm states must not regrow (threads = {threads})"
        );
        assert_eq!(
            allocations, 0,
            "steady-state publish_batch_stats must not allocate (threads = {threads})"
        );
    }
}

/// Count-level delivery on a covered broker: the warm stats path
/// allocates nothing, and the warm outcome path allocates per event only
/// its hit runs and interested nodes — far less than the 4 bytes per
/// matched subscription that copying the ids out would cost.
#[test]
fn warm_covered_batch_allocates_runs_and_nodes_not_ids() {
    let _serial = COUNTER_OWNER.lock().unwrap();
    let topo = TransitStubConfig::riabov().generate(1903).unwrap();
    let population = ScaleConfig::stock(100_000)
        .generate(&topo, 2003, Some(1))
        .unwrap()
        .to_vec();
    let mut broker = Broker::builder(topo, stock_space())
        .subscriptions(population)
        .covering(CoveringConfig::default())
        .build()
        .unwrap();
    let model = Modes::Nine.model();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let events: Vec<Point> = (0..256).map(|_| model.sample(&mut rng)).collect();

    for _ in 0..2 {
        broker.publish_batch_stats(&events, Some(1)).unwrap();
    }
    let growths_before = broker.metrics_snapshot().pipeline.arena_growths;
    let (allocations, _) =
        count_allocations(|| broker.publish_batch_stats(&events, Some(1)).unwrap());
    assert_eq!(
        broker.metrics_snapshot().pipeline.arena_growths,
        growths_before,
        "warm run-level arenas must not regrow"
    );
    assert_eq!(
        allocations, 0,
        "steady-state covered publish_batch_stats must not allocate"
    );

    let (_, outcomes) = count_allocations(|| broker.publish_batch(&events, Some(1)).unwrap());
    let bytes = BYTES.load(Ordering::SeqCst);
    let matched: usize = outcomes.iter().map(|o| o.matched_subscriptions.len()).sum();
    assert!(
        matched > 100 * events.len(),
        "the population must make copying ids expensive ({matched} matches)"
    );
    // Per outcome: its slot in the returned vector, 4 bytes per
    // interested node, 4 bytes per hit run — and nothing per match
    // (measured: 0.38 MB where the ids alone would be 1.39 MB).
    assert!(
        (bytes as usize) < 4 * matched / 3,
        "{bytes} bytes must be well under 4 bytes x {matched} matches"
    );
}

/// The durable subscription journal must be zero-cost off the control
/// path: it hooks subscribe/unsubscribe/recompile only, so even a
/// broker *with* a journal attached keeps the warm publish path
/// allocation-free — and a journal-less broker (the default, exercised
/// by the test above) cannot regress by construction.
#[test]
fn journaled_broker_publish_path_is_still_allocation_free() {
    let _serial = COUNTER_OWNER.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("pubsub-alloc-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let topo = TransitStubConfig::tiny().generate(11).unwrap();
    let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let mut broker = Broker::builder(topo, space)
        .journal(pubsub::core::JournalConfig::new(&dir))
        .subscription(
            nodes[0],
            Rect::from_corners(&[0.0, 0.0], &[6.0, 6.0]).unwrap(),
        )
        .subscription(
            nodes[1],
            Rect::from_corners(&[2.0, 1.0], &[9.0, 8.0]).unwrap(),
        )
        .build()
        .unwrap();
    let events: Vec<Point> = (0..256)
        .map(|i| Point::new(vec![(i % 10) as f64 + 0.3, ((i * 7) % 10) as f64 + 0.1]).unwrap())
        .collect();

    for _ in 0..2 {
        broker.publish_batch_stats(&events, Some(1)).unwrap();
    }
    let wal_before = broker.journal().unwrap().wal_len();
    let before = broker.report().messages;

    let (allocations, report) =
        count_allocations(|| broker.publish_batch_stats(&events, Some(1)).unwrap());

    assert_eq!(report.messages, before + events.len() as u64);
    assert_eq!(
        broker.journal().unwrap().wal_len(),
        wal_before,
        "publishing must not touch the journal"
    );
    assert_eq!(
        allocations, 0,
        "the journal must stay off the publish path entirely"
    );
    drop(broker);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The paper broker: the testbed's 1000 subscriptions on the riabov
/// topology, clustered by Forgy k-means into 11 groups over the
/// nine-mode publication model.
fn paper_broker() -> Broker {
    let topo = TransitStubConfig::riabov().generate(1903).unwrap();
    let placed = SubscriptionConfig::riabov().generate(&topo, 2003).unwrap();
    let model = Modes::Nine.model();
    Broker::builder(topo, stock_space())
        .subscriptions(placed.into_iter().map(|p| (p.node, p.rect)))
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 11))
        .density(move |r| model.mass(r))
        .build()
        .unwrap()
}

/// Re-clustering the paper testbed's grid model allocates a few hundred
/// times (248) — group states, the distance memo, the partition — and
/// never per distance: Forgy k-means evaluates some 17,000 distances
/// here, so one allocation per distance would break the bound many times
/// over. The broker keeps no model, so it is rebuilt before the count
/// starts: only `cluster()` is measured.
#[test]
fn clustering_allocates_per_group_not_per_distance() {
    let _serial = COUNTER_OWNER.lock().unwrap();
    let broker = paper_broker();
    let config = ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 11);
    let model = broker.grid_model();
    let (allocations, partition) = count_allocations(|| cluster(model, &config));
    assert_eq!(partition.unwrap().group_count(), 11);
    assert!(
        allocations <= 2_000,
        "cluster() made {allocations} heap allocations"
    );
}

/// The first churn pair on the paper broker seeds the churn counts from
/// the registry: groups × nodes `u32`s (11 × 522 here), not the
/// cells × nodes table (21.9 MB) a per-cell count would need.
#[test]
fn first_churn_op_allocates_no_table() {
    let _serial = COUNTER_OWNER.lock().unwrap();
    let mut broker = paper_broker();
    let (handle, node, rect) = broker
        .registry()
        .live()
        .map(|(h, n, r)| (h, n, Rect::new(r.to_vec()).unwrap()))
        .next()
        .unwrap();

    count_allocations(|| {
        broker.unsubscribe(handle).unwrap();
        broker.subscribe(node, rect).unwrap();
    });
    let bytes = BYTES.load(Ordering::SeqCst);
    assert!(
        bytes < 1 << 20,
        "the first churn pair requested {bytes} bytes"
    );
}
