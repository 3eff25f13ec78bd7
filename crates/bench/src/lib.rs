//! Shared experiment harness for the figure/table and `bench_*` binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md's per-experiment index); this library
//! holds the plumbing they share: building the paper's testbed (topology +
//! subscriptions + publication model), driving a broker over an event
//! stream, and sweeping thresholds.

#![deny(missing_docs)]

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use pubsub_clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub_core::{Broker, CostReport, DeliveryMode, DistributionPolicy};
use pubsub_geom::Point;
use pubsub_netsim::{Topology, TransitStubConfig};
use pubsub_workload::{stock_space, Modes, PublicationModel, SubscriptionConfig};

/// Seeds that make every experiment reproducible end to end.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Seeds {
    /// Topology generation seed.
    pub topology: u64,
    /// Subscription generation seed.
    pub subscriptions: u64,
    /// Publication stream seed.
    pub publications: u64,
}

impl Default for Seeds {
    fn default() -> Self {
        Seeds {
            topology: 1903,
            subscriptions: 2003,
            publications: 23,
        }
    }
}

/// The paper's testbed: the ~600-node transit-stub network and the 1000
/// placed stock subscriptions.
#[derive(Debug)]
pub struct Testbed {
    /// The generated network.
    pub topology: Topology,
    /// `(node, rect)` subscriptions in generation order.
    pub subscriptions: Vec<(pubsub_netsim::NodeId, pubsub_geom::Rect)>,
}

/// Builds the paper's testbed from seeds.
///
/// # Panics
///
/// Panics if the static experiment configuration is rejected (cannot
/// happen for the built-in presets).
pub fn build_testbed(seeds: Seeds) -> Testbed {
    let topology = TransitStubConfig::riabov()
        .generate(seeds.topology)
        .expect("preset config is valid");
    let placed = SubscriptionConfig::riabov()
        .generate(&topology, seeds.subscriptions)
        .expect("preset config is valid");
    let subscriptions = placed.into_iter().map(|p| (p.node, p.rect)).collect();
    Testbed {
        topology,
        subscriptions,
    }
}

/// Builds a broker on the testbed for one experimental cell.
///
/// # Panics
///
/// Panics if the combination is invalid (cannot happen for paper
/// parameter ranges).
pub fn build_broker(
    testbed: &Testbed,
    model: &PublicationModel,
    algorithm: ClusteringAlgorithm,
    groups: usize,
    threshold: f64,
    delivery: DeliveryMode,
) -> Broker {
    let model = model.clone();
    Broker::builder(testbed.topology.clone(), stock_space())
        .subscriptions(testbed.subscriptions.iter().cloned())
        .clustering(ClusteringConfig::new(algorithm, groups))
        .threshold(threshold)
        .delivery_mode(delivery)
        .density(move |r| model.mass(r))
        .build()
        .expect("experiment configuration is valid")
}

/// Samples a reproducible publication stream.
pub fn sample_events(model: &PublicationModel, count: usize, seed: u64) -> Vec<Point> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count).map(|_| model.sample(&mut rng)).collect()
}

/// Publishes every event and returns the cumulative report.
///
/// Drives the broker through [`Broker::publish_batch`] with the default
/// worker count: the matching stage runs in parallel, and the report is
/// guaranteed identical to a sequential publish loop.
///
/// # Panics
///
/// Panics if an event has the wrong dimensionality (the harness samples
/// them from the broker's own space, so this is a programming error).
pub fn drive(broker: &mut Broker, events: &[Point]) -> CostReport {
    drive_with(broker, events, None)
}

/// [`drive`] with an explicit matching worker count (`None` = available
/// parallelism, `Some(1)` = fully sequential).
///
/// # Panics
///
/// Panics if an event has the wrong dimensionality.
pub fn drive_with(broker: &mut Broker, events: &[Point], threads: Option<usize>) -> CostReport {
    broker.reset_report();
    broker
        .publish_batch(events, threads)
        .expect("events come from the model");
    *broker.report()
}

/// Figure 6's threshold grid: the horizontal axis of every sweep that is
/// compared with the paper.
pub const FIG6_THRESHOLDS: [f64; 11] = [
    0.0, 0.025, 0.05, 0.075, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50,
];

/// One row of a threshold sweep.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SweepPoint {
    /// The threshold `t`.
    pub threshold: f64,
    /// Improvement over unicast (paper's vertical axis).
    pub improvement_percent: f64,
    /// Mean delivery cost per message.
    pub avg_cost: f64,
    /// Fraction of delivered messages that were multicast.
    pub multicast_fraction: f64,
    /// Deliveries to uninterested subscribers.
    pub wasted_deliveries: u64,
}

/// Sweeps the distribution threshold on one broker, re-publishing the
/// same event stream at each point (Figure 6's horizontal axis).
///
/// # Panics
///
/// Panics if a threshold is outside `[0, 1]`.
pub fn threshold_sweep(
    broker: &mut Broker,
    events: &[Point],
    thresholds: &[f64],
) -> Vec<SweepPoint> {
    thresholds
        .iter()
        .map(|&t| {
            *broker.policy_mut() = DistributionPolicy::new(t).expect("threshold in [0,1]");
            let report = drive(broker, events);
            let sent = (report.unicasts + report.multicasts).max(1);
            SweepPoint {
                threshold: t,
                improvement_percent: report.improvement_percent(),
                avg_cost: report.avg_cost(),
                multicast_fraction: report.multicasts as f64 / sent as f64,
                wasted_deliveries: report.wasted_deliveries,
            }
        })
        .collect()
}

/// The publication scenarios of §5, by mode count.
pub fn scenario(modes: Modes) -> PublicationModel {
    modes.model()
}

/// The host execution environment, recorded uniformly in every
/// `BENCH_*.json` header so results can be compared across machines:
/// a 1-core CI runner and a 32-core workstation produce legitimately
/// different numbers, and the JSON must say which one it came from.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct HostInfo {
    /// `std::thread::available_parallelism()` at process start (1 when
    /// the host cannot report it).
    pub host_cores: usize,
    /// The widest SIMD level the host CPU supports ("scalar", "sse2" or
    /// "avx2"); it describes the host, no code dispatches on it.
    pub simd_level: &'static str,
}

/// Snapshots [`HostInfo`] for a bench JSON header. Embed with
/// `#[serde(flatten)]` so every file carries the same two keys.
pub fn host_info() -> HostInfo {
    HostInfo {
        host_cores: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        simd_level: pubsub_stree::simd::active_level().name(),
    }
}

/// Formats a table row of `f64` cells for the experiment binaries.
pub fn row(cells: &[f64]) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>10.2}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Writes an experiment's machine-readable result next to the
/// human-readable stdout tables: `results/<name>.json` under the current
/// directory. Failures are reported but non-fatal (the figures still
/// print).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let json = serde_json::to_string_pretty(value)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        std::fs::write(dir.join(format!("{name}.json")), json)
    };
    if let Err(e) = write() {
        eprintln!("warning: could not write results/{name}.json: {e}");
    }
}

/// Times `pass` over `samples` runs (after one warm-up) and returns the
/// best events-per-second figure. Each pass's result feeds a black box so
/// the measured work cannot be optimized away.
pub fn measure<T>(events: usize, samples: usize, mut pass: impl FnMut() -> T) -> f64 {
    std::hint::black_box(pass());
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = std::time::Instant::now();
        std::hint::black_box(pass());
        best = best.min(start.elapsed().as_secs_f64());
    }
    events as f64 / best
}

/// Per-batch latency quantiles, pooled across every timed sample of a
/// [`measure_batched`] run. Throughput alone hides tail behaviour — two
/// engines with equal events/sec can differ 10x at p99 — so the closed-
/// loop benches report these next to their rate columns.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct BatchLatency {
    /// Batches pooled into the quantiles.
    pub batches: usize,
    /// Median per-batch wall-clock, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile per-batch wall-clock, nanoseconds.
    pub p99_ns: u64,
}

/// Computes [`BatchLatency`] from raw per-batch durations (sorted in
/// place). Empty input yields the all-zero default.
pub fn batch_quantiles(lat_ns: &mut [u64]) -> BatchLatency {
    if lat_ns.is_empty() {
        return BatchLatency::default();
    }
    lat_ns.sort_unstable();
    let pick = |q: f64| {
        let rank = (q * (lat_ns.len() - 1) as f64).round() as usize;
        lat_ns[rank.min(lat_ns.len() - 1)]
    };
    BatchLatency {
        batches: lat_ns.len(),
        p50_ns: pick(0.50),
        p99_ns: pick(0.99),
    }
}

/// [`measure`] that also reports per-batch latency quantiles. `pass`
/// calls the recorder once per published batch with that batch's
/// wall-clock duration; the warm-up run's batches are discarded and the
/// quantiles pool every batch from the timed samples.
pub fn measure_batched<T>(
    events: usize,
    samples: usize,
    mut pass: impl FnMut(&mut dyn FnMut(std::time::Duration)) -> T,
) -> (f64, BatchLatency) {
    std::hint::black_box(pass(&mut |_| {}));
    let mut lat_ns: Vec<u64> = Vec::new();
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let mut record = |d: std::time::Duration| {
            lat_ns.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        };
        let start = std::time::Instant::now();
        std::hint::black_box(pass(&mut record));
        best = best.min(start.elapsed().as_secs_f64());
    }
    (events as f64 / best, batch_quantiles(&mut lat_ns))
}

/// Number of publications per experimental cell; override with the
/// `PUBSUB_EVENTS` environment variable (e.g. for quick smoke runs).
/// Unparsable or zero overrides fall back to `default` — a zero event
/// count would make every throughput figure 0/0 and once produced an
/// all-zero `BENCH_matching.json`.
pub fn event_count(default: usize) -> usize {
    std::env::var("PUBSUB_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Subscription counts for the scale rows: `PUBSUB_SUBS` (a single
/// positive integer) restricts the sweep to that one count; otherwise
/// `default` is used as-is. Unparsable or zero overrides fall back to
/// `default`.
pub fn sub_counts(default: &[usize]) -> Vec<usize> {
    std::env::var("PUBSUB_SUBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .map_or_else(|| default.to_vec(), |n| vec![n])
}

/// Byte-accounting global allocator wrapper: tracks the number of heap
/// bytes currently live (and the peak) across every thread, delegating
/// the actual work to the system allocator. Install in a binary with
/// `#[global_allocator]` to measure a structure's resident footprint as
/// the live-byte delta across its construction.
pub mod heap {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The wrapper allocator; see the module docs.
    #[derive(Debug)]
    pub struct MeterAlloc;

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    fn add(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    unsafe impl GlobalAlloc for MeterAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                add(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
                add(new_size);
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                add(layout.size());
            }
            p
        }
    }

    /// Heap bytes currently live (allocated and not yet freed).
    pub fn live_bytes() -> usize {
        LIVE.load(Ordering::Relaxed)
    }

    /// Highest live-byte level seen since process start (or the last
    /// [`reset_peak`]).
    pub fn peak_bytes() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    /// Rebases the peak to the current live level, so a following
    /// [`peak_bytes`] reads the high-water mark of just the code in
    /// between.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_is_reproducible() {
        let a = build_testbed(Seeds::default());
        let b = build_testbed(Seeds::default());
        assert_eq!(a.subscriptions, b.subscriptions);
        assert_eq!(a.topology.stats(), b.topology.stats());
        assert_eq!(a.subscriptions.len(), 1000);
    }

    #[test]
    fn small_sweep_produces_finite_improvements() {
        let testbed = build_testbed(Seeds::default());
        let model = scenario(Modes::Nine);
        let mut broker = build_broker(
            &testbed,
            &model,
            ClusteringAlgorithm::ForgyKMeans,
            11,
            0.15,
            DeliveryMode::DenseMode,
        );
        let events = sample_events(&model, 300, 7);
        let sweep = threshold_sweep(&mut broker, &events, &[0.0, 0.15, 0.5]);
        assert_eq!(sweep.len(), 3);
        for p in &sweep {
            assert!(p.improvement_percent.is_finite());
            assert!(p.improvement_percent <= 100.0 + 1e-9);
            assert!(p.avg_cost >= 0.0);
        }
        // At t=0 every group hit multicasts; at t=0.5 fewer do.
        assert!(sweep[0].multicast_fraction >= sweep[2].multicast_fraction);
    }

    #[test]
    fn events_are_reproducible() {
        let model = scenario(Modes::One);
        assert_eq!(sample_events(&model, 10, 3), sample_events(&model, 10, 3));
    }

    #[test]
    fn row_formats_fixed_width() {
        let s = row(&[1.0, 2.5]);
        assert!(s.contains("1.00") && s.contains("2.50"));
    }

    #[test]
    fn batch_quantiles_bracket_the_samples() {
        let mut lat: Vec<u64> = (1..=100).collect();
        let q = batch_quantiles(&mut lat);
        assert_eq!(q.batches, 100);
        assert!(q.p50_ns >= 45 && q.p50_ns <= 55, "p50 = {}", q.p50_ns);
        assert!(q.p99_ns >= 99, "p99 = {}", q.p99_ns);
        assert_eq!(batch_quantiles(&mut []).batches, 0);
    }

    #[test]
    fn measure_batched_pools_timed_batches_only() {
        let samples = 3;
        let batches_per_pass = 4;
        let (eps, lat) = measure_batched(100, samples, |rec| {
            for _ in 0..batches_per_pass {
                rec(std::time::Duration::from_micros(50));
            }
        });
        assert!(eps > 0.0 && eps.is_finite());
        // The warm-up pass's batches are not pooled.
        assert_eq!(lat.batches, samples * batches_per_pass);
        assert_eq!(lat.p50_ns, 50_000);
        assert_eq!(lat.p99_ns, 50_000);
    }

    #[test]
    fn event_count_rejects_zero_and_garbage() {
        // Serialized to avoid races on the process environment.
        let cases = [("0", 500), ("junk", 500), ("250", 250)];
        for (value, expected) in cases {
            std::env::set_var("PUBSUB_EVENTS", value);
            assert_eq!(event_count(500), expected, "PUBSUB_EVENTS={value}");
        }
        std::env::remove_var("PUBSUB_EVENTS");
        assert_eq!(event_count(500), 500);
    }
}
