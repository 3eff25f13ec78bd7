//! Live-churn broker benchmark: what does subscription churn cost the
//! publish path?
//!
//! Four phases on the paper's ~600-node testbed (1000 stock
//! subscriptions, nine-mode publications):
//!
//! 1. **static** — baseline `publish_batch` throughput on a fully
//!    compiled broker (no churn machinery active).
//! 2. **live-added** — the same subscription set, but with 10% of it
//!    subscribed live after the build: the matcher holds those 100 as
//!    singleton representatives appended in place, not interned or
//!    Hilbert-ordered until the next compile.
//! 3. **recompile** — latency of compiling those subscriptions into a
//!    fresh engine, and verification that the result is bit-identical
//!    to the static broker (same ids, decisions and costs).
//! 4. **churn** — sustained throughput while one subscribe/unsubscribe
//!    pair lands every `CHURN_PERIOD` events: in-place matcher edits and
//!    exact group maintenance under the compiled partition stay on. The
//!    drift-triggered full recompile is suppressed
//!    (`recluster_fraction(10.0)`) so the phase measures the incremental
//!    steady state; phase 3 prices the recompile separately.
//!
//! Because the churn phase must interleave churn ops with publishing, it
//! publishes in `CHURN_PERIOD`-sized batches; the acceptance comparison
//! therefore uses a static baseline measured at the *same* batch
//! granularity, so it isolates the cost of churn rather than the cost of
//! smaller parallel fan-outs. Both static numbers are reported.
//!
//! Prints a table and writes `BENCH_churn.json` in the current
//! directory. Event count is overridable with `PUBSUB_EVENTS`; pass
//! `--quick` for a smoke-sized run (used by CI).

use serde::Serialize;

use pubsub_bench::{
    batch_quantiles, build_testbed, event_count, measure, sample_events, scenario, BatchLatency,
    Seeds,
};
use pubsub_clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub_core::{Broker, ChurnCounters, DeliveryMode};
use pubsub_geom::Rect;
use pubsub_netsim::NodeId;
use pubsub_workload::{stock_space, Modes};

/// One subscribe/unsubscribe pair per this many published events in the
/// sustained-churn phase.
const CHURN_PERIOD: usize = 100;

#[derive(Debug, Serialize)]
struct Output {
    nodes: usize,
    edges: usize,
    subscriptions: usize,
    /// Subscriptions added live after the build (the JSON name predates
    /// in-place churn, when they sat in a separate overlay).
    overlay_subscriptions: usize,
    events: usize,
    samples: usize,
    /// Host core count and SIMD level, uniform across every
    /// `BENCH_*.json` header.
    host: pubsub_bench::HostInfo,
    churn_period: usize,
    static_events_per_sec: f64,
    /// Static broker publishing in `CHURN_PERIOD`-sized batches — the
    /// baseline the churn phase is gated against (same fan-out
    /// granularity, so the difference is churn alone).
    static_chunked_events_per_sec: f64,
    /// Throughput with the 10% added live and not yet recompiled.
    overlay_events_per_sec: f64,
    /// Publish slowdown from that pending 10%, percent.
    overlay_overhead_pct: f64,
    recompile_ms: f64,
    churn_events_per_sec: f64,
    /// Publish slowdown under sustained churn vs the chunked static
    /// baseline, percent.
    churn_overhead_pct: f64,
    /// Per-`CHURN_PERIOD`-batch latency quantiles of the chunked static
    /// baseline (comparable with `BENCH_matching.json`'s batched row).
    static_chunked_latency: BatchLatency,
    /// Per-batch latency quantiles under sustained churn (each batch's
    /// time includes its subscribe/unsubscribe pair).
    churn_latency: BatchLatency,
    /// The acceptance gate: sustained churn throughput within 20% of the
    /// static baseline at the same batch granularity.
    within_20_percent: bool,
    churn_counters: Churn,
}

/// The JSON copy of [`ChurnCounters`], field for field.
#[derive(Debug, Serialize)]
struct Churn {
    epoch: u64,
    subscribes: u64,
    unsubscribes: u64,
    recompiles: u64,
    overlay_len: usize,
    tombstone_len: usize,
}

impl From<ChurnCounters> for Churn {
    fn from(c: ChurnCounters) -> Self {
        Churn {
            epoch: c.epoch,
            subscribes: c.subscribes,
            unsubscribes: c.unsubscribes,
            recompiles: c.recompiles,
            overlay_len: c.overlay_len,
            tombstone_len: c.tombstone_len,
        }
    }
}

fn build(
    testbed: &pubsub_bench::Testbed,
    subs: Vec<(NodeId, Rect)>,
    recluster_fraction: f64,
) -> Broker {
    let model = scenario(Modes::Nine);
    Broker::builder(testbed.topology.clone(), stock_space())
        .subscriptions(subs)
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 11))
        .threshold(0.15)
        .delivery_mode(DeliveryMode::DenseMode)
        .density(move |r| model.mass(r))
        .recluster_fraction(recluster_fraction)
        .build()
        .expect("testbed configuration is valid")
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = event_count(if quick { 2_000 } else { 20_000 });
    let samples = if quick { 3 } else { 7 };

    let seeds = Seeds::default();
    let testbed = build_testbed(seeds);
    let events = sample_events(&scenario(Modes::Nine), n, seeds.publications);
    let total = testbed.subscriptions.len();
    let compiled = total * 9 / 10;

    // Phase 1: fully compiled baseline.
    let mut static_broker = build(&testbed, testbed.subscriptions.clone(), 0.5);
    let mut static_pass = || {
        static_broker.reset_report();
        static_broker
            .publish_batch(&events, None)
            .expect("events come from the model")
            .len()
    };
    let static_eps = measure(n, samples, &mut static_pass);

    // Phase 2: 90% compiled, 10% subscribed live into the matcher. A
    // high recluster fraction keeps them pending (no drift recompile)
    // for the whole measurement.
    let mut live_broker = build(&testbed, testbed.subscriptions[..compiled].to_vec(), 10.0);
    for (node, rect) in &testbed.subscriptions[compiled..] {
        live_broker
            .subscribe(*node, rect.clone())
            .expect("testbed subscription is valid");
    }
    assert_eq!(
        live_broker.metrics_snapshot().churn.overlay_len,
        total - compiled,
        "the live-added subscriptions must still be pending"
    );
    // Same subscription set, same insertion order: matching must agree
    // exactly (live-added ids continue the compiled numbering).
    for event in events.iter().take(200) {
        let live = live_broker
            .match_only(event)
            .expect("events come from the model");
        let fresh = static_broker
            .match_only(event)
            .expect("events come from the model");
        assert_eq!(live.0, fresh.0, "live-added match ids diverge");
        assert_eq!(live.1, fresh.1, "live-added match nodes diverge");
    }
    let mut live_pass = || {
        live_broker.reset_report();
        live_broker
            .publish_batch(&events, None)
            .expect("events come from the model")
            .len()
    };
    let overlay_eps = measure(n, samples, &mut live_pass);

    // Phase 3: compile the live-added subscriptions into a fresh engine
    // and verify the result is bit-identical to the never-churned broker.
    let start = std::time::Instant::now();
    live_broker.recompile().expect("recompile is valid");
    let recompile_ms = start.elapsed().as_secs_f64() * 1e3;
    let probe = &events[..events.len().min(500)];
    live_broker.reset_report();
    static_broker.reset_report();
    let a = live_broker
        .publish_batch(probe, None)
        .expect("events come from the model");
    let b = static_broker
        .publish_batch(probe, None)
        .expect("events come from the model");
    assert_eq!(a, b, "recompiled broker diverges from the static build");

    // Phase 4: sustained churn — one subscribe/unsubscribe pair every
    // CHURN_PERIOD events, interleaved with batched publishing. Each pair
    // replaces the previous transient subscription, so the live
    // population is stable and the measurement reaches a steady state.
    let mut churn_broker = build(&testbed, testbed.subscriptions.clone(), 10.0);
    let recycled: Vec<(NodeId, Rect)> = testbed.subscriptions[..64].to_vec();
    let mut pair = 0usize;
    let mut pending = None;
    let mut churn_lat_ns: Vec<u64> = Vec::new();
    let mut churn_pass = |lat: Option<&mut Vec<u64>>| {
        churn_broker.reset_report();
        let mut delivered = 0usize;
        let mut batch_lat = Vec::new();
        for chunk in events.chunks(CHURN_PERIOD) {
            let t0 = std::time::Instant::now();
            let (node, rect) = &recycled[pair % recycled.len()];
            let added = churn_broker
                .subscribe(*node, rect.clone())
                .expect("recycled subscription is valid");
            if let Some(old) = pending.replace(added) {
                churn_broker.unsubscribe(old).expect("handle is live");
            }
            pair += 1;
            delivered += churn_broker
                .publish_batch(chunk, None)
                .expect("events come from the model")
                .len();
            batch_lat.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        if let Some(lat) = lat {
            lat.extend(batch_lat);
        }
        delivered
    };
    // The baseline at the same batch granularity: the static broker
    // publishing the same CHURN_PERIOD-sized chunks, no churn ops. The
    // two passes are sampled back-to-back in pairs so background load
    // hits both alike, instead of skewing whichever phase it lands on.
    let mut static_chunked_lat_ns: Vec<u64> = Vec::new();
    let mut static_chunked_pass = |lat: Option<&mut Vec<u64>>| {
        static_broker.reset_report();
        let mut delivered = 0usize;
        let mut batch_lat = Vec::new();
        for chunk in events.chunks(CHURN_PERIOD) {
            let t0 = std::time::Instant::now();
            delivered += static_broker
                .publish_batch(chunk, None)
                .expect("events come from the model")
                .len();
            batch_lat.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        if let Some(lat) = lat {
            lat.extend(batch_lat);
        }
        delivered
    };
    std::hint::black_box(static_chunked_pass(None));
    std::hint::black_box(churn_pass(None));
    let mut best_static_chunked = f64::INFINITY;
    let mut best_churn = f64::INFINITY;
    for _ in 0..samples {
        let start = std::time::Instant::now();
        std::hint::black_box(static_chunked_pass(Some(&mut static_chunked_lat_ns)));
        best_static_chunked = best_static_chunked.min(start.elapsed().as_secs_f64());
        let start = std::time::Instant::now();
        std::hint::black_box(churn_pass(Some(&mut churn_lat_ns)));
        best_churn = best_churn.min(start.elapsed().as_secs_f64());
    }
    let static_chunked_eps = n as f64 / best_static_chunked;
    let churn_eps = n as f64 / best_churn;
    let static_chunked_latency = batch_quantiles(&mut static_chunked_lat_ns);
    let churn_latency = batch_quantiles(&mut churn_lat_ns);
    let churn_counters = churn_broker.metrics_snapshot().churn.into();

    let overlay_overhead_pct = 100.0 * (1.0 - overlay_eps / static_eps);
    let churn_overhead_pct = 100.0 * (1.0 - churn_eps / static_chunked_eps);
    let within_20_percent = churn_eps >= 0.8 * static_chunked_eps;

    println!(
        "live-churn broker throughput, {} nodes / {} edges, {} subscriptions, {} events\n\
         (live-added + recompiled engines verified identical to the static build):",
        testbed.topology.graph().node_count(),
        testbed.topology.graph().edge_count(),
        total,
        n,
    );
    println!("{:<28} {:>14} {:>10}", "phase", "events/s", "overhead");
    println!("{:<28} {:>14.0} {:>9.1}%", "static", static_eps, 0.0);
    println!(
        "{:<28} {:>14.0} {:>9.1}%",
        format!("static ({CHURN_PERIOD}-event batches)"),
        static_chunked_eps,
        100.0 * (1.0 - static_chunked_eps / static_eps)
    );
    println!(
        "{:<28} {:>14.0} {:>9.1}%",
        "live-added (10% pending)", overlay_eps, overlay_overhead_pct
    );
    println!(
        "{:<28} {:>14.0} {:>9.1}%",
        format!("churn (pair / {CHURN_PERIOD} events)"),
        churn_eps,
        churn_overhead_pct
    );
    println!(
        "per-batch latency ({CHURN_PERIOD} events): static p50 {:.2} ms / p99 {:.2} ms, \
         churn p50 {:.2} ms / p99 {:.2} ms",
        static_chunked_latency.p50_ns as f64 / 1e6,
        static_chunked_latency.p99_ns as f64 / 1e6,
        churn_latency.p50_ns as f64 / 1e6,
        churn_latency.p99_ns as f64 / 1e6,
    );
    println!("recompile latency: {recompile_ms:.1} ms (1000 subscriptions)");
    println!(
        "sustained churn within 20% of static at equal batch size: {}",
        if within_20_percent { "yes" } else { "NO" },
    );

    let out = Output {
        nodes: testbed.topology.graph().node_count(),
        edges: testbed.topology.graph().edge_count(),
        subscriptions: total,
        overlay_subscriptions: total - compiled,
        events: n,
        samples,
        host: pubsub_bench::host_info(),
        churn_period: CHURN_PERIOD,
        static_events_per_sec: static_eps,
        static_chunked_events_per_sec: static_chunked_eps,
        overlay_events_per_sec: overlay_eps,
        overlay_overhead_pct,
        recompile_ms,
        churn_events_per_sec: churn_eps,
        churn_overhead_pct,
        static_chunked_latency,
        churn_latency,
        within_20_percent,
        churn_counters,
    };
    let json = serde_json::to_string_pretty(&out).expect("serializable");
    if let Err(e) = std::fs::write("BENCH_churn.json", &json) {
        eprintln!("warning: could not write BENCH_churn.json: {e}");
    }
    assert!(
        within_20_percent,
        "sustained churn throughput fell more than 20% below the static baseline"
    );
}
