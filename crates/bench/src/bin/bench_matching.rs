//! Matching-throughput comparison on the paper's testbed: the paper's
//! node-based S-tree walk vs the broker's matcher (slab bitmaps plus the
//! exact check), single-threaded and pooled, vs the fused publish
//! pipeline.
//!
//! Prints a throughput table and writes the machine-readable result to
//! `BENCH_matching.json` in the current directory. Event count is
//! overridable with `PUBSUB_EVENTS`, worker count with `PUBSUB_THREADS`.
//!
//! With `--quick` the run doubles as a regression gate: when at least
//! two workers are requested *and* the host actually has at least two
//! cores, the pooled arena pipeline must beat the same matcher on one
//! thread — or the process exits non-zero. The covering-layer scale rows
//! (100k and 1M subscriptions under `--quick`) gate the count-level
//! publish path: the 1M row must hold at least a third of the 100k row's
//! events/s. Gates whose precondition the host cannot meet are skipped
//! loudly.

use std::sync::Arc;

use serde::Serialize;

use pubsub_bench::{
    build_broker, build_testbed, event_count, heap, measure, measure_batched, sample_events,
    scenario, sub_counts, BatchLatency, Seeds,
};
use pubsub_clustering::ClusteringAlgorithm;
use pubsub_core::{
    Broker, CoveringConfig, DeliveryMode, MatchArena, MatchScratch, Matcher, SubscriptionStream,
};
use pubsub_geom::{Interval, Point};
use pubsub_netsim::NodeId;
use pubsub_parallel::{effective_threads, PipelineScratch, WorkerPool};
use pubsub_stree::{Entry, EntryId, STree, STreeConfig, SpatialIndex};
use pubsub_workload::{stock_space, Modes, ScaleConfig, ScaleWorkload};

/// Live-byte accounting for the scale rows' `bytes_per_subscription`.
#[global_allocator]
static ALLOCATOR: heap::MeterAlloc = heap::MeterAlloc;

#[derive(Debug, Serialize)]
struct Row {
    name: &'static str,
    events_per_sec: f64,
    speedup_vs_scalar: f64,
}

/// One covering-layer scale point: N subscriptions compiled through the
/// covering layer into the matcher's slab bitmaps.
#[derive(Debug, Serialize)]
struct ScaleRow {
    subscriptions: usize,
    /// Distinct rectangles after interning.
    uniques: usize,
    /// Representatives actually compiled into the index.
    representatives: usize,
    /// Concrete subscriptions per compiled index entry.
    aggregation_ratio: f64,
    /// Live heap bytes held by the covered matcher, per subscription
    /// (owners + covering table + slab bitmaps).
    bytes_per_subscription: f64,
    /// Wall-clock seconds of the streaming covered compile.
    build_seconds: f64,
    /// Single-thread `publish_batch_stats` throughput of a covered
    /// broker: the count-level path, which moves runs and node sets and
    /// never writes a subscription id.
    events_per_sec: f64,
    /// Single-thread covered `match_event_into` throughput — the same
    /// match with every matched id written out and sorted.
    expand_events_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct Output {
    subscriptions: usize,
    events: usize,
    threads: usize,
    samples: usize,
    /// Host core count and SIMD level, uniform across every
    /// `BENCH_*.json` header.
    host: pubsub_bench::HostInfo,
    /// Pooled arena matching vs the same matcher on one thread
    /// (`matcher_scalar`) — the number the `--quick` gate checks on
    /// multi-core hosts.
    parallel_speedup_vs_matcher: f64,
    /// Events per batch of the `pipeline_batched` row.
    batch_events: usize,
    /// The fused publish pipeline driven in `batch_events`-sized batches
    /// (the granularity `BENCH_churn.json` publishes at).
    batched_events_per_sec: f64,
    /// Per-batch latency quantiles of the batched pipeline row —
    /// directly comparable with `BENCH_churn.json`'s columns.
    batch_latency: BatchLatency,
    /// The largest scale row's per-subscription footprint.
    bytes_per_subscription: f64,
    /// The largest scale row's aggregation ratio.
    aggregation_ratio: f64,
    rows: Vec<Row>,
    /// Covering-layer scale sweep (100k/1M/10M by default; `PUBSUB_SUBS`
    /// restricts to one count).
    scale: Vec<ScaleRow>,
}

/// [`ScaleWorkload`] as a replayable subscription stream for the covered
/// compile; a subscription's rectangle id is its pool index.
struct PoolStream<'a>(&'a ScaleWorkload);

impl SubscriptionStream for PoolStream<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn rect_count(&self) -> usize {
        self.0.pool_size()
    }

    fn sides(&self, rect: u32) -> &[Interval] {
        self.0.pool_rect(rect as usize).sides()
    }

    fn for_each(&self, f: &mut dyn FnMut(NodeId, u32)) {
        self.0.for_each_pick(f);
    }
}

/// Per-worker matching state for the pool rows: one scratch and one CSR
/// arena, constructed once and reused across samples.
struct MatchState {
    scratch: MatchScratch,
    arena: MatchArena,
}

impl PipelineScratch for MatchState {
    fn begin_batch(&mut self) {
        self.arena.begin();
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = event_count(if quick { 20_000 } else { 50_000 });
    let samples = if quick { 3 } else { 7 };

    let seeds = Seeds::default();
    let testbed = build_testbed(seeds);
    let space = stock_space();
    let matcher = Matcher::build(&space, &testbed.subscriptions, CoveringConfig::default())
        .expect("testbed is valid");
    // The paper's S-tree, built here over the clamped testbed rectangles;
    // the matcher does not query it.
    let entries: Vec<Entry> = testbed
        .subscriptions
        .iter()
        .enumerate()
        .map(|(i, (_, r))| Entry::new(space.clamp(r), EntryId(i as u32)))
        .collect();
    let stree = STree::build(entries, STreeConfig::default()).expect("testbed is valid");
    let model = scenario(Modes::Nine);
    let events: Vec<Point> = sample_events(&model, n, seeds.publications);

    let threads = requested_threads();
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // Scalar baseline: the node-based S-tree walk.
    let scalar = measure(n, samples, || {
        let mut out = Vec::new();
        let mut total = 0usize;
        for e in &events {
            out.clear();
            stree.query_point_into(e, &mut out);
            total += out.len();
        }
        total
    });

    // The full single-thread matcher (slab filter, exact check, run
    // resolution and dedup into nodes).
    let matcher_scalar = measure(n, samples, || {
        let mut scratch = MatchScratch::new();
        let mut subs = Vec::new();
        let mut nodes = Vec::new();
        let mut total = 0usize;
        for e in &events {
            matcher.match_event_into(e, &mut scratch, &mut subs, &mut nodes);
            total += nodes.len();
        }
        total
    });

    // The persistent pool writing straight into per-worker CSR arenas:
    // the matching stage of the fused publish pipeline, isolated.
    let pool = Arc::new(WorkerPool::new(threads.max(1)));
    let mut states: Vec<MatchState> = (0..pool.threads())
        .map(|_| MatchState {
            scratch: MatchScratch::new(),
            arena: MatchArena::new(),
        })
        .collect();
    let pool_batch = measure(n, samples, || {
        let used = pool.pipeline(threads, &mut states, events.len(), |_w, st, ranges| {
            matcher.match_events_into_arena(&events, ranges, &mut st.scratch, &mut st.arena);
        });
        states[..used]
            .iter()
            .map(|st| st.arena.total_nodes())
            .sum::<usize>()
    });

    // End to end: the fused match + cost + decide pipeline inside the
    // broker, stats-only (no outcome materialization).
    let mut broker = build_broker(
        &testbed,
        &model,
        ClusteringAlgorithm::ForgyKMeans,
        11,
        0.5,
        DeliveryMode::DenseMode,
    );
    let pipeline_publish = measure(n, samples, || {
        broker.reset_report();
        broker
            .publish_batch_stats(&events, Some(threads))
            .expect("events come from the model")
            .messages
    });

    // The same pipeline at BENCH_churn's batch granularity, with each
    // batch's wall-clock recorded — the per-batch p50/p99 columns shared
    // across the closed-loop benches. Run at the requested worker count
    // and inline: a batch of three blocks and a tail is a small job for
    // the pool, where a hand-off that costs more than it saves shows
    // first.
    const BATCH_EVENTS: usize = 100;
    let mut batched = |workers: usize| {
        measure_batched(n, samples, |record| {
            broker.reset_report();
            let mut messages = 0u64;
            for chunk in events.chunks(BATCH_EVENTS) {
                let t0 = std::time::Instant::now();
                messages += broker
                    .publish_batch_stats(chunk, Some(workers))
                    .expect("events come from the model")
                    .messages;
                record(t0.elapsed());
            }
            messages
        })
    };
    let (batched_eps, batch_latency) = batched(threads);
    let (batched_inline_eps, _) = batched(1);

    let rows = vec![
        Row {
            name: "stree_walk",
            events_per_sec: scalar,
            speedup_vs_scalar: 1.0,
        },
        Row {
            name: "matcher_scalar",
            events_per_sec: matcher_scalar,
            speedup_vs_scalar: matcher_scalar / scalar,
        },
        Row {
            name: "pool_batch",
            events_per_sec: pool_batch,
            speedup_vs_scalar: pool_batch / scalar,
        },
        Row {
            name: "pipeline_publish",
            events_per_sec: pipeline_publish,
            speedup_vs_scalar: pipeline_publish / scalar,
        },
        Row {
            name: "pipeline_batched",
            events_per_sec: batched_eps,
            speedup_vs_scalar: batched_eps / scalar,
        },
        Row {
            name: "pipeline_batched_inline",
            events_per_sec: batched_inline_eps,
            speedup_vs_scalar: batched_inline_eps / scalar,
        },
    ];
    let parallel_speedup_vs_matcher = pool_batch / matcher_scalar;

    // Covering-layer scale sweep: generate a Zipf-skewed duplicate-heavy
    // population, stream it through the covered compile (no O(N)
    // rectangle intermediate), and measure the matcher's resident
    // footprint as the live-heap delta across the build.
    let scale_defaults: &[usize] = if quick {
        &[100_000, 1_000_000]
    } else {
        &[100_000, 1_000_000, 10_000_000]
    };
    let scale_samples = if quick { 2 } else { 3 };
    const SCALE_BATCH_EVENTS: usize = 64;
    let count_events: Vec<Point> = sample_events(&model, 2_000, seeds.publications);
    let mut scale = Vec::new();
    for count in sub_counts(scale_defaults) {
        let population = ScaleConfig::stock(count)
            .generate(&testbed.topology, seeds.subscriptions, None)
            .expect("scale preset is valid");
        let before = heap::live_bytes();
        let t0 = std::time::Instant::now();
        let covered = Matcher::build_covered(
            &stock_space(),
            &PoolStream(&population),
            &CoveringConfig::default(),
        )
        .expect("population is valid");
        let build_seconds = t0.elapsed().as_secs_f64();
        let bytes = heap::live_bytes().saturating_sub(before);
        let stats = *covered.covering_stats();

        // Fewer events at the bigger counts: writing the ids out costs
        // time proportional to the population.
        let expand_n = (200_000_000 / count).clamp(20, 2_000);
        let expand_events_per_sec = measure(expand_n, scale_samples, || {
            let mut scratch = MatchScratch::new();
            let mut subs = Vec::new();
            let mut nodes = Vec::new();
            let mut total = 0usize;
            for e in &count_events[..expand_n] {
                covered.match_event_into(e, &mut scratch, &mut subs, &mut nodes);
                total += subs.len();
            }
            total
        });
        drop(covered);

        // The count-level path end to end: match, cost, decide and fold
        // on a covered broker, one worker, in 64-event batches — a size
        // pinned apart from the pool's BLOCK so these rows stay
        // comparable across block-size changes.
        let density = model.clone();
        let mut covered_broker = Broker::builder(testbed.topology.clone(), stock_space())
            .subscriptions(population.to_vec())
            .covering(CoveringConfig::default())
            .density(move |r| density.mass(r))
            .build()
            .expect("population is valid");
        drop(population);
        let events_per_sec = measure(count_events.len(), scale_samples, || {
            for chunk in count_events.chunks(SCALE_BATCH_EVENTS) {
                covered_broker
                    .publish_batch_stats(chunk, Some(1))
                    .expect("events come from the model");
            }
            covered_broker.report().messages
        });
        scale.push(ScaleRow {
            subscriptions: count,
            uniques: stats.uniques,
            representatives: stats.representatives,
            aggregation_ratio: stats.aggregation_ratio(),
            bytes_per_subscription: bytes as f64 / count as f64,
            build_seconds,
            events_per_sec,
            expand_events_per_sec,
        });
    }
    let last = scale.last().expect("at least one scale count");
    let (bytes_per_subscription, aggregation_ratio) =
        (last.bytes_per_subscription, last.aggregation_ratio);

    println!(
        "matching throughput, k = {} subscriptions, {} events, {} threads ({} cores):",
        testbed.subscriptions.len(),
        n,
        threads,
        available
    );
    println!("{:<24} {:>14} {:>10}", "engine", "events/s", "speedup");
    for r in &rows {
        println!(
            "{:<24} {:>14.0} {:>9.2}x",
            r.name, r.events_per_sec, r.speedup_vs_scalar
        );
    }
    println!("pool_batch vs matcher_scalar: {parallel_speedup_vs_matcher:.2}x");
    println!(
        "pipeline per-batch latency ({BATCH_EVENTS} events): p50 {:.2} ms / p99 {:.2} ms \
         over {} batches",
        batch_latency.p50_ns as f64 / 1e6,
        batch_latency.p99_ns as f64 / 1e6,
        batch_latency.batches
    );

    println!("\ncovering-layer scale (streaming covered compile, slab bitmaps):");
    println!(
        "{:>12} {:>8} {:>8} {:>8} {:>10} {:>9} {:>12} {:>12}",
        "subs", "uniques", "reps", "agg", "bytes/sub", "build_s", "events/s", "expand ev/s"
    );
    for r in &scale {
        println!(
            "{:>12} {:>8} {:>8} {:>7.1}x {:>10.1} {:>9.2} {:>12.0} {:>12.0}",
            r.subscriptions,
            r.uniques,
            r.representatives,
            r.aggregation_ratio,
            r.bytes_per_subscription,
            r.build_seconds,
            r.events_per_sec,
            r.expand_events_per_sec
        );
    }

    let out = Output {
        subscriptions: testbed.subscriptions.len(),
        events: n,
        threads,
        samples,
        host: pubsub_bench::host_info(),
        parallel_speedup_vs_matcher,
        batch_events: BATCH_EVENTS,
        batched_events_per_sec: batched_eps,
        batch_latency,
        bytes_per_subscription,
        aggregation_ratio,
        rows,
        scale,
    };
    let json = serde_json::to_string_pretty(&out).expect("serializable");
    if let Err(e) = std::fs::write("BENCH_matching.json", &json) {
        eprintln!("warning: could not write BENCH_matching.json: {e}");
    }

    if quick {
        // The scale gate: the covering layer must actually aggregate the
        // duplicate-heavy population, and the covered matcher's resident
        // footprint must stay far below one flat f64 entry per
        // subscription (the Zipf pool gives > 20x aggregation, so these
        // bounds are loose).
        for r in &out.scale {
            if r.aggregation_ratio < 2.0 || r.bytes_per_subscription > 100.0 {
                eprintln!(
                    "FAIL: scale row at {} subs: aggregation {:.1}x, {:.1} bytes/sub \
                     (want >= 2.0x and <= 100.0)",
                    r.subscriptions, r.aggregation_ratio, r.bytes_per_subscription
                );
                std::process::exit(1);
            }
        }
        println!(
            "scale gate passed: {:.1}x aggregation, {:.1} bytes/sub at {} subs",
            out.aggregation_ratio,
            out.bytes_per_subscription,
            out.scale.last().expect("non-empty").subscriptions
        );
        // The count-level gate (ROADMAP item 3): ten times the
        // subscriptions may cost at most a factor three in events/s.
        let row = |subs: usize| out.scale.iter().find(|r| r.subscriptions == subs);
        match (row(100_000), row(1_000_000)) {
            (Some(small), Some(large)) => {
                let kept = large.events_per_sec / small.events_per_sec;
                if kept < 1.0 / 3.0 {
                    eprintln!(
                        "FAIL: count-level publish keeps {kept:.2} of its 100k-sub \
                         throughput at 1M subs ({:.0} -> {:.0} events/s, want >= 0.33)",
                        small.events_per_sec, large.events_per_sec
                    );
                    std::process::exit(1);
                }
                println!(
                    "count-level gate passed: {:.0} events/s at 1M subs, {kept:.2} of the \
                     100k row",
                    large.events_per_sec
                );
            }
            _ => println!("count-level gate skipped: needs the 100k and the 1M scale row"),
        }
        if threads >= 2 && available >= 2 {
            if parallel_speedup_vs_matcher <= 1.0 {
                eprintln!(
                    "FAIL: pooled matching at {threads} threads is not faster than the \
                     same matcher on one thread ({parallel_speedup_vs_matcher:.2}x <= 1.00x)"
                );
                std::process::exit(1);
            }
            println!(
                "pooled gate passed: {parallel_speedup_vs_matcher:.2}x > 1.00x over \
                 matcher_scalar at {threads} threads"
            );
            // Pooled never loses: the dispatching thread works instead
            // of waiting, so handing a batch to the pool may cost the
            // wake-ups and no more.
            let kept = batched_eps / batched_inline_eps;
            if kept < 0.9 {
                eprintln!(
                    "FAIL: {BATCH_EVENTS}-event batches at {threads} threads reach {kept:.2} of \
                     the inline path ({batched_eps:.0} vs {batched_inline_eps:.0} events/s, \
                     want >= 0.90)"
                );
                std::process::exit(1);
            }
            println!(
                "pooled-never-loses gate passed: {kept:.2} of inline at {threads} threads \
                 ({batched_eps:.0} vs {batched_inline_eps:.0} events/s)"
            );
        } else {
            println!(
                "pooled gates skipped: need >= 2 threads on >= 2 cores \
                 (threads = {threads}, cores = {available})"
            );
        }
    }
}

/// Worker count for the parallel rows: `PUBSUB_THREADS` when set to a
/// positive integer, otherwise the host's available parallelism.
fn requested_threads() -> usize {
    std::env::var("PUBSUB_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| effective_threads(None))
}
