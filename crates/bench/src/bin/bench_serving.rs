//! Open-loop serving benchmark: publish→deliver latency percentiles of
//! the staged broker under bursty load from ~10⁵ simulated clients.
//!
//! Unlike the closed-loop benches (which publish as fast as the broker
//! drains and therefore can never observe queueing), this run fixes the
//! arrival schedule in advance with the workload crate's on/off
//! modulated Poisson generator and measures every event's latency from
//! its *scheduled* arrival instant — the standard open-loop discipline
//! that makes coordinated omission impossible.
//!
//! The run:
//!
//! 1. builds the paper's testbed broker (1000 stock subscriptions,
//!    nine-mode publications);
//! 2. calibrates a closed-loop throughput figure *through the staged
//!    server itself* and offers ~50% of it open-loop, so the system is
//!    loaded but stable and the tail reflects burstiness, not unbounded
//!    overload;
//! 3. generates a bursty arrival schedule across the simulated clients
//!    (default 100 000 for 10 s) and replays it against the staged
//!    server's in-process [`pubsub_server::IngestHandle`] — the TCP
//!    front is bypassed, as a single host cannot hold 10⁵ real sockets;
//! 4. reports p50/p99/p999 publish→deliver latency, sustained
//!    events/sec, admission-control counts and per-stage latency
//!    medians (including the queue-wait / batcher-residency split of
//!    the ingest stage), writing `BENCH_serving.json` in the current
//!    directory with the uniform host header (core count, SIMD level).
//!
//! With `--quick` the run is the CI gate instead: one short calibrate +
//! replay, which must deliver a finite p99, a positive sustained rate
//! and zero lost acks (delivered + failed == accepted), or the process
//! exits non-zero.

use std::time::{Duration, Instant};

use serde::Serialize;

use pubsub_bench::{
    build_broker, build_testbed, host_info, sample_events, scenario, HostInfo, Seeds, Testbed,
};
use pubsub_clustering::ClusteringAlgorithm;
use pubsub_core::DeliveryMode;
use pubsub_geom::Point;
use pubsub_server::{LatencySink, RejectReason, ServingConfig, StagedServer};
use pubsub_workload::{Modes, OpenLoopConfig, PublicationModel};

#[derive(Debug, Serialize)]
struct Output {
    /// Host core count and SIMD level, uniform across every
    /// `BENCH_*.json` header.
    host: HostInfo,
    clients: usize,
    duration_s: f64,
    burst_ratio: f64,
    /// Closed-loop staged-server throughput the offered rate was
    /// calibrated against.
    closed_loop_events_per_sec: f64,
    /// The open-loop offered rate (~50% of closed-loop, clamped).
    offered_events_per_sec: f64,
    /// Scheduled arrivals actually submitted.
    offered: usize,
    accepted: u64,
    rejected: u64,
    delivered: u64,
    failed: u64,
    /// Delivered events over the whole wall-clock of the replay
    /// (including the shutdown drain).
    sustained_events_per_sec: f64,
    /// Publish→deliver latency percentiles, from the scheduled arrival
    /// instant to the sink record.
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    /// Per-stage latency medians from the server's stage histograms.
    /// Ingest is the submission→fold-dequeue total; the next two split
    /// it into time in the open batch (submission → cut) and time queued
    /// as a cut batch.
    stage_ingest_p50_ns: f64,
    stage_batcher_p50_ns: f64,
    stage_queue_wait_p50_ns: f64,
    stage_pipeline_p50_ns: f64,
    stage_egress_p50_ns: f64,
    ingest_queue_max_depth: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One full calibrate-then-replay cycle.
fn run_cell(
    testbed: &Testbed,
    model: &PublicationModel,
    pool: &[Point],
    clients: usize,
    duration_s: f64,
    probe_window: Duration,
) -> Output {
    let seeds = Seeds::default();

    // Roomy queue, 256-event cap: every client's events join one open
    // batch, which the fold takes whole whenever it is free.
    let config = ServingConfig {
        ingest_capacity: 256,
        max_batch: 256,
    };

    // Calibrate: drive the staged server itself closed-loop — submit as
    // fast as admission control accepts, retrying on backpressure — and
    // take the delivered rate as staged capacity, then offer half of it
    // open-loop. Calibrating against the raw broker's `publish_batch` instead
    // overestimates by ~2x: the staged path also pays batch cuts,
    // queue handoffs, outcome materialization and per-record egress
    // stamping, and would sit in permanent saturation. The clamps keep
    // the run meaningful on both weak CI runners and large hosts (the
    // single replay thread tops out well above the upper bound).
    let broker = build_broker(
        testbed,
        model,
        ClusteringAlgorithm::ForgyKMeans,
        11,
        0.15,
        DeliveryMode::DenseMode,
    );
    let probe_sink = LatencySink::new();
    let probe = StagedServer::start(broker, config, Box::new(probe_sink.clone()));
    let probe_handle = probe.handle();
    let t0 = Instant::now();
    let mut submitted = 0u64;
    while t0.elapsed() < probe_window {
        let event = pool[submitted as usize % pool.len()].clone();
        match probe_handle.submit_now((submitted % clients as u64) as u32, submitted, event) {
            Ok(()) => submitted += 1,
            Err(RejectReason::Shed { .. }) => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(r) => unreachable!("probe submit rejected: {r}"),
        }
    }
    let (_probe_broker, probe_stats) = probe.stop();
    let closed_eps = probe_stats.delivered as f64 / t0.elapsed().as_secs_f64();
    let offered_rate = (0.5 * closed_eps).clamp(5_000.0, 400_000.0);

    // A fresh broker for the measured run, so its counters and cost
    // report don't inherit the probe's (the broker build is
    // deterministic).
    let broker = build_broker(
        testbed,
        model,
        ClusteringAlgorithm::ForgyKMeans,
        11,
        0.15,
        DeliveryMode::DenseMode,
    );

    // At 50% mean load, a 2x burst ratio puts the burst-state rate right
    // at staged capacity: the system is stable in the long run and the
    // p99/p999 show what the bursts cost. (The 4x preset would run
    // bursts at 2x capacity and queue even the median event.)
    let schedule = OpenLoopConfig {
        burst_ratio: 2.0,
        ..OpenLoopConfig::bursty(clients, offered_rate, duration_s)
    };
    let arrivals = schedule
        .generate(seeds.publications)
        .expect("preset schedule is valid");

    println!(
        "open-loop serving: {clients} clients, {duration_s:.0} s, \
         {offered_rate:.0} events/s offered ({:.0}% of staged closed-loop {closed_eps:.0}), \
         burst ratio {:.0}x",
        100.0 * offered_rate / closed_eps,
        schedule.burst_ratio,
    );

    let sink = LatencySink::new();
    let server = StagedServer::start(broker, config, Box::new(sink.clone()));
    let handle = server.handle();

    // Replay the schedule. A 20 ms lead keeps the first arrivals from
    // being late before the stage threads are warm; past-due arrivals
    // submit immediately (their latency then includes the lag — the
    // open-loop point).
    let start = Instant::now() + Duration::from_millis(20);
    let mut rejected_closed = 0u64;
    for (i, a) in arrivals.iter().enumerate() {
        let scheduled = start + Duration::from_nanos(a.at_ns);
        loop {
            let now = Instant::now();
            if now >= scheduled {
                break;
            }
            let gap = scheduled - now;
            if gap > Duration::from_micros(300) {
                std::thread::sleep(gap - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        let event = pool[i % pool.len()].clone();
        match handle.submit(a.client, i as u64, event, scheduled) {
            Ok(()) | Err(RejectReason::Shed { .. }) => {}
            Err(RejectReason::Closed) => rejected_closed += 1,
            Err(RejectReason::Malformed) => unreachable!("pool events match the space"),
        }
    }
    let (_, stats) = server.stop();
    let elapsed = (Instant::now() - start).as_secs_f64();
    assert_eq!(rejected_closed, 0, "server closed mid-replay");

    let mut latencies = sink.take();
    latencies.sort_unstable();

    let delivered = stats.delivered;
    let sustained = delivered as f64 / elapsed;
    let (p50, p99, p999) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        percentile(&latencies, 0.999),
    );

    println!(
        "offered {} / accepted {} / rejected {} / delivered {} / failed {}",
        arrivals.len(),
        stats.accepted,
        stats.rejected,
        delivered,
        stats.failed
    );
    println!("sustained: {sustained:.0} events/s over {elapsed:.1} s wall-clock");
    println!(
        "publish→deliver latency: p50 {:.3} ms, p99 {:.3} ms, p999 {:.3} ms",
        p50 as f64 / 1e6,
        p99 as f64 / 1e6,
        p999 as f64 / 1e6
    );
    println!(
        "stage medians: ingest {:.3} ms (batcher {:.3} + queue-wait {:.3}), \
         pipeline {:.3} ms, egress {:.3} ms; queue max depth {}",
        stats.stage_ingest.quantile_ns(0.5) / 1e6,
        stats.stage_batcher.quantile_ns(0.5) / 1e6,
        stats.stage_queue_wait.quantile_ns(0.5) / 1e6,
        stats.stage_pipeline.quantile_ns(0.5) / 1e6,
        stats.stage_egress.quantile_ns(0.5) / 1e6,
        stats.ingest_queue_max_depth,
    );

    // Every accepted event must have exactly one fate at the sink.
    assert_eq!(
        delivered + stats.failed,
        stats.accepted,
        "accepted events must all reach the sink"
    );

    Output {
        host: host_info(),
        clients,
        duration_s,
        burst_ratio: schedule.burst_ratio,
        closed_loop_events_per_sec: closed_eps,
        offered_events_per_sec: offered_rate,
        offered: arrivals.len(),
        accepted: stats.accepted,
        rejected: stats.rejected,
        delivered,
        failed: stats.failed,
        sustained_events_per_sec: sustained,
        p50_ns: p50,
        p99_ns: p99,
        p999_ns: p999,
        p50_ms: p50 as f64 / 1e6,
        p99_ms: p99 as f64 / 1e6,
        p999_ms: p999 as f64 / 1e6,
        stage_ingest_p50_ns: stats.stage_ingest.quantile_ns(0.5),
        stage_batcher_p50_ns: stats.stage_batcher.quantile_ns(0.5),
        stage_queue_wait_p50_ns: stats.stage_queue_wait.quantile_ns(0.5),
        stage_pipeline_p50_ns: stats.stage_pipeline.quantile_ns(0.5),
        stage_egress_p50_ns: stats.stage_egress.quantile_ns(0.5),
        ingest_queue_max_depth: stats.ingest_queue_max_depth,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let seeds = Seeds::default();
    let testbed = build_testbed(seeds);
    let model = scenario(Modes::Nine);
    let pool = sample_events(&model, 4096, seeds.publications.wrapping_add(1));

    if quick {
        // The CI gate: finite tail, positive rate, and the exact ack
        // partition (no lost records).
        let out = run_cell(
            &testbed,
            &model,
            &pool,
            10_000,
            2.5,
            Duration::from_millis(500),
        );
        let p99_ok = out.delivered > 0 && out.p99_ns > 0;
        let eps_ok = out.sustained_events_per_sec > 0.0 && out.sustained_events_per_sec.is_finite();
        let acks_ok = out.delivered + out.failed == out.accepted;
        if !p99_ok || !eps_ok || !acks_ok {
            eprintln!(
                "FAIL: serving gate: p99 = {} ns over {} deliveries, sustained = {:.0} \
                 events/s, accepted {} vs delivered {} + failed {}",
                out.p99_ns,
                out.delivered,
                out.sustained_events_per_sec,
                out.accepted,
                out.delivered,
                out.failed
            );
            std::process::exit(1);
        }
        println!(
            "serving gate passed: finite p99 ({:.3} ms), positive sustained rate, zero lost acks",
            out.p99_ms
        );
        return;
    }

    let out = run_cell(
        &testbed,
        &model,
        &pool,
        100_000,
        10.0,
        Duration::from_millis(2_500),
    );
    let json = serde_json::to_string_pretty(&out).expect("serializable");
    if let Err(e) = std::fs::write("BENCH_serving.json", &json) {
        eprintln!("warning: could not write BENCH_serving.json: {e}");
    }
}
