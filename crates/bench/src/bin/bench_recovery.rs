//! Crash-recovery benchmark: what does durability cost, and what does a
//! stage crash do to tail latency?
//!
//! Three experiments, one JSON:
//!
//! 1. **Recovery time vs journal length** — journaled brokers accumulate
//!    N subscribe operations with snapshots disabled (worst case: the
//!    whole WAL replays), then `BrokerBuilder::recover` is timed from a
//!    cold directory. Reported per cell: WAL bytes, replayed ops, the
//!    broker's internal `recovery_ms`, and the end-to-end wall time.
//! 2. **Tail latency through a crash-restart window** — an open-loop
//!    paced stream runs through a [`StagedServer`] twice: once
//!    clean, once with a scheduled fold kill (broker owner dies, is
//!    rebuilt from the journal, salvaged work replays). Publish→deliver
//!    p50/p99/p999 for both runs quantify the crash window; every
//!    accepted event must still be delivered exactly once.
//! 3. **Shed rate at 2× overload** — the closed-loop capacity of the
//!    staged pipeline is probed, then events are offered open-loop at
//!    twice that rate; the explicit `Shed` rejections (with their
//!    retry-after hints) are the load-shedding tier doing its job.
//!
//! Prints a table and writes `results/BENCH_recovery.json`. Pass
//! `--quick` for a smoke-sized run (used by CI).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Serialize;

use pubsub_bench::{host_info, write_json, HostInfo};
use pubsub_clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub_core::{Broker, BrokerBuilder, JournalConfig};
use pubsub_geom::{Point, Rect, Space};
use pubsub_netsim::TransitStubConfig;
use pubsub_server::{
    CrashKind, CrashPlan, LatencySink, RejectReason, ServingConfig, StagedServer, SuperviseOptions,
};

const TOPO_SEED: u64 = 23;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pubsub-bench-rec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn space() -> Space {
    Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap()
}

fn builder() -> BrokerBuilder {
    let topo = TransitStubConfig::tiny().generate(TOPO_SEED).unwrap();
    Broker::builder(topo, space())
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2).with_max_cells(30))
        .grid_cells(5)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn seeded_rect(state: &mut u64) -> Rect {
    let f = |state: &mut u64| splitmix64(state) as f64 / u64::MAX as f64;
    let (x, y) = (8.0 * f(state), 8.0 * f(state));
    let (w, h) = (0.5 + 7.0 * f(state), 0.5 + 7.0 * f(state));
    Rect::from_corners(&[x, y], &[(x + w).min(10.0), (y + h).min(10.0)]).unwrap()
}

#[derive(Debug, Serialize)]
struct RecoveryCell {
    journal_ops: usize,
    wal_bytes: u64,
    replayed_ops: u64,
    truncated_records: u64,
    /// The broker's own recovery stopwatch (journal load + registry
    /// restore + engine compile).
    recovery_ms_internal: u64,
    /// End-to-end `BrokerBuilder::recover` wall time.
    recover_wall_ms: f64,
    live_subscriptions: usize,
}

/// Experiment 1: recovery time as a function of replayed journal length.
fn recovery_vs_journal_length(lengths: &[usize]) -> Vec<RecoveryCell> {
    let mut cells = Vec::new();
    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>10}",
        "journal ops", "wal bytes", "replayed", "internal ms", "wall ms"
    );
    for &n in lengths {
        let dir = scratch_dir(&format!("len-{n}"));
        // Snapshots disabled: recovery must replay every op — the
        // worst-case journal of this length. Appends are unsynced: this
        // experiment times recovery, not the fsync-per-op setup.
        let config = JournalConfig::new(&dir)
            .snapshot_every(u64::MAX)
            .sync_writes(false);
        let mut broker = builder().journal(config).build().unwrap();
        let nodes = TransitStubConfig::tiny()
            .generate(TOPO_SEED)
            .unwrap()
            .stub_nodes()
            .to_vec();
        let mut rng = 0x5eed ^ n as u64;
        for i in 0..n {
            let node = nodes[(splitmix64(&mut rng) as usize) % nodes.len()];
            broker.subscribe(node, seeded_rect(&mut rng)).unwrap();
            // Retire a third of them so recovery also replays dead slots.
            if i % 3 == 0 {
                let h = broker.registry().live().next().unwrap().0;
                broker.unsubscribe(h).unwrap();
            }
        }
        let wal_bytes = broker.journal().unwrap().wal_len();
        drop(broker);

        let t0 = Instant::now();
        let recovered = builder()
            .journal(JournalConfig::new(&dir))
            .recover()
            .unwrap();
        let recover_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let counters = recovered.metrics_snapshot().recovery;
        let live = recovered.registry().live().count();
        println!(
            "{:<12} {:>10} {:>10} {:>12} {:>10.2}",
            n, wal_bytes, counters.replayed_ops, counters.recovery_ms, recover_wall_ms
        );
        cells.push(RecoveryCell {
            journal_ops: n,
            wal_bytes,
            replayed_ops: counters.replayed_ops,
            truncated_records: counters.truncated_records,
            recovery_ms_internal: counters.recovery_ms,
            recover_wall_ms,
            live_subscriptions: live,
        });
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
    cells
}

/// A journaled broker (one wide-open subscription) plus its recover
/// closure, for the supervised runs.
fn journaled_serving_broker(dir: &PathBuf) -> (Broker, SuperviseOptions) {
    let mut broker = builder().journal(JournalConfig::new(dir)).build().unwrap();
    let node = TransitStubConfig::tiny()
        .generate(TOPO_SEED)
        .unwrap()
        .stub_nodes()[0];
    broker
        .subscribe(
            node,
            Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap(),
        )
        .unwrap();
    let recover_dir = dir.clone();
    let options = SuperviseOptions {
        recover: Some(Box::new(move || {
            builder()
                .journal(JournalConfig::new(&recover_dir))
                .recover()
        })),
        chaos: CrashPlan::new(),
    };
    (broker, options)
}

fn serving_config() -> ServingConfig {
    ServingConfig {
        max_batch: 16,
        ..ServingConfig::default()
    }
}

#[derive(Debug, Serialize)]
struct PacedRun {
    offered: u64,
    accepted: u64,
    shed: u64,
    delivered: u64,
    restarts: u64,
    replayed_batches: u64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64 / 1e6
}

/// Paces `events` submissions at `rate` events/s through a supervised
/// server, optionally killing the fold mid-stream. Latency is measured
/// from each event's scheduled instant (open loop: queueing during the
/// crash window counts).
fn paced_run(events: u64, rate: f64, chaos: CrashPlan) -> PacedRun {
    let dir = scratch_dir(if chaos.is_empty() { "clean" } else { "crash" });
    let (broker, mut options) = journaled_serving_broker(&dir);
    options.chaos = chaos;
    let sink = LatencySink::new();
    let server =
        StagedServer::start_with(broker, serving_config(), Box::new(sink.clone()), options);
    let handle = server.handle();

    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(10);
    let mut shed = 0u64;
    let mut accepted = 0u64;
    for i in 0..events {
        let scheduled = start + interval.mul_f64(i as f64);
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
        let point = Point::new(vec![(i % 10) as f64, ((i * 7) % 10) as f64]).unwrap();
        match handle.submit((i % 64) as u32, i, point, scheduled) {
            Ok(()) => accepted += 1,
            Err(RejectReason::Shed { .. }) => shed += 1,
            Err(r) => panic!("paced submit rejected: {r}"),
        }
    }
    let (broker, stats) = server.try_stop().expect("supervised run recovers");
    let mut lat = sink.take();
    lat.sort_unstable();
    assert_eq!(stats.accepted, accepted, "client and server agree on acks");
    assert_eq!(
        stats.delivered + stats.failed,
        stats.accepted,
        "every accepted event got a record"
    );
    drop(broker);
    let _ = std::fs::remove_dir_all(&dir);
    PacedRun {
        offered: events,
        accepted,
        shed,
        delivered: stats.delivered,
        restarts: stats.restarts,
        replayed_batches: stats.replayed_batches,
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
        p999_ms: percentile(&lat, 0.999),
    }
}

#[derive(Debug, Serialize)]
struct Overload {
    closed_loop_eps: f64,
    offered_eps: f64,
    offered: u64,
    accepted: u64,
    shed: u64,
    shed_rate: f64,
    mean_retry_hint_ms: f64,
}

/// Experiment 3: offered load at 2× the probed closed-loop capacity;
/// the shed tier must absorb the excess explicitly.
fn overload_shed_rate(probe: Duration, window: Duration) -> Overload {
    let dir = scratch_dir("overload");
    let (broker, options) = journaled_serving_broker(&dir);
    let sink = LatencySink::new();
    let server =
        StagedServer::start_with(broker, serving_config(), Box::new(sink.clone()), options);
    let handle = server.handle();

    // Closed-loop probe: back-to-back accepted submissions.
    let t0 = Instant::now();
    let mut probed = 0u64;
    while t0.elapsed() < probe {
        let point = Point::new(vec![(probed % 10) as f64, 5.0]).unwrap();
        match handle.submit_now(0, probed, point) {
            Ok(()) => probed += 1,
            Err(RejectReason::Shed { .. }) => std::thread::sleep(Duration::from_micros(50)),
            Err(r) => panic!("probe rejected: {r}"),
        }
    }
    let closed_loop_eps = probed as f64 / t0.elapsed().as_secs_f64();

    // Open loop at 2×: no retries, no waiting — sheds are the result.
    let offered_eps = 2.0 * closed_loop_eps;
    let interval = Duration::from_secs_f64(1.0 / offered_eps);
    let start = Instant::now();
    let mut offered = 0u64;
    let mut accepted = 0u64;
    let mut shed = 0u64;
    let mut hint_sum = 0u64;
    while start.elapsed() < window {
        let scheduled = start + interval.mul_f64(offered as f64);
        while Instant::now() < scheduled {
            std::hint::spin_loop();
        }
        let point = Point::new(vec![(offered % 10) as f64, 5.0]).unwrap();
        match handle.submit_now(1, offered, point) {
            Ok(()) => accepted += 1,
            Err(RejectReason::Shed { retry_after_ms }) => {
                shed += 1;
                hint_sum += u64::from(retry_after_ms);
            }
            Err(r) => panic!("overload submit rejected: {r}"),
        }
        offered += 1;
    }
    let (_broker, stats) = server.try_stop().expect("no chaos installed");
    assert_eq!(stats.accepted, probed + accepted);
    let _ = std::fs::remove_dir_all(&dir);
    Overload {
        closed_loop_eps,
        offered_eps,
        offered,
        accepted,
        shed,
        shed_rate: shed as f64 / offered.max(1) as f64,
        mean_retry_hint_ms: hint_sum as f64 / shed.max(1) as f64,
    }
}

#[derive(Debug, Serialize)]
struct Output {
    host: HostInfo,
    quick: bool,
    recovery: Vec<RecoveryCell>,
    /// The same paced stream, no chaos: the tail-latency baseline.
    clean_run: PacedRun,
    /// One scheduled fold kill mid-stream: the crash-restart window.
    crash_run: PacedRun,
    overload: Overload,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    println!("recovery time vs journal length (snapshots disabled):");
    let lengths: &[usize] = if quick {
        &[64, 256]
    } else {
        &[256, 1024, 4096]
    };
    let recovery = recovery_vs_journal_length(lengths);

    let events: u64 = if quick { 4_000 } else { 40_000 };
    let rate = 10_000.0;
    println!("\npaced stream, {events} events at {rate:.0}/s:");
    let clean_run = paced_run(events, rate, CrashPlan::new());
    println!(
        "clean: p50 {:.3} ms, p99 {:.3} ms, p999 {:.3} ms ({} shed)",
        clean_run.p50_ms, clean_run.p99_ms, clean_run.p999_ms, clean_run.shed
    );
    // Kill the fold (the broker owner — the most expensive recovery)
    // once the stream is warm.
    let crash_run = paced_run(
        events,
        rate,
        CrashPlan::new().kill(CrashKind::KillFold, events / 32),
    );
    println!(
        "crash: p50 {:.3} ms, p99 {:.3} ms, p999 {:.3} ms ({} shed, {} restart(s), {} replayed)",
        crash_run.p50_ms,
        crash_run.p99_ms,
        crash_run.p999_ms,
        crash_run.shed,
        crash_run.restarts,
        crash_run.replayed_batches
    );
    assert_eq!(crash_run.restarts, 1, "the scheduled fold kill fired");
    assert_eq!(
        crash_run.delivered, crash_run.accepted,
        "the crash lost no accepted events"
    );

    let (probe, window) = if quick {
        (Duration::from_millis(300), Duration::from_millis(400))
    } else {
        (Duration::from_millis(800), Duration::from_secs(2))
    };
    let overload = overload_shed_rate(probe, window);
    println!(
        "\noverload: closed-loop {:.0}/s, offered {:.0}/s → shed rate {:.1}% \
         (mean retry hint {:.1} ms)",
        overload.closed_loop_eps,
        overload.offered_eps,
        100.0 * overload.shed_rate,
        overload.mean_retry_hint_ms
    );
    assert!(overload.shed > 0, "2x overload must trip the shedding tier");

    let out = Output {
        host: host_info(),
        quick,
        recovery,
        clean_run,
        crash_run,
        overload,
    };
    write_json("BENCH_recovery", &out);
}
