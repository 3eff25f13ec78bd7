//! Process-level chaos tests for the supervised staged server.
//!
//! The contract under fold crashes: an accepted event (`Ok` from
//! `submit`) produces **exactly one** sink record no matter where the
//! fold dies, when, or how often — its supervision salvages in-flight
//! work, rebuilds the broker from its durable journal, and replays.
//! Control operations (subscribe through the serving front) survive the
//! same way: their effects are journaled before the ack, so a recovered
//! broker carries every acked subscription.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use proptest::prelude::*;
use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, JournalConfig};
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::TransitStubConfig;
use pubsub::server::{
    CollectorSink, CrashKind, CrashPlan, IngestHandle, RejectReason, ServingConfig, StagedServer,
    SuperviseOptions,
};

/// Unique scratch directory per test case (proptest reruns included).
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pubsub-srec-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn space() -> Space {
    Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap()
}

fn builder(topo_seed: u64) -> pubsub::core::BrokerBuilder {
    let topo = TransitStubConfig::tiny().generate(topo_seed).unwrap();
    Broker::builder(topo, space())
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2).with_max_cells(30))
        .grid_cells(5)
}

/// A journaled broker with one wide-open subscription (journaled, so
/// recovery reproduces it), plus the recover closure the supervisor
/// uses to rebuild from the same journal directory.
fn journaled_broker(topo_seed: u64, dir: &PathBuf) -> (Broker, SuperviseOptions) {
    let mut broker = builder(topo_seed)
        .journal(JournalConfig::new(dir))
        .build()
        .unwrap();
    let node = {
        let topo = TransitStubConfig::tiny().generate(topo_seed).unwrap();
        topo.stub_nodes()[0]
    };
    broker
        .subscribe(
            node,
            Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap(),
        )
        .unwrap();
    let recover_dir = dir.clone();
    let options = SuperviseOptions {
        recover: Some(Box::new(move || {
            builder(topo_seed)
                .journal(JournalConfig::new(&recover_dir))
                .recover()
        })),
        chaos: CrashPlan::new(),
    };
    (broker, options)
}

/// Submits until accepted, absorbing shed rejections (the crash window
/// backs the ingest queue up; the shed hint says when to come back).
fn submit_patiently(handle: &IngestHandle, seq: u64, point: Point) -> Result<(), String> {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        match handle.submit_now(0, seq, point.clone()) {
            Ok(()) => return Ok(()),
            Err(RejectReason::Shed { retry_after_ms }) => {
                if std::time::Instant::now() > deadline {
                    return Err(format!("seq {seq} still shed after 20s"));
                }
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms).min(5)));
            }
            Err(r) => return Err(format!("seq {seq} rejected: {r}")),
        }
    }
}

fn small_config(max_batch: usize) -> ServingConfig {
    ServingConfig {
        ingest_capacity: 16,
        max_batch,
    }
}

#[derive(Debug, Clone)]
struct Chaos {
    topo_seed: u64,
    crash_seed: u64,
    crashes: usize,
    max_batch: usize,
    events: Vec<(f64, f64)>,
    /// Every `control_every`-th submit also pushes a subscribe control
    /// op through the pipeline (they must survive crashes too).
    control_every: usize,
}

fn chaos_strategy() -> impl Strategy<Value = Chaos> {
    (
        0u64..10,
        0u64..u64::MAX,
        1usize..4,
        1usize..3,
        prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 40..90),
        7usize..20,
    )
        .prop_map(
            |(topo_seed, crash_seed, crashes, max_batch, events, control_every)| Chaos {
                topo_seed,
                crash_seed,
                crashes,
                max_batch,
                events,
                control_every,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Seeded kills of the fold at arbitrary progress points:
    /// every accepted event still reaches the sink exactly once, every
    /// acked control op survives into the recovered broker, and the
    /// stage histograms sample every accepted event once.
    #[test]
    fn chaos_crashes_preserve_accepted_events(s in chaos_strategy()) {
        let dir = scratch_dir("chaos");
        let (broker, mut options) = journaled_broker(s.topo_seed, &dir);
        options.chaos = CrashPlan::seeded(s.crash_seed, s.crashes);
        let plan_len = options.chaos.events().len();

        let sink = CollectorSink::new();
        let server = StagedServer::start_with(
            broker,
            small_config(s.max_batch),
            Box::new(sink.clone()),
            options,
        );
        let handle = server.handle();

        let node = TransitStubConfig::tiny()
            .generate(s.topo_seed)
            .unwrap()
            .stub_nodes()[1];
        let mut control_acks = 0u64;
        for (i, &(x, y)) in s.events.iter().enumerate() {
            let seq = i as u64 + 1;
            let point = Point::new(vec![x, y]).unwrap();
            submit_patiently(&handle, seq, point)?;
            if i % s.control_every == s.control_every - 1 {
                // A blocking control op racing the crash schedule: its
                // ack means the subscription is journaled and durable.
                let rect = Rect::from_corners(&[0.0, 0.0], &[1.0 + (i % 9) as f64, 2.0])
                    .unwrap();
                handle
                    .subscribe(node, rect)
                    .map_err(|e| format!("control op failed: {e}"))?;
                control_acks += 1;
            }
        }

        let (broker, stats) = server
            .try_stop()
            .map_err(|e| format!("supervised stop failed: {e}"))?;
        let records = sink.take();

        // Exactly-once: each accepted seq produced one record.
        prop_assert_eq!(stats.accepted, s.events.len() as u64);
        prop_assert_eq!(stats.delivered + stats.failed, stats.accepted);
        prop_assert_eq!(stats.failed, 0, "no faults installed");
        prop_assert_eq!(records.len() as u64, stats.accepted);
        let mut seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        prop_assert_eq!(
            seqs.len() as u64, stats.accepted,
            "a crash duplicated or dropped a sink record"
        );

        // Every acked control op survived into the final broker (the
        // initial wide-open subscription plus one per control ack).
        prop_assert_eq!(
            broker.registry().live().count() as u64,
            1 + control_acks
        );

        prop_assert!(stats.restarts <= plan_len as u64);
        prop_assert!(stats.replayed_batches <= stats.restarts);
        // Every accepted event is sampled exactly once per ingest
        // histogram, replays and fold recoveries included.
        prop_assert_eq!(stats.stage_ingest.count(), stats.accepted);
        prop_assert_eq!(stats.stage_batcher.count(), stats.accepted);
        prop_assert_eq!(stats.stage_queue_wait.count(), stats.accepted);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A plan that provably fires both crash kinds: the fold (broker owner)
/// dies while applying an item, and again while handing records to the
/// sink, and still delivers every accepted event exactly once.
#[test]
fn every_stage_crash_is_survived_exactly_once() {
    let dir = scratch_dir("stages");
    let (broker, mut options) = journaled_broker(5, &dir);
    options.chaos = CrashPlan::new()
        .kill(CrashKind::KillFold, 2)
        .kill(CrashKind::KillEgress, 2);

    let sink = CollectorSink::new();
    let server = StagedServer::start_with(broker, small_config(1), Box::new(sink.clone()), options);
    let handle = server.handle();
    let total = 30u64;
    for seq in 1..=total {
        let point = Point::new(vec![(seq % 10) as f64, 5.0]).unwrap();
        submit_patiently(&handle, seq, point).unwrap();
    }
    let (_, stats) = server.try_stop().unwrap();

    assert_eq!(stats.restarts, 2, "both scheduled kills fired");
    assert_eq!(
        stats.replayed_batches, 2,
        "each kill fired with an item in flight, each was replayed"
    );
    assert_eq!(stats.accepted, total);
    assert_eq!(stats.delivered, total);
    let mut seqs: Vec<u64> = sink.take().iter().map(|r| r.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (1..=total).collect::<Vec<_>>(), "exactly once each");
    // The fold kill swapped in a rebuilt broker; the samples taken
    // before it survive, and the replayed batch is not sampled twice.
    assert_eq!(stats.stage_ingest.count(), total);
    assert_eq!(stats.stage_batcher.count(), total);
    assert_eq!(stats.stage_queue_wait.count(), total);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whole-process "crash": bring a journaled serving stack down, rebuild
/// the broker from the journal alone, and serve again — the recovered
/// server still matches against every subscription acked before the
/// crash.
#[test]
fn whole_server_restart_recovers_subscriptions_from_journal() {
    let dir = scratch_dir("restart");
    let (broker, options) = journaled_broker(7, &dir);

    let sink = CollectorSink::new();
    let server = StagedServer::start_with(broker, small_config(2), Box::new(sink.clone()), options);
    let handle = server.handle();
    let node = TransitStubConfig::tiny().generate(7).unwrap().stub_nodes()[2];
    handle
        .subscribe(node, Rect::from_corners(&[2.0, 2.0], &[8.0, 8.0]).unwrap())
        .unwrap();
    submit_patiently(&handle, 1, Point::new(vec![5.0, 5.0]).unwrap()).unwrap();
    let (_gone, stats) = server.try_stop().unwrap();
    assert_eq!(stats.delivered, 1);
    // The pre-crash broker is dropped here without any farewell: the
    // journal directory is all that survives.

    let recovered = builder(7)
        .journal(JournalConfig::new(&dir))
        .recover()
        .unwrap();
    assert_eq!(
        recovered.registry().live().count(),
        2,
        "both acked subscriptions recovered"
    );
    let sink2 = CollectorSink::new();
    let server = StagedServer::start_with(
        recovered,
        small_config(2),
        Box::new(sink2.clone()),
        SuperviseOptions::default(),
    );
    let handle = server.handle();
    submit_patiently(&handle, 1, Point::new(vec![5.0, 5.0]).unwrap()).unwrap();
    let (_broker, stats) = server.try_stop().unwrap();
    assert_eq!(stats.delivered, 1);
    let record = &sink2.take()[0];
    let outcome = record.outcome.as_ref().expect("matched cleanly");
    assert!(
        !outcome.interested.is_empty(),
        "recovered subscriptions still match events"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
