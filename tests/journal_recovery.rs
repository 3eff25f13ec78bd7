//! Kill-at-arbitrary-byte-offset property tests for the durable
//! subscription journal.
//!
//! The contract: a broker recovered from `snapshot + WAL prefix` is
//! bit-identical — registry live set, handle numbering, handle
//! liveness, and every publish outcome — to an in-memory oracle that
//! applied exactly the operations whose journal records survived and
//! then recompiled. Truncating the WAL at *any* byte offset (record
//! boundaries, mid-header, mid-payload) loses at most the single
//! operation in flight; everything acked before it is recovered.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, BrokerError, JournalConfig, SubscriptionHandle};
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::{NodeId, Topology, TransitStubConfig};

/// Unique scratch directory per test case (proptest reruns included).
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pubsub-jrec-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One abstract churn operation; unsubscribes pick from the live set by
/// index so the sequence is valid by construction.
#[derive(Debug, Clone)]
enum Op {
    Subscribe {
        node_pick: usize,
        rect: ((f64, f64), (f64, f64)),
    },
    /// Remove the `pick % live`-th live handle (no-op when none live).
    Unsubscribe {
        pick: usize,
    },
    Recompile,
}

#[derive(Debug, Clone)]
struct Scenario {
    topo_seed: u64,
    ops: Vec<Op>,
    /// WAL truncation point as a fraction of the final WAL length.
    cut: f64,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0usize..8,
        0usize..100,
        ((0.0f64..9.0, 0.5f64..8.0), (0.0f64..9.0, 0.5f64..8.0)),
    )
        .prop_map(|(kind, pick, rect)| match kind {
            0..=4 => Op::Subscribe {
                node_pick: pick,
                rect,
            },
            5 | 6 => Op::Unsubscribe { pick },
            _ => Op::Recompile,
        })
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        0u64..20,
        prop::collection::vec(op_strategy(), 1..32),
        0.0f64..=1.0,
    )
        .prop_map(|(topo_seed, ops, cut)| Scenario {
            topo_seed,
            ops,
            cut,
        })
}

fn topo(seed: u64) -> Topology {
    TransitStubConfig::tiny().generate(seed).unwrap()
}

fn space() -> Space {
    Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap()
}

fn builder(topo_seed: u64) -> pubsub::core::BrokerBuilder {
    Broker::builder(topo(topo_seed), space())
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2).with_max_cells(30))
        .grid_cells(5)
}

fn make_rect(spec: &((f64, f64), (f64, f64))) -> Rect {
    let ((x, w), (y, h)) = *spec;
    Rect::from_corners(&[x, y], &[(x + w).min(10.0), (y + h).min(10.0)]).unwrap()
}

/// Applies one op; returns the handle a subscribe issued so the driver
/// can mirror the live set.
fn apply(broker: &mut Broker, live: &mut Vec<SubscriptionHandle>, op: &Op, nodes: &[NodeId]) {
    match op {
        Op::Subscribe { node_pick, rect } => {
            let node = nodes[node_pick % nodes.len()];
            let handle = broker.subscribe(node, make_rect(rect)).unwrap();
            live.push(handle);
        }
        Op::Unsubscribe { pick } => {
            if !live.is_empty() {
                let handle = live.remove(pick % live.len());
                broker.unsubscribe(handle).unwrap();
            }
        }
        Op::Recompile => broker.recompile().unwrap(),
    }
}

/// The registry's live set as comparable raw data, in handle order.
fn live_set(broker: &Broker) -> Vec<(u32, u32, Rect)> {
    broker
        .registry()
        .live()
        .map(|(h, n, r)| (h.raw(), n.0, Rect::new(r.to_vec()).unwrap()))
        .collect()
}

/// Publishes a probe grid on both brokers and asserts identical
/// outcomes (matches, decisions, interested nodes, costs).
fn assert_same_outcomes(recovered: &mut Broker, oracle: &mut Broker) {
    for i in 0..5 {
        for j in 0..5 {
            let event =
                Point::new(vec![0.5 + 2.0 * f64::from(i), 0.5 + 2.0 * f64::from(j)]).unwrap();
            let got = recovered.publish(&event).unwrap();
            let want = oracle.publish(&event).unwrap();
            assert_eq!(got, want, "outcome diverges at probe ({i}, {j})");
        }
    }
}

/// Copies `snapshot.bin` (if present) and the first `wal_bytes` bytes of
/// `wal.bin` into a fresh directory — the crash image.
fn crash_copy(src: &Path, wal_bytes: u64, tag: &str) -> PathBuf {
    let dst = scratch_dir(tag);
    std::fs::create_dir_all(&dst).unwrap();
    if src.join("snapshot.bin").exists() {
        std::fs::copy(src.join("snapshot.bin"), dst.join("snapshot.bin")).unwrap();
    }
    let wal = std::fs::read(src.join("wal.bin")).unwrap();
    let keep = (wal_bytes as usize).min(wal.len());
    std::fs::write(dst.join("wal.bin"), &wal[..keep]).unwrap();
    dst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash the journal at an arbitrary byte offset: the recovered
    /// broker equals the oracle that applied exactly the operations
    /// whose final record survived the cut, then recompiled.
    #[test]
    fn recovery_at_any_offset_matches_oracle_prefix(s in scenario_strategy()) {
        let dir = scratch_dir("live");
        let nodes = topo(s.topo_seed).stub_nodes().to_vec();

        // Drive the journaled broker, recording the WAL length after
        // each op — the byte boundary at which that op became durable.
        let config = JournalConfig::new(&dir).snapshot_every(1_000_000);
        let mut broker = builder(s.topo_seed).journal(config).build().unwrap();
        let mut live = Vec::new();
        let mut boundaries = Vec::with_capacity(s.ops.len());
        for op in &s.ops {
            apply(&mut broker, &mut live, op, &nodes);
            boundaries.push(broker.journal().unwrap().wal_len());
        }
        let final_len = broker.journal().unwrap().wal_len();
        drop(broker);

        // Cut the WAL at an arbitrary byte offset (fraction of the
        // final length, so 0 = lose everything, 1 = lose nothing).
        let offset = (s.cut * final_len as f64).round() as u64;
        let crash_dir = crash_copy(&dir, offset, "crash");

        let recovered = builder(s.topo_seed)
            .journal(JournalConfig::new(&crash_dir))
            .recover()
            .unwrap();
        let counters = recovered.metrics_snapshot().recovery;
        prop_assert!(counters.truncated_records <= 1,
            "a byte cut tears at most the record in flight");

        // The surviving prefix: ops whose *last* journal record fits
        // within the cut (an op may also emit a drift-recompile record
        // first; losing only the tail record loses the whole op).
        let survived = boundaries.iter().filter(|&&b| b <= offset).count();
        let mut oracle = builder(s.topo_seed).build().unwrap();
        let mut oracle_live = Vec::new();
        for op in &s.ops[..survived] {
            apply(&mut oracle, &mut oracle_live, op, &nodes);
        }
        oracle.recompile().unwrap();

        prop_assert_eq!(live_set(&recovered), live_set(&oracle));
        prop_assert_eq!(recovered.registry().issued(), oracle.registry().issued());
        // Dead handles stay dead, live handles stay live, on both.
        for h in &oracle_live {
            prop_assert!(recovered.registry().contains(*h));
        }
        let mut recovered = recovered;
        assert_same_outcomes(&mut recovered, &mut oracle);
        drop(recovered);

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&crash_dir);
    }

    /// Crash in the window *between* the snapshot rename and the WAL
    /// truncation: the surviving snapshot already folded every op still
    /// sitting in the WAL. Replay must recognize the stale records
    /// (handles are never reused) and land on the full-history oracle —
    /// for *any* byte cut of the stale WAL, since every prefix of it is
    /// covered by the snapshot.
    #[test]
    fn stale_wal_behind_fresh_snapshot_replays_idempotently(s in scenario_strategy()) {
        let dir = scratch_dir("stalewal");
        let nodes = topo(s.topo_seed).stub_nodes().to_vec();

        let config = JournalConfig::new(&dir).snapshot_every(1_000_000);
        let mut broker = builder(s.topo_seed).journal(config.clone()).build().unwrap();
        let mut live = Vec::new();
        for op in &s.ops {
            apply(&mut broker, &mut live, op, &nodes);
        }
        drop(broker);
        let stale_wal = std::fs::read(dir.join("wal.bin")).unwrap();

        // A first recovery folds the whole WAL into a fresh snapshot and
        // truncates; writing the old WAL bytes back reproduces exactly
        // the crash window (snapshot from op N, WAL holding ops <= N).
        drop(builder(s.topo_seed).journal(config.clone()).recover().unwrap());
        let cut = ((s.cut * stale_wal.len() as f64).round() as usize).min(stale_wal.len());
        std::fs::write(dir.join("wal.bin"), &stale_wal[..cut]).unwrap();

        let recovered = builder(s.topo_seed).journal(config).recover().unwrap();
        let counters = recovered.metrics_snapshot().recovery;
        prop_assert!(counters.truncated_records <= 1,
            "a byte cut tears at most the record in flight");
        prop_assert!(counters.stale_ops as usize <= s.ops.len());

        // The oracle applied the *full* history — the snapshot has it
        // all; no stale replay may subtract from or re-add to it.
        let mut oracle = builder(s.topo_seed).build().unwrap();
        let mut oracle_live = Vec::new();
        for op in &s.ops {
            apply(&mut oracle, &mut oracle_live, op, &nodes);
        }
        oracle.recompile().unwrap();

        prop_assert_eq!(live_set(&recovered), live_set(&oracle));
        prop_assert_eq!(recovered.registry().issued(), oracle.registry().issued());
        let mut recovered = recovered;
        assert_same_outcomes(&mut recovered, &mut oracle);
        drop(recovered);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With an aggressive snapshot cadence the WAL keeps truncating;
    /// clean recovery (no crash) still lands on the oracle exactly, and
    /// a recovered broker keeps journaling — a second recovery works.
    #[test]
    fn snapshots_truncate_and_recovery_chains(s in scenario_strategy()) {
        let dir = scratch_dir("snap");
        let nodes = topo(s.topo_seed).stub_nodes().to_vec();

        let config = JournalConfig::new(&dir).snapshot_every(3);
        let mut broker = builder(s.topo_seed).journal(config.clone()).build().unwrap();
        let mut live = Vec::new();
        for op in &s.ops {
            apply(&mut broker, &mut live, op, &nodes);
        }
        if s.ops.len() > 3 {
            prop_assert!(broker.journal().unwrap().stats().snapshots > 0);
        }
        drop(broker);

        let mut oracle = builder(s.topo_seed).build().unwrap();
        let mut oracle_live = Vec::new();
        for op in &s.ops {
            apply(&mut oracle, &mut oracle_live, op, &nodes);
        }
        oracle.recompile().unwrap();

        let mut recovered = builder(s.topo_seed).journal(config.clone()).recover().unwrap();
        prop_assert_eq!(recovered.metrics_snapshot().recovery.truncated_records, 0);
        prop_assert_eq!(live_set(&recovered), live_set(&oracle));

        // Keep operating on the recovered broker, then recover again:
        // the journal chain survives its own recovery.
        let extra = Op::Subscribe { node_pick: 1, rect: ((1.0, 2.0), (3.0, 2.0)) };
        apply(&mut recovered, &mut live, &extra, &nodes);
        apply(&mut oracle, &mut oracle_live, &extra, &nodes);
        oracle.recompile().unwrap();
        drop(recovered);

        let mut second = builder(s.topo_seed).journal(config).recover().unwrap();
        prop_assert_eq!(live_set(&second), live_set(&oracle));
        assert_same_outcomes(&mut second, &mut oracle);
        drop(second);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recover_requires_journal_and_no_builder_subscriptions() {
    let err = builder(1).recover().unwrap_err();
    assert!(matches!(
        err,
        BrokerError::InvalidConfig {
            parameter: "journal",
            ..
        }
    ));

    let dir = scratch_dir("cfg");
    let node = topo(1).stub_nodes()[0];
    let err = builder(1)
        .journal(JournalConfig::new(&dir))
        .subscription(node, Rect::from_corners(&[0.0, 0.0], &[1.0, 1.0]).unwrap())
        .recover()
        .unwrap_err();
    assert!(matches!(
        err,
        BrokerError::InvalidConfig {
            parameter: "subscriptions",
            ..
        }
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_from_empty_journal_is_an_empty_broker() {
    let dir = scratch_dir("empty");
    drop(
        builder(3)
            .journal(JournalConfig::new(&dir))
            .build()
            .unwrap(),
    );
    let broker = builder(3)
        .journal(JournalConfig::new(&dir))
        .recover()
        .unwrap();
    assert!(broker.registry().is_empty());
    assert_eq!(broker.metrics_snapshot().recovery.replayed_ops, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic rename-vs-truncation crash: every stale record — a
/// subscribe below the restored next-slot and an unsubscribe of an
/// already-dead handle — is skipped and counted, and the recovered
/// broker keeps issuing fresh handles from the right slot.
#[test]
fn crash_between_rename_and_truncation_counts_stale_ops() {
    let dir = scratch_dir("stalecount");
    let nodes = topo(2).stub_nodes().to_vec();
    let rect = |spec| make_rect(&spec);
    let config = JournalConfig::new(&dir).snapshot_every(1_000_000);

    let mut broker = builder(2).journal(config.clone()).build().unwrap();
    let a = broker
        .subscribe(nodes[0], rect(((0.0, 2.0), (0.0, 2.0))))
        .unwrap();
    broker
        .subscribe(nodes[1 % nodes.len()], rect(((3.0, 2.0), (3.0, 2.0))))
        .unwrap();
    broker.unsubscribe(a).unwrap();
    drop(broker);
    let stale_wal = std::fs::read(dir.join("wal.bin")).unwrap();

    // Fold the WAL into a snapshot (next_slot 2, handle 0 dead), then
    // resurrect the pre-snapshot WAL: the crash window image.
    drop(builder(2).journal(config.clone()).recover().unwrap());
    std::fs::write(dir.join("wal.bin"), &stale_wal).unwrap();

    let mut recovered = builder(2).journal(config).recover().unwrap();
    let counters = recovered.metrics_snapshot().recovery;
    assert_eq!(counters.stale_ops, 3, "both subscribes and the unsubscribe");
    assert_eq!(counters.replayed_ops, 0);
    assert_eq!(counters.truncated_records, 0);
    assert_eq!(recovered.registry().issued(), 2);
    assert_eq!(recovered.registry().live().count(), 1);
    assert!(!recovered.registry().contains(a), "dead handles stay dead");

    // Handle numbering continues where the pre-crash broker left off.
    let next = recovered
        .subscribe(nodes[0], rect(((1.0, 1.0), (1.0, 1.0))))
        .unwrap();
    assert_eq!(next.raw(), 2);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery compiles the engine once. The density closure is evaluated
/// once per grid cell per compile, so its call count is the number of
/// compiles: `recover()` makes as many calls as a `build()` of the same
/// population, not twice that.
#[test]
fn recovery_compiles_once() {
    let dir = scratch_dir("onecompile");
    let nodes = topo(4).stub_nodes().to_vec();
    let counted = |calls: &Arc<AtomicUsize>| {
        let calls = Arc::clone(calls);
        builder(4).density(move |r| {
            calls.fetch_add(1, Ordering::Relaxed);
            r.volume() / 100.0
        })
    };

    let build_calls = Arc::new(AtomicUsize::new(0));
    let mut broker = counted(&build_calls)
        .journal(JournalConfig::new(&dir))
        .subscriptions((0..6).map(|i| {
            let at = f64::from(i);
            (
                nodes[i as usize % nodes.len()],
                make_rect(&((at, 3.0), (at, 2.0))),
            )
        }))
        .build()
        .unwrap();
    let per_compile = build_calls.load(Ordering::Relaxed);
    assert_eq!(per_compile, broker.grid_model().grid().cell_count());
    // Leave a WAL tail for recovery to replay.
    let extra = broker
        .subscribe(nodes[0], make_rect(&((1.0, 1.0), (1.0, 1.0))))
        .unwrap();
    broker.unsubscribe(extra).unwrap();
    drop(broker);

    let recover_calls = Arc::new(AtomicUsize::new(0));
    let recovered = counted(&recover_calls)
        .journal(JournalConfig::new(&dir))
        .recover()
        .unwrap();
    assert_eq!(recover_calls.load(Ordering::Relaxed), per_compile);
    assert_eq!(recovered.epoch(), 1);
    assert_eq!(recovered.metrics_snapshot().recovery.replayed_ops, 2);
    assert_eq!(recovered.metrics_snapshot().churn.recompiles, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_errors_on_topology_mismatch() {
    let dir = scratch_dir("mismatch");
    drop(
        builder(1)
            .journal(JournalConfig::new(&dir))
            .build()
            .unwrap(),
    );
    // A bigger topology has a different node count; the snapshot must
    // refuse to restore into it.
    let mut cfg = TransitStubConfig::tiny();
    cfg.stub_size *= 2;
    let bigger = cfg.generate(1).unwrap();
    assert_ne!(bigger.graph().node_count(), topo(1).graph().node_count());
    let err = Broker::builder(bigger, space())
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2).with_max_cells(30))
        .grid_cells(5)
        .journal(JournalConfig::new(&dir))
        .recover()
        .unwrap_err();
    assert!(matches!(err, BrokerError::Journal { .. }));
    let _ = std::fs::remove_dir_all(&dir);
}
