//! Model-based property tests for subscription-handle safety: random
//! interleavings of subscribe / unsubscribe / recompile, checked against
//! a plain list model. Stale and double-freed handles must always be
//! rejected, live handles must always resolve, and the registry must
//! agree with the model after every step.
//!
//! `registry_interning_round_trips` drives the registry's rectangle
//! interning — one stored row per distinct registered rectangle,
//! reclaimed when its last subscription leaves — through a
//! duplicate-heavy sequence, a recompile, and a journal snapshot plus
//! recovery, against the same plain list model and a fresh build.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, BrokerError, CostReport, JournalConfig, SubscriptionHandle};
use pubsub::geom::{Interval, Point, Rect, Space};
use pubsub::netsim::{NodeId, TransitStubConfig};

fn build(topo_seed: u64) -> (Broker, Vec<NodeId>) {
    let topo = TransitStubConfig::tiny().generate(topo_seed).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
    let broker = Broker::builder(topo, space)
        .threshold(0.15)
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2).with_max_cells(30))
        .grid_cells(5)
        .subscription(
            nodes[0],
            Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap(),
        )
        .build()
        .unwrap();
    (broker, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn handles_stay_safe_under_random_churn(
        topo_seed in 0u64..20,
        ops in prop::collection::vec(
            (0u8..4, 0usize..100, (0.0f64..9.0, 0.5f64..8.0), (0.0f64..9.0, 0.5f64..8.0)),
            1..40,
        ),
        probe in (0.0f64..10.0, 0.0f64..10.0),
    ) {
        let (mut broker, nodes) = build(topo_seed);
        // The model: live handles with their (node, rect), plus every
        // handle ever freed.
        let mut live: Vec<(SubscriptionHandle, NodeId, Rect)> = broker
            .registry()
            .live()
            .map(|(h, n, r)| (h, n, Rect::new(r.to_vec()).unwrap()))
            .collect();
        let mut dead: Vec<SubscriptionHandle> = Vec::new();

        for (kind, pick, (x, w), (y, h)) in &ops {
            match kind {
                0 | 3 => {
                    let node = nodes[pick % nodes.len()];
                    let rect = Rect::from_corners(
                        &[*x, *y],
                        &[(x + w).min(10.0), (y + h).min(10.0)],
                    )
                    .unwrap();
                    let handle = broker.subscribe(node, rect.clone()).unwrap();
                    // A fresh handle never aliases a live or dead one.
                    prop_assert!(live.iter().all(|(hh, _, _)| *hh != handle));
                    prop_assert!(dead.iter().all(|hh| *hh != handle));
                    live.push((handle, node, rect));
                    if *kind == 3 {
                        broker.recompile().unwrap();
                    }
                }
                1 if !live.is_empty() => {
                    let (handle, _, _) = live.remove(pick % live.len());
                    broker.unsubscribe(handle).unwrap();
                    dead.push(handle);
                }
                _ if !dead.is_empty() => {
                    // Stale handle: must fail, must not disturb state.
                    let handle = dead[pick % dead.len()];
                    let err = broker.unsubscribe(handle).unwrap_err();
                    prop_assert!(matches!(err, BrokerError::UnknownHandle { .. }));
                }
                _ => {}
            }

            // Registry agrees with the model after every operation.
            let got: Vec<(SubscriptionHandle, NodeId)> = broker
                .registry()
                .live()
                .map(|(hh, n, _)| (hh, n))
                .collect();
            let mut want: Vec<(SubscriptionHandle, NodeId)> =
                live.iter().map(|(hh, n, _)| (*hh, *n)).collect();
            // `live()` iterates in insertion order; model removal keeps
            // relative order, so both sides match element-wise after a
            // stable sort by handle.
            let mut got_sorted = got.clone();
            got_sorted.sort_by_key(|(hh, _)| hh.raw());
            want.sort_by_key(|(hh, _)| hh.raw());
            prop_assert_eq!(got_sorted, want);
        }

        // Matching only ever reaches live subscribers.
        let event = Point::new(vec![probe.0, probe.1]).unwrap();
        let (subs, matched) = broker.match_only(&event).unwrap();
        for n in &matched {
            prop_assert!(live.iter().any(|(_, node, _)| node == n));
        }
        // And matched subscription ids resolve to live handles.
        for id in &subs {
            if let Some(handle) = broker.handle_of(*id) {
                prop_assert!(live.iter().any(|(hh, _, _)| *hh == handle));
            }
        }
    }
}

/// The hot rectangles of the interning test. The second and third differ
/// before clamping and are equal after it; the fourth nests in the first;
/// the last is unbounded.
fn hot_pool() -> Vec<Rect> {
    let corners = |lo: [f64; 2], hi: [f64; 2]| Rect::from_corners(&lo, &hi).unwrap();
    vec![
        corners([1.0, 1.0], [4.0, 4.0]),
        corners([-5.0, 1.0], [4.0, 4.0]),
        corners([-2.0, 1.0], [4.0, 4.0]),
        corners([2.0, 2.0], [3.0, 3.0]),
        corners([5.0, 5.0], [9.5, 9.5]),
        Rect::new(vec![Interval::at_least(7.0), Interval::unbounded()]).unwrap(),
    ]
}

/// A rectangle no other call returns: it takes a new or a freed row.
fn fresh_rect(serial: &mut u32) -> Rect {
    *serial += 1;
    let lo = f64::from(*serial % 97) * 0.09;
    let w = 0.5 + f64::from(*serial) * 1e-6;
    Rect::from_corners(&[lo, lo], &[lo + w, lo + 2.0 * w]).unwrap()
}

fn bits(sides: &[Interval]) -> Vec<u64> {
    sides
        .iter()
        .flat_map(|s| [s.lo().to_bits(), s.hi().to_bits()])
        .collect()
}

type Model = Vec<(SubscriptionHandle, NodeId, Rect)>;

/// The registry equals the model: live handles in insertion order with
/// their node and rectangle bits, the handles issued, and one stored row
/// per distinct rectangle.
fn check_registry(broker: &Broker, model: &Model, issued: usize) -> Result<(), String> {
    let registry = broker.registry();
    let got: Vec<_> = registry.live().map(|(h, n, s)| (h, n, bits(s))).collect();
    let want: Vec<_> = model
        .iter()
        .map(|(h, n, r)| (*h, *n, bits(r.sides())))
        .collect();
    prop_assert_eq!(got, want);
    for (h, n, r) in model {
        prop_assert_eq!(registry.node(*h), Some(*n));
        prop_assert_eq!(registry.rect(*h).map(bits), Some(bits(r.sides())));
    }
    prop_assert_eq!(registry.issued(), issued);
    let mut distinct: Vec<Vec<u64>> = model.iter().map(|(_, _, r)| bits(r.sides())).collect();
    distinct.sort();
    distinct.dedup();
    prop_assert_eq!(registry.distinct_rects(), distinct.len());
    Ok(())
}

fn report_bits(r: &CostReport) -> [u64; 10] {
    [
        r.messages,
        r.dropped,
        r.unicasts,
        r.multicasts,
        r.partial_multicasts,
        r.scheme_cost.to_bits(),
        r.unicast_cost.to_bits(),
        r.ideal_cost.to_bits(),
        r.wasted_deliveries,
        r.unreachable_skipped,
    ]
}

/// Publishes a probe grid on both brokers from a reset report: every
/// outcome and the cost report agree bit for bit.
fn assert_same_delivery(got: &mut Broker, want: &mut Broker) -> Result<(), String> {
    got.reset_report();
    want.reset_report();
    for i in 0..7 {
        for j in 0..7 {
            let x = 0.3 + 1.45 * f64::from(i);
            let event = Point::new(vec![x, 0.2 + 1.5 * f64::from(j)]).unwrap();
            let (a, b) = (got.publish(&event).unwrap(), want.publish(&event).unwrap());
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a.costs.scheme.to_bits(), b.costs.scheme.to_bits());
        }
    }
    prop_assert_eq!(report_bits(got.report()), report_bits(want.report()));
    Ok(())
}

fn journal_dir() -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pubsub-intern-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn registry_interning_round_trips(
        topo_seed in 0u64..20,
        initial in prop::collection::vec((0usize..100, 0usize..6), 4..24),
        ops in prop::collection::vec((0u8..10, 0usize..100, 0usize..6), 1..48),
        freed_pick in 0usize..6,
    ) {
        let topo = TransitStubConfig::tiny().generate(topo_seed).unwrap();
        let nodes = topo.stub_nodes().to_vec();
        let space =
            Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
        let builder = || {
            Broker::builder(topo.clone(), space.clone())
                .threshold(0.15)
                .clustering(
                    ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 3).with_max_cells(30),
                )
                .grid_cells(5)
                // No drift recompile: compiles happen where the ops say.
                .recluster_fraction(1e9)
        };
        let pool = hot_pool();
        let dir = journal_dir();
        let journal = JournalConfig::new(&dir).snapshot_every(5).sync_writes(false);
        let initial: Vec<(NodeId, Rect)> = initial
            .iter()
            .map(|&(n, r)| (nodes[n % nodes.len()], pool[r].clone()))
            .collect();
        let mut broker = builder()
            .subscriptions(initial.clone())
            .journal(journal.clone())
            .build()
            .unwrap();
        let mut model: Model = broker
            .registry()
            .live()
            .zip(initial)
            .map(|((h, _, _), (n, r))| (h, n, r))
            .collect();
        let mut issued = model.len();
        let mut serial = 0u32;
        check_registry(&broker, &model, issued)?;

        let subscribe = |broker: &mut Broker, model: &mut Model, issued: &mut usize, node, rect: Rect| {
            let handle = broker.subscribe(node, rect.clone()).unwrap();
            model.push((handle, node, rect));
            *issued += 1;
        };
        for &(kind, pick, r) in &ops {
            let node = nodes[pick % nodes.len()];
            match kind {
                0..=4 => subscribe(&mut broker, &mut model, &mut issued, node, pool[r].clone()),
                5..=7 if !model.is_empty() => {
                    let (handle, _, _) = model.remove(pick % model.len());
                    broker.unsubscribe(handle).unwrap();
                }
                8 => broker.recompile().unwrap(),
                _ => {
                    let rect = fresh_rect(&mut serial);
                    subscribe(&mut broker, &mut model, &mut issued, node, rect);
                }
            }
            check_registry(&broker, &model, issued)?;
        }

        // Drive two hot rectangles' rows to refcount 0. The first comes
        // back before a new rectangle arrives, the second after: its row
        // may by then hold the new rectangle.
        let node = nodes[0];
        for (k, again_first) in [(freed_pick, true), ((freed_pick + 1) % pool.len(), false)] {
            subscribe(&mut broker, &mut model, &mut issued, node, pool[k].clone());
            let held: Vec<SubscriptionHandle> = model
                .iter()
                .filter(|(_, _, r)| bits(r.sides()) == bits(pool[k].sides()))
                .map(|(h, _, _)| *h)
                .collect();
            for handle in held {
                broker.unsubscribe(handle).unwrap();
                model.retain(|(h, _, _)| *h != handle);
            }
            check_registry(&broker, &model, issued)?;
            let fresh = fresh_rect(&mut serial);
            if again_first {
                subscribe(&mut broker, &mut model, &mut issued, node, pool[k].clone());
                check_registry(&broker, &model, issued)?;
                subscribe(&mut broker, &mut model, &mut issued, node, fresh);
            } else {
                subscribe(&mut broker, &mut model, &mut issued, node, fresh);
                check_registry(&broker, &model, issued)?;
                subscribe(&mut broker, &mut model, &mut issued, node, pool[k].clone());
            }
            check_registry(&broker, &model, issued)?;
        }

        // After a recompile the broker equals a fresh build over the same
        // list in handle order.
        broker.recompile().unwrap();
        let list: Vec<(NodeId, Rect)> = model.iter().map(|(_, n, r)| (*n, r.clone())).collect();
        let mut fresh = builder().subscriptions(list).build().unwrap();
        assert_same_delivery(&mut broker, &mut fresh)?;

        // Snapshot and recover: the restored registry interns the same
        // rectangles, and the recovered broker delivers the same.
        drop(broker);
        let mut recovered = builder().journal(journal).recover().unwrap();
        check_registry(&recovered, &model, issued)?;
        assert_same_delivery(&mut recovered, &mut fresh)?;
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
