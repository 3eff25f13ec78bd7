//! The churn-parity property: any interleaving of subscribe, unsubscribe
//! and recompile, followed by `recompile()`, leaves the broker
//! bit-identical to a fresh `BrokerBuilder::build()` over the surviving
//! subscriptions — same subscription ids, same match sets, same
//! decisions, same message costs to the last bit. Before the recompile,
//! the overlay-merged matching path must already agree with a fresh
//! build on who is interested.

use proptest::prelude::*;
use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, SubscriptionHandle};
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::{NodeId, TransitStubConfig};

/// (node pick, (x origin, width), (y origin, height)).
type SubSpec = (usize, (f64, f64), (f64, f64));

#[derive(Debug, Clone)]
enum ChurnOp {
    Subscribe(SubSpec),
    /// Unsubscribes the live handle at this index (mod the live count).
    Unsubscribe(usize),
    /// An explicit `recompile()`: the next op reseeds the churn counts
    /// under the new partition.
    Recompile,
}

#[derive(Debug, Clone)]
struct Scenario {
    topo_seed: u64,
    threshold: f64,
    groups: usize,
    algorithm: ClusteringAlgorithm,
    initial: Vec<SubSpec>,
    ops: Vec<ChurnOp>,
    events: Vec<(f64, f64)>,
}

fn sub_spec() -> impl Strategy<Value = SubSpec> {
    (
        0usize..100,
        (0.0f64..9.0, 0.5f64..8.0),
        (0.0f64..9.0, 0.5f64..8.0),
    )
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    // 3:2 subscribe/unsubscribe mix with one recompile in 11 ops,
    // encoded as a mapped tuple (the vendored proptest shim has no
    // `prop_oneof!`).
    let op = (0usize..11, sub_spec(), 0usize..64).prop_map(|(kind, spec, idx)| match kind {
        0..=5 => ChurnOp::Subscribe(spec),
        6..=9 => ChurnOp::Unsubscribe(idx),
        _ => ChurnOp::Recompile,
    });
    (
        0u64..50,
        0.0f64..=1.0,
        1usize..5,
        0usize..4,
        prop::collection::vec(sub_spec(), 1..15),
        prop::collection::vec(op, 1..25),
        prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..20),
    )
        .prop_map(
            |(topo_seed, threshold, groups, alg, initial, ops, events)| Scenario {
                topo_seed,
                threshold,
                groups,
                algorithm: ClusteringAlgorithm::ALL[alg],
                initial,
                ops,
                events,
            },
        )
}

fn space_2d() -> Space {
    Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap()
}

fn spec_rect((_, (x, w), (y, h)): &SubSpec) -> Rect {
    Rect::from_corners(&[*x, *y], &[(x + w).min(10.0), (y + h).min(10.0)]).unwrap()
}

fn builder(s: &Scenario, subs: Vec<(NodeId, Rect)>) -> Broker {
    let topo = TransitStubConfig::tiny().generate(s.topo_seed).unwrap();
    Broker::builder(topo, space_2d())
        .threshold(s.threshold)
        .clustering(ClusteringConfig::new(s.algorithm, s.groups).with_max_cells(30))
        .grid_cells(5)
        .subscriptions(subs)
        .build()
        .unwrap()
}

/// The group members implied by the live subscriptions under the
/// broker's current partition: node `n` belongs to group `q` iff some
/// live subscription of `n` (clamped to the space) touches a cell of
/// `q`. This is the refcount-derived member set that `recompile`'s
/// debug_assert checks internally.
fn derived_members(b: &Broker) -> Vec<Vec<NodeId>> {
    let part = b.partition();
    let mut members = vec![std::collections::BTreeSet::new(); b.groups().len()];
    for (_, node, rect) in b.registry().live() {
        let clamped = b.space().clamp(&Rect::new(rect.to_vec()).unwrap());
        for cell in part.grid().cells_intersecting(&clamped) {
            if let Some(q) = part.group_of_cell(cell) {
                members[q].insert(node);
            }
        }
    }
    members
        .into_iter()
        .map(|s| s.into_iter().collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    #[test]
    fn churn_then_recompile_is_bit_identical_to_fresh_build(s in scenario_strategy()) {
        let topo = TransitStubConfig::tiny().generate(s.topo_seed).unwrap();
        let nodes = topo.stub_nodes().to_vec();
        let initial: Vec<(NodeId, Rect)> = s
            .initial
            .iter()
            .map(|spec| (nodes[spec.0 % nodes.len()], spec_rect(spec)))
            .collect();
        let mut live = builder(&s, initial);

        // Apply the interleaving, tracking live handles ourselves.
        let mut handles: Vec<SubscriptionHandle> =
            live.registry().live().map(|(h, _, _)| h).collect();
        for op in &s.ops {
            match op {
                ChurnOp::Subscribe(spec) => {
                    let node = nodes[spec.0 % nodes.len()];
                    handles.push(live.subscribe(node, spec_rect(spec)).unwrap());
                }
                ChurnOp::Unsubscribe(i) => {
                    if handles.is_empty() {
                        continue;
                    }
                    let h = handles.swap_remove(i % handles.len());
                    live.unsubscribe(h).unwrap();
                }
                ChurnOp::Recompile => live.recompile().unwrap(),
            }
        }
        prop_assert_eq!(live.registry().len(), handles.len());

        // A fresh broker over the survivors, in registry (insertion)
        // order — the order recompile compiles them in.
        let survivors: Vec<(NodeId, Rect)> = live
            .registry()
            .live()
            .map(|(_, n, r)| (n, Rect::new(r.to_vec()).unwrap()))
            .collect();
        let mut fresh = builder(&s, survivors);

        // Overlay-merged matching already agrees on the interested sets
        // (subscription ids and groups may differ until the recompile).
        for &(x, y) in &s.events {
            let event = Point::new(vec![x, y]).unwrap();
            let (live_subs, live_nodes) = live.match_only(&event).unwrap();
            let (fresh_subs, fresh_nodes) = fresh.match_only(&event).unwrap();
            prop_assert_eq!(&live_nodes, &fresh_nodes);
            prop_assert_eq!(live_subs.len(), fresh_subs.len());
            // Every matched id maps back to a live handle.
            for &id in &live_subs {
                prop_assert!(live.handle_of(id).is_some());
            }
        }

        // After the recompile every probed epoch must be bit-identical:
        // ids, decisions, and all three costs.
        live.recompile().unwrap();
        live.reset_report();
        for &(x, y) in &s.events {
            let event = Point::new(vec![x, y]).unwrap();
            let a = live.publish(&event).unwrap();
            let b = fresh.publish(&event).unwrap();
            prop_assert_eq!(&a.matched_subscriptions, &b.matched_subscriptions);
            prop_assert_eq!(&a.interested, &b.interested);
            prop_assert_eq!(&a.decision, &b.decision);
            prop_assert_eq!(a.group_region, b.group_region);
            prop_assert_eq!(a.costs.scheme.to_bits(), b.costs.scheme.to_bits());
            prop_assert_eq!(a.costs.unicast.to_bits(), b.costs.unicast.to_bits());
            prop_assert_eq!(a.costs.ideal.to_bits(), b.costs.ideal.to_bits());
        }
        prop_assert_eq!(live.report(), fresh.report());

        // The groups and partition themselves match the fresh compile.
        prop_assert_eq!(live.groups().len(), fresh.groups().len());
        for q in 0..live.groups().len() {
            prop_assert_eq!(live.groups().members(q), fresh.groups().members(q));
        }
    }

    /// The exact-groups invariant: after every op — a churn op, an
    /// explicit recompile, or the first op after one, which reseeds the
    /// churn counts — the snapshot's multicast groups must equal the
    /// members derived from the live subscriptions and the current
    /// partition.
    #[test]
    fn groups_stay_exact_after_every_op(s in scenario_strategy()) {
        let topo = TransitStubConfig::tiny().generate(s.topo_seed).unwrap();
        let nodes = topo.stub_nodes().to_vec();
        let initial: Vec<(NodeId, Rect)> = s
            .initial
            .iter()
            .map(|spec| (nodes[spec.0 % nodes.len()], spec_rect(spec)))
            .collect();
        let mut live = builder(&s, initial);

        let mut handles: Vec<SubscriptionHandle> =
            live.registry().live().map(|(h, _, _)| h).collect();
        for op in &s.ops {
            match op {
                ChurnOp::Subscribe(spec) => {
                    let node = nodes[spec.0 % nodes.len()];
                    handles.push(live.subscribe(node, spec_rect(spec)).unwrap());
                }
                ChurnOp::Unsubscribe(i) => {
                    if handles.is_empty() {
                        continue;
                    }
                    let h = handles.swap_remove(i % handles.len());
                    live.unsubscribe(h).unwrap();
                }
                ChurnOp::Recompile => live.recompile().unwrap(),
            }
            let derived = derived_members(&live);
            for (q, expected) in derived.iter().enumerate() {
                prop_assert_eq!(
                    live.groups().members(q),
                    &expected[..],
                    "group {} members drifted from the live subscriptions",
                    q
                );
            }
        }
    }
}
