//! The mutable half of the two-layer broker core: a registry of live
//! subscriptions with stable handles.
//!
//! The [`crate::Broker`] splits its state into this registry and an
//! [`crate::EngineSnapshot`] compiled from it, whose matcher
//! `subscribe`/`unsubscribe` edit copy-on-write. Handles stay valid across
//! engine recompiles — the registry slot is the subscription's identity,
//! while the engine-internal [`crate::SubscriptionId`]s are reassigned on
//! every recompile.

use std::fmt;

use pubsub_geom::Rect;
use pubsub_netsim::NodeId;
use serde::{Deserialize, Serialize};

use crate::{BrokerError, SubscriptionStream};

/// Stable identity of one registered subscription, valid until it is
/// explicitly removed — in particular across engine recompiles, which
/// renumber the internal [`crate::SubscriptionId`]s.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct SubscriptionHandle(u32);

impl SubscriptionHandle {
    /// The raw slot index (diagnostics; not an engine id).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from its raw slot index — journal replay only,
    /// where the raw value was issued by this registry before a crash.
    pub(crate) fn from_raw(raw: u32) -> Self {
        SubscriptionHandle(raw)
    }
}

impl fmt::Display for SubscriptionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub-handle#{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Slot {
    node: NodeId,
    /// The subscription as registered (pre-clamp; the engine clamps).
    rect: Rect,
    alive: bool,
    /// The engine id currently bound to this slot: the
    /// [`crate::SubscriptionId`] the last recompile assigned, or the one
    /// `subscribe` assigned past the compiled range since.
    engine_id: u32,
}

/// The mutable subscription store: insert/remove with stable
/// [`SubscriptionHandle`]s, per-node live refcounts, and iteration in
/// insertion order (the order every engine compile indexes).
///
/// Slots are never reused, so a removed handle stays invalid forever
/// instead of silently aliasing a newer subscription.
#[derive(Debug, Clone)]
pub struct SubscriptionRegistry {
    slots: Vec<Slot>,
    live: usize,
    /// Per node (by raw id): number of live subscriptions it owns.
    node_refcounts: Vec<u32>,
}

impl SubscriptionRegistry {
    /// Creates an empty registry for a topology of `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        SubscriptionRegistry {
            slots: Vec::new(),
            live: 0,
            node_refcounts: vec![0; node_count],
        }
    }

    /// Makes room for `additional` more subscriptions, so a bulk load
    /// sizes the slot array once instead of doubling its way there.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.slots.reserve_exact(additional);
    }

    /// Registers a subscription and returns its stable handle.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownNode`] if `node` is outside the
    /// topology the registry was created for.
    pub fn insert(&mut self, node: NodeId, rect: Rect) -> Result<SubscriptionHandle, BrokerError> {
        if node.0 as usize >= self.node_refcounts.len() {
            return Err(BrokerError::UnknownNode { node: node.0 });
        }
        let handle = SubscriptionHandle(self.slots.len() as u32);
        self.slots.push(Slot {
            node,
            rect,
            alive: true,
            engine_id: u32::MAX,
        });
        self.live += 1;
        self.node_refcounts[node.0 as usize] += 1;
        Ok(handle)
    }

    /// Removes a live subscription, returning its node and rectangle.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownHandle`] for a handle that was never
    /// issued or is already removed.
    pub fn remove(&mut self, handle: SubscriptionHandle) -> Result<(NodeId, Rect), BrokerError> {
        let slot = self
            .slots
            .get_mut(handle.0 as usize)
            .filter(|s| s.alive)
            .ok_or(BrokerError::UnknownHandle { handle: handle.0 })?;
        slot.alive = false;
        self.live -= 1;
        let node = slot.node;
        let rect = slot.rect.clone();
        self.node_refcounts[node.0 as usize] -= 1;
        Ok((node, rect))
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no subscription is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// `true` if the handle refers to a live subscription.
    pub fn contains(&self, handle: SubscriptionHandle) -> bool {
        self.slots.get(handle.0 as usize).is_some_and(|s| s.alive)
    }

    /// The owning node of a live subscription.
    pub fn node(&self, handle: SubscriptionHandle) -> Option<NodeId> {
        self.slots
            .get(handle.0 as usize)
            .filter(|s| s.alive)
            .map(|s| s.node)
    }

    /// The registered (pre-clamp) rectangle of a live subscription.
    pub fn rect(&self, handle: SubscriptionHandle) -> Option<&Rect> {
        self.slots
            .get(handle.0 as usize)
            .filter(|s| s.alive)
            .map(|s| &s.rect)
    }

    /// The nodes with at least one live subscription, ascending — the
    /// dense subscriber indexing of the clustering model.
    pub(crate) fn active_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_refcounts
            .iter()
            .enumerate()
            .filter(|(_, &rc)| rc > 0)
            .map(|(n, _)| NodeId(n as u32))
    }

    /// Iterates live subscriptions in insertion order — the order every
    /// engine compile assigns [`crate::SubscriptionId`]s in, which is what
    /// makes an incremental recompile bit-identical to a from-scratch
    /// build over the same survivors.
    pub fn live(&self) -> impl Iterator<Item = (SubscriptionHandle, NodeId, &Rect)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, s)| (SubscriptionHandle(i as u32), s.node, &s.rect))
    }

    /// Total handles ever issued (live + dead slots) — the next raw
    /// handle value `insert` would assign.
    pub fn issued(&self) -> usize {
        self.slots.len()
    }

    /// Node capacity the registry was created for (topology node count).
    pub(crate) fn node_capacity(&self) -> usize {
        self.node_refcounts.len()
    }

    /// Rebuilds a registry from a journal snapshot: `next_slot` slots,
    /// all dead except the `live` entries, so handle numbering (and the
    /// never-reuse guarantee) is identical to the pre-crash registry.
    ///
    /// # Errors
    ///
    /// [`BrokerError::Journal`] for out-of-range handles or nodes, or a
    /// handle listed twice.
    pub(crate) fn restore<I>(
        node_count: usize,
        next_slot: u32,
        live: I,
    ) -> Result<Self, BrokerError>
    where
        I: IntoIterator<Item = (u32, NodeId, Rect)>,
    {
        let mut registry = SubscriptionRegistry::new(node_count);
        let dead = Rect::from_corners(&[0.0], &[0.0]).expect("degenerate placeholder rect");
        registry.slots = (0..next_slot)
            .map(|_| Slot {
                node: NodeId(0),
                rect: dead.clone(),
                alive: false,
                engine_id: u32::MAX,
            })
            .collect();
        for (raw, node, rect) in live {
            let slot =
                registry
                    .slots
                    .get_mut(raw as usize)
                    .ok_or_else(|| BrokerError::Journal {
                        message: format!("snapshot handle {raw} is outside the issued range"),
                    })?;
            if slot.alive {
                return Err(BrokerError::Journal {
                    message: format!("snapshot lists handle {raw} twice"),
                });
            }
            if node.0 as usize >= node_count {
                return Err(BrokerError::Journal {
                    message: format!("snapshot node {} is outside the topology", node.0),
                });
            }
            slot.node = node;
            slot.rect = rect;
            slot.alive = true;
            registry.live += 1;
            registry.node_refcounts[node.0 as usize] += 1;
        }
        Ok(registry)
    }

    /// The engine id currently bound to a live handle.
    pub(crate) fn engine_id(&self, handle: SubscriptionHandle) -> Option<u32> {
        self.slots
            .get(handle.0 as usize)
            .filter(|s| s.alive)
            .map(|s| s.engine_id)
    }

    /// Binds an engine id to a live handle (a subscribe between
    /// recompiles).
    pub(crate) fn set_engine_id(&mut self, handle: SubscriptionHandle, engine_id: u32) {
        self.slots[handle.0 as usize].engine_id = engine_id;
    }

    /// Binds the ids a compile assigns — `0..len()` over
    /// [`SubscriptionRegistry::live`] order — and returns the handle of
    /// each id.
    pub(crate) fn bind_compiled_ids(&mut self) -> Vec<SubscriptionHandle> {
        let mut id_to_handle = Vec::with_capacity(self.live);
        for (i, slot) in self.slots.iter_mut().enumerate().filter(|(_, s)| s.alive) {
            slot.engine_id = id_to_handle.len() as u32;
            id_to_handle.push(SubscriptionHandle(i as u32));
        }
        id_to_handle
    }
}

/// The live subscriptions in insertion order: what every engine compile
/// streams, so no compile materializes an O(N) rectangle array.
impl SubscriptionStream for SubscriptionRegistry {
    fn len(&self) -> usize {
        self.live
    }

    fn for_each(&self, f: &mut dyn FnMut(NodeId, &Rect)) {
        for (_, node, rect) in self.live() {
            f(node, rect);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: f64, hi: f64) -> Rect {
        Rect::from_corners(&[lo], &[hi]).unwrap()
    }

    #[test]
    fn insert_remove_refcounts() {
        let mut reg = SubscriptionRegistry::new(4);
        let a = reg.insert(NodeId(1), rect(0.0, 1.0)).unwrap();
        let b = reg.insert(NodeId(1), rect(2.0, 3.0)).unwrap();
        let c = reg.insert(NodeId(3), rect(4.0, 5.0)).unwrap();
        assert_eq!(reg.len(), 3);
        let active = |reg: &SubscriptionRegistry| reg.active_nodes().collect::<Vec<_>>();
        assert_eq!(active(&reg), vec![NodeId(1), NodeId(3)]);
        assert_eq!(reg.node(b), Some(NodeId(1)));
        assert_eq!(reg.rect(c), Some(&rect(4.0, 5.0)));

        let (node, r) = reg.remove(a).unwrap();
        assert_eq!((node, r), (NodeId(1), rect(0.0, 1.0)));
        assert_eq!(active(&reg), vec![NodeId(1), NodeId(3)], "b still counts");
        reg.remove(b).unwrap();
        assert_eq!(active(&reg), vec![NodeId(3)]);
        assert!(!reg.contains(a));
        assert!(reg.contains(c));
    }

    #[test]
    fn handles_are_never_reused() {
        let mut reg = SubscriptionRegistry::new(2);
        let a = reg.insert(NodeId(0), rect(0.0, 1.0)).unwrap();
        reg.remove(a).unwrap();
        let b = reg.insert(NodeId(0), rect(0.0, 1.0)).unwrap();
        assert_ne!(a, b);
        assert!(matches!(
            reg.remove(a),
            Err(BrokerError::UnknownHandle { .. })
        ));
        assert!(reg.node(a).is_none() && reg.rect(a).is_none());
    }

    #[test]
    fn live_iterates_in_insertion_order() {
        let mut reg = SubscriptionRegistry::new(8);
        let handles: Vec<_> = (0..5)
            .map(|i| {
                reg.insert(NodeId(i), rect(f64::from(i), f64::from(i) + 1.0))
                    .unwrap()
            })
            .collect();
        reg.remove(handles[1]).unwrap();
        reg.remove(handles[3]).unwrap();
        let order: Vec<NodeId> = reg.live().map(|(_, n, _)| n).collect();
        assert_eq!(order, vec![NodeId(0), NodeId(2), NodeId(4)]);
    }

    #[test]
    fn unknown_node_rejected() {
        let mut reg = SubscriptionRegistry::new(2);
        assert!(matches!(
            reg.insert(NodeId(2), rect(0.0, 1.0)),
            Err(BrokerError::UnknownNode { node: 2 })
        ));
        assert!(reg.is_empty());
    }
}
