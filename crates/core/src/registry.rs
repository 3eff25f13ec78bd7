//! The mutable half of the two-layer broker core: a registry of live
//! subscriptions with stable handles.
//!
//! The [`crate::Broker`] splits its state into this registry and an
//! [`crate::EngineSnapshot`] compiled from it, whose matcher
//! `subscribe`/`unsubscribe` edit copy-on-write. Handles stay valid across
//! engine recompiles — the registry slot is the subscription's identity,
//! while the engine-internal [`crate::SubscriptionId`]s are reassigned on
//! every recompile.
//!
//! Populations repeat a few hot rectangles, so the registry stores each
//! distinct registered rectangle once: a *row* of `dims` intervals with a
//! reference count, found through an intern index of row ids. A
//! subscription is a 12-byte slot — node, row id, engine id — and a row
//! whose last subscription leaves goes on a free list for the next new
//! rectangle.

use std::fmt;

use pubsub_geom::{Interval, Rect};
use pubsub_netsim::NodeId;

use crate::{BrokerError, SubscriptionStream};

/// Stable identity of one registered subscription, valid until it is
/// explicitly removed — in particular across engine recompiles, which
/// renumber the internal [`crate::SubscriptionId`]s.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
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

/// The row id of a removed subscription's slot.
const DEAD: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    node: NodeId,
    /// The row of the subscription as registered (pre-clamp; the engine
    /// clamps), or [`DEAD`] once removed.
    rect: u32,
    /// The engine id currently bound to this slot: the
    /// [`crate::SubscriptionId`] the last recompile assigned, or the one
    /// `subscribe` assigned past the compiled range since.
    engine_id: u32,
}

/// A slot with no subscription: issued and removed, or not yet filled.
const DEAD_SLOT: Slot = Slot {
    node: NodeId(0),
    rect: DEAD,
    engine_id: u32::MAX,
};

/// Whether two rectangles have the same bounds, bit for bit: the
/// registry hands back exactly the bits it was given.
fn same_bits(a: &[Interval], b: &[Interval]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| x.lo().to_bits() == y.lo().to_bits() && x.hi().to_bits() == y.hi().to_bits())
}

/// Hash of a rectangle's bound bits (FxHash's fold); the index takes the
/// top bits, where the multiply mixes best.
fn row_hash(sides: &[Interval]) -> u64 {
    sides
        .iter()
        .flat_map(|s| [s.lo().to_bits(), s.hi().to_bits()])
        .fold(0u64, |h, w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
        })
}

/// The intern index: an open-addressing (linear probing) set of row
/// ids. It stores ids only; a probe recomputes hashes and compares bounds
/// from the rows themselves.
#[derive(Debug, Clone, Default)]
struct RowIndex {
    /// A power of two of buckets (or none), each a row id or [`DEAD`].
    buckets: Vec<u32>,
    len: usize,
}

impl RowIndex {
    /// The home bucket of `sides` in a table of `buckets` (a power of two).
    fn home(sides: &[Interval], buckets: usize) -> usize {
        (row_hash(sides) >> (64 - buckets.trailing_zeros())) as usize
    }

    /// The row equal to `sides`, if any.
    fn find(&self, rows: &Rows, sides: &[Interval]) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut b = Self::home(sides, self.buckets.len());
        loop {
            match self.buckets[b] {
                DEAD => return None,
                id if same_bits(rows.get(id), sides) => return Some(id),
                _ => b = (b + 1) & mask,
            }
        }
    }

    /// Adds row `id`, which is not in the index, growing the table to
    /// keep it at most half full.
    fn insert(&mut self, rows: &Rows, id: u32) {
        if 2 * (self.len + 1) > self.buckets.len() {
            let grown = vec![DEAD; (2 * self.buckets.len()).max(8)];
            let old = std::mem::replace(&mut self.buckets, grown);
            for old_id in old.into_iter().filter(|&i| i != DEAD) {
                self.place(rows, old_id);
            }
        }
        self.place(rows, id);
        self.len += 1;
    }

    fn place(&mut self, rows: &Rows, id: u32) {
        let mask = self.buckets.len() - 1;
        let mut b = Self::home(rows.get(id), self.buckets.len());
        while self.buckets[b] != DEAD {
            b = (b + 1) & mask;
        }
        self.buckets[b] = id;
    }

    /// Removes row `id`, which is in the index, by backward shift: every
    /// later id of the probe run whose home bucket lies at or before the
    /// hole moves into it, so no probe ever needs a tombstone.
    fn remove(&mut self, rows: &Rows, id: u32) {
        let mask = self.buckets.len() - 1;
        let mut hole = Self::home(rows.get(id), self.buckets.len());
        while self.buckets[hole] != id {
            hole = (hole + 1) & mask;
        }
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let next = self.buckets[b];
            if next == DEAD {
                break;
            }
            let home = Self::home(rows.get(next), self.buckets.len());
            if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
                self.buckets[hole] = next;
                hole = b;
            }
        }
        self.buckets[hole] = DEAD;
        self.len -= 1;
    }
}

/// The distinct registered rectangles, flat: row `id` is
/// `sides[id * dims..][..dims]`.
#[derive(Debug, Clone)]
struct Rows {
    dims: usize,
    sides: Vec<Interval>,
}

impl Rows {
    fn get(&self, id: u32) -> &[Interval] {
        &self.sides[id as usize * self.dims..][..self.dims]
    }
}

/// The mutable subscription store: insert/remove with stable
/// [`SubscriptionHandle`]s, per-node live refcounts, and iteration in
/// insertion order (the order every engine compile indexes).
///
/// Slots are never reused, so a removed handle stays invalid forever
/// instead of silently aliasing a newer subscription. Rectangles are
/// interned: each distinct registered rectangle is stored once (see the
/// module docs), so a subscription costs 12 bytes plus its share of its
/// rectangle.
#[derive(Debug, Clone)]
pub struct SubscriptionRegistry {
    slots: Vec<Slot>,
    live: usize,
    /// Per node (by raw id): number of live subscriptions it owns.
    node_refcounts: Vec<u32>,
    /// The distinct registered rectangles.
    rows: Rows,
    /// Per row: live subscriptions over it; 0 for a row on `free_rows`.
    row_refs: Vec<u32>,
    /// Rows whose last subscription was removed, reused before new ones.
    free_rows: Vec<u32>,
    /// Every row with a live subscription, keyed by its bounds' bits.
    index: RowIndex,
}

impl SubscriptionRegistry {
    /// Creates an empty registry for a topology of `node_count` nodes and
    /// subscriptions of `dims` dimensions.
    pub fn new(node_count: usize, dims: usize) -> Self {
        SubscriptionRegistry {
            slots: Vec::new(),
            live: 0,
            node_refcounts: vec![0; node_count],
            rows: Rows {
                dims,
                sides: Vec::new(),
            },
            row_refs: Vec::new(),
            free_rows: Vec::new(),
            index: RowIndex::default(),
        }
    }

    /// Makes room for `additional` more subscriptions, so a bulk load
    /// sizes the slot array once instead of doubling its way there.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    /// The row holding `sides`, interned on first sight.
    fn intern(&mut self, sides: &[Interval]) -> u32 {
        if let Some(id) = self.index.find(&self.rows, sides) {
            self.row_refs[id as usize] += 1;
            return id;
        }
        let id = match self.free_rows.pop() {
            Some(id) => {
                let at = id as usize * sides.len();
                self.rows.sides[at..at + sides.len()].copy_from_slice(sides);
                self.row_refs[id as usize] = 1;
                id
            }
            None => {
                self.rows.sides.extend_from_slice(sides);
                self.row_refs.push(1);
                (self.row_refs.len() - 1) as u32
            }
        };
        self.index.insert(&self.rows, id);
        id
    }

    /// Drops one subscription's reference to row `id`, reclaiming the
    /// row when it was the last.
    fn release(&mut self, id: u32) {
        let refs = &mut self.row_refs[id as usize];
        *refs -= 1;
        if *refs == 0 {
            self.index.remove(&self.rows, id);
            self.free_rows.push(id);
        }
    }

    /// Registers a subscription and returns its stable handle. The
    /// rectangle is interned by reference: a rectangle already registered
    /// (bit for bit) costs nothing more.
    ///
    /// # Errors
    ///
    /// * [`BrokerError::UnknownNode`] if `node` is outside the topology
    ///   the registry was created for;
    /// * [`BrokerError::DimensionMismatch`] if the rectangle's
    ///   dimensionality is not the registry's.
    pub fn insert(&mut self, node: NodeId, rect: &Rect) -> Result<SubscriptionHandle, BrokerError> {
        if node.0 as usize >= self.node_refcounts.len() {
            return Err(BrokerError::UnknownNode { node: node.0 });
        }
        if rect.dims() != self.rows.dims {
            return Err(BrokerError::DimensionMismatch {
                expected: self.rows.dims,
                got: rect.dims(),
            });
        }
        let handle = SubscriptionHandle(self.slots.len() as u32);
        self.slots.push(DEAD_SLOT);
        self.occupy(handle, node, rect.sides());
        Ok(handle)
    }

    /// Makes the dead slot of `handle` a live subscription of `node` over
    /// `sides`.
    fn occupy(&mut self, handle: SubscriptionHandle, node: NodeId, sides: &[Interval]) {
        let rect = self.intern(sides);
        self.slots[handle.0 as usize] = Slot {
            node,
            rect,
            engine_id: u32::MAX,
        };
        self.live += 1;
        self.node_refcounts[node.0 as usize] += 1;
    }

    /// Removes a live subscription, returning its node.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownHandle`] for a handle that was never
    /// issued or is already removed.
    pub fn remove(&mut self, handle: SubscriptionHandle) -> Result<NodeId, BrokerError> {
        let slot = self
            .slots
            .get_mut(handle.0 as usize)
            .filter(|s| s.rect != DEAD)
            .ok_or(BrokerError::UnknownHandle { handle: handle.0 })?;
        let (node, row) = (slot.node, slot.rect);
        slot.rect = DEAD;
        self.live -= 1;
        self.node_refcounts[node.0 as usize] -= 1;
        self.release(row);
        Ok(node)
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no subscription is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of distinct rectangles among the live subscriptions (the
    /// rows the registry stores).
    pub fn distinct_rects(&self) -> usize {
        self.row_refs.len() - self.free_rows.len()
    }

    /// Bytes of heap the registry holds: slots, rows, refcounts, free
    /// list and intern index, by capacity.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.rows.sides.capacity() * std::mem::size_of::<Interval>()
            + (self.node_refcounts.capacity()
                + self.row_refs.capacity()
                + self.free_rows.capacity()
                + self.index.buckets.capacity())
                * 4
    }

    fn live_slot(&self, handle: SubscriptionHandle) -> Option<&Slot> {
        self.slots.get(handle.0 as usize).filter(|s| s.rect != DEAD)
    }

    /// `true` if the handle refers to a live subscription.
    pub fn contains(&self, handle: SubscriptionHandle) -> bool {
        self.live_slot(handle).is_some()
    }

    /// The owning node of a live subscription.
    pub fn node(&self, handle: SubscriptionHandle) -> Option<NodeId> {
        self.live_slot(handle).map(|s| s.node)
    }

    /// The sides of a live subscription's registered (pre-clamp)
    /// rectangle.
    pub fn rect(&self, handle: SubscriptionHandle) -> Option<&[Interval]> {
        self.live_slot(handle).map(|s| self.rows.get(s.rect))
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

    /// Iterates live subscriptions in insertion order, with the sides of
    /// each registered rectangle — the order every engine compile assigns
    /// [`crate::SubscriptionId`]s in, which is what makes an incremental
    /// recompile bit-identical to a from-scratch build over the same
    /// survivors.
    pub fn live(&self) -> impl Iterator<Item = (SubscriptionHandle, NodeId, &[Interval])> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.rect != DEAD)
            .map(|(i, s)| (SubscriptionHandle(i as u32), s.node, self.rows.get(s.rect)))
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
    /// handle listed twice; [`BrokerError::DimensionMismatch`] for a
    /// rectangle that is not `dims`-dimensional.
    pub(crate) fn restore<'a, I>(
        node_count: usize,
        dims: usize,
        next_slot: u32,
        live: I,
    ) -> Result<Self, BrokerError>
    where
        I: IntoIterator<Item = (u32, NodeId, &'a Rect)>,
    {
        let mut registry = SubscriptionRegistry::new(node_count, dims);
        registry.slots = vec![DEAD_SLOT; next_slot as usize];
        for (raw, node, rect) in live {
            let slot = registry
                .slots
                .get(raw as usize)
                .ok_or_else(|| BrokerError::Journal {
                    message: format!("snapshot handle {raw} is outside the issued range"),
                })?;
            if slot.rect != DEAD {
                return Err(BrokerError::Journal {
                    message: format!("snapshot lists handle {raw} twice"),
                });
            }
            if node.0 as usize >= node_count {
                return Err(BrokerError::Journal {
                    message: format!("snapshot node {} is outside the topology", node.0),
                });
            }
            if rect.dims() != dims {
                return Err(BrokerError::DimensionMismatch {
                    expected: dims,
                    got: rect.dims(),
                });
            }
            registry.occupy(SubscriptionHandle(raw), node, rect.sides());
        }
        Ok(registry)
    }

    /// The engine id currently bound to a live handle.
    pub(crate) fn engine_id(&self, handle: SubscriptionHandle) -> Option<u32> {
        self.live_slot(handle).map(|s| s.engine_id)
    }

    /// Binds an engine id to a live handle (a subscribe between
    /// recompiles).
    pub(crate) fn set_engine_id(&mut self, handle: SubscriptionHandle, engine_id: u32) {
        self.slots[handle.0 as usize].engine_id = engine_id;
    }

    /// Trims the slots and row storage to their lengths, so the slack of
    /// growth by doubling does not outlive a compile: an all-distinct
    /// population pays for each row once, not for up to two.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.slots.shrink_to_fit();
        self.rows.sides.shrink_to_fit();
        self.row_refs.shrink_to_fit();
        self.free_rows.shrink_to_fit();
    }

    /// Binds the ids a compile assigns — `0..len()` over
    /// [`SubscriptionRegistry::live`] order — and returns the handle of
    /// each id.
    pub(crate) fn bind_compiled_ids(&mut self) -> Vec<SubscriptionHandle> {
        let mut id_to_handle = Vec::with_capacity(self.live);
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.rect != DEAD {
                slot.engine_id = id_to_handle.len() as u32;
                id_to_handle.push(SubscriptionHandle(i as u32));
            }
        }
        id_to_handle
    }
}

/// The live subscriptions in insertion order, over the registry's rows:
/// what every engine compile streams, so no compile materializes an O(N)
/// rectangle array and each distinct rectangle is clamped once.
impl SubscriptionStream for SubscriptionRegistry {
    fn len(&self) -> usize {
        self.live
    }

    fn rect_count(&self) -> usize {
        self.row_refs.len()
    }

    fn sides(&self, rect: u32) -> &[Interval] {
        self.rows.get(rect)
    }

    fn for_each(&self, f: &mut dyn FnMut(NodeId, u32)) {
        for slot in self.slots.iter().filter(|s| s.rect != DEAD) {
            f(slot.node, slot.rect);
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
        let mut reg = SubscriptionRegistry::new(4, 1);
        let a = reg.insert(NodeId(1), &rect(0.0, 1.0)).unwrap();
        let b = reg.insert(NodeId(1), &rect(2.0, 3.0)).unwrap();
        let c = reg.insert(NodeId(3), &rect(4.0, 5.0)).unwrap();
        assert_eq!(reg.len(), 3);
        let active = |reg: &SubscriptionRegistry| reg.active_nodes().collect::<Vec<_>>();
        assert_eq!(active(&reg), vec![NodeId(1), NodeId(3)]);
        assert_eq!(reg.node(b), Some(NodeId(1)));
        assert_eq!(reg.rect(c), Some(rect(4.0, 5.0).sides()));

        assert_eq!(reg.remove(a).unwrap(), NodeId(1));
        assert_eq!(active(&reg), vec![NodeId(1), NodeId(3)], "b still counts");
        reg.remove(b).unwrap();
        assert_eq!(active(&reg), vec![NodeId(3)]);
        assert!(!reg.contains(a));
        assert!(reg.contains(c));
    }

    #[test]
    fn handles_are_never_reused() {
        let mut reg = SubscriptionRegistry::new(2, 1);
        let a = reg.insert(NodeId(0), &rect(0.0, 1.0)).unwrap();
        reg.remove(a).unwrap();
        let b = reg.insert(NodeId(0), &rect(0.0, 1.0)).unwrap();
        assert_ne!(a, b);
        assert!(matches!(
            reg.remove(a),
            Err(BrokerError::UnknownHandle { .. })
        ));
        assert!(reg.node(a).is_none() && reg.rect(a).is_none());
    }

    #[test]
    fn live_iterates_in_insertion_order() {
        let mut reg = SubscriptionRegistry::new(8, 1);
        let handles: Vec<_> = (0..5)
            .map(|i| {
                reg.insert(NodeId(i), &rect(f64::from(i), f64::from(i) + 1.0))
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
        let mut reg = SubscriptionRegistry::new(2, 1);
        assert!(matches!(
            reg.insert(NodeId(2), &rect(0.0, 1.0)),
            Err(BrokerError::UnknownNode { node: 2 })
        ));
        assert!(reg.is_empty());
    }

    #[test]
    fn wrong_dimensions_rejected() {
        let mut reg = SubscriptionRegistry::new(2, 1);
        let plane = Rect::from_corners(&[0.0, 0.0], &[1.0, 1.0]).unwrap();
        assert!(matches!(
            reg.insert(NodeId(0), &plane),
            Err(BrokerError::DimensionMismatch {
                expected: 1,
                got: 2
            })
        ));
        assert!(reg.is_empty() && reg.issued() == 0);
    }

    #[test]
    fn equal_rectangles_share_one_row_until_the_last_leaves() {
        let mut reg = SubscriptionRegistry::new(4, 1);
        let a = reg.insert(NodeId(0), &rect(0.0, 1.0)).unwrap();
        let b = reg.insert(NodeId(1), &rect(0.0, 1.0)).unwrap();
        // Equal as numbers, different bits: a row of its own.
        let c = reg.insert(NodeId(2), &rect(-0.0, 1.0)).unwrap();
        assert_eq!((reg.distinct_rects(), reg.rect_count()), (2, 2));
        assert_eq!(reg.rect(c).unwrap()[0].lo().to_bits(), (-0.0f64).to_bits());
        reg.remove(a).unwrap();
        assert_eq!(reg.distinct_rects(), 2);
        reg.remove(b).unwrap();
        assert_eq!(reg.distinct_rects(), 1);
        // The freed row is reused by the next new rectangle, and the
        // index no longer finds the old one there.
        let d = reg.insert(NodeId(3), &rect(5.0, 6.0)).unwrap();
        assert_eq!((reg.distinct_rects(), reg.rect_count()), (2, 2));
        let e = reg.insert(NodeId(3), &rect(0.0, 1.0)).unwrap();
        assert_eq!((reg.distinct_rects(), reg.rect_count()), (3, 3));
        assert_eq!(reg.rect(d), Some(rect(5.0, 6.0).sides()));
        assert_eq!(reg.rect(e), Some(rect(0.0, 1.0).sides()));
    }

    /// The index against a naive list of distinct rectangles, over enough
    /// inserts and removals to grow the table and shift probe runs.
    #[test]
    fn index_survives_growth_and_backward_shift() {
        let mut reg = SubscriptionRegistry::new(1, 1);
        let mut live: Vec<(SubscriptionHandle, f64)> = Vec::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..4_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let pick = (state >> 33) % 97;
            if step % 3 == 2 && !live.is_empty() {
                let (h, _) = live.swap_remove(pick as usize % live.len());
                reg.remove(h).unwrap();
            } else {
                let lo = pick as f64;
                live.push((reg.insert(NodeId(0), &rect(lo, lo + 1.0)).unwrap(), lo));
            }
            let mut distinct: Vec<u64> = live.iter().map(|&(_, lo)| lo.to_bits()).collect();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(reg.distinct_rects(), distinct.len(), "step {step}");
        }
        for &(h, lo) in &live {
            assert_eq!(reg.rect(h), Some(rect(lo, lo + 1.0).sides()));
        }
    }
}
