//! Data structures of the fused batch-publish pipeline: per-worker CSR
//! match arenas and the zero-copy [`BatchMatches`] view stitched over
//! them.
//!
//! `Broker::publish_batch` runs match → cost fused per worker on a
//! persistent [`pubsub_parallel::WorkerPool`]: each worker owns one
//! [`PublishScratch`] (match scratch, epoch-stamped cost scratch, result
//! arena, per-event metadata) that is constructed once and reused across
//! batches, so the steady-state batch path performs **zero per-event heap
//! allocations**. Matches are appended into a [`MatchArena`] — flat
//! run/id/node vectors plus CSR offset vectors — instead of one `Vec`
//! per event, and the per-worker arenas are read back *without copying*
//! through [`BatchMatches`], which maps a global event index to its
//! `(worker, local)` slot arithmetically from the block-cyclic
//! assignment. The arena is **count-level**: the matcher records
//! which covering runs an event hit and how many subscriptions that is,
//! never the ids, because cost, decision and fold need only `|s|` and
//! the node set.

use pubsub_netsim::{CostScratch, NodeId, PairCost};
use pubsub_parallel::{PipelineScratch, BLOCK};

use crate::matcher::MatchScratch;
use crate::{MatchedSet, Matcher};

/// A reusable CSR result arena for batch matching, holding **run-level
/// records**: per event the hit covering groups (`runs`, indices into
/// the matcher's [`crate::CoveringTable`]), the match count (the summed
/// lengths of those runs, which hold only live subscriptions) and the
/// deduplicated interested nodes. The run and node vectors are cut into
/// per-event slices by an offsets vector. Filled through
/// `Matcher::match_events_into_arena`; reset
/// with [`MatchArena::begin`], which keeps the capacity so a warm arena
/// never allocates.
#[derive(Debug, Default, Clone)]
pub struct MatchArena {
    /// Hit covering groups, in query order within each event's slice.
    pub(crate) runs: Vec<u32>,
    /// CSR offsets into `runs`.
    pub(crate) run_offsets: Vec<u32>,
    /// Per event: matched subscriptions, the members of its runs.
    pub(crate) counts: Vec<u32>,
    /// Deduplicated interested nodes, ascending within each event's slice.
    pub(crate) nodes: Vec<NodeId>,
    /// CSR offsets into `nodes`.
    pub(crate) node_offsets: Vec<u32>,
    /// Per-event reachability split (degraded fault mode only): event
    /// `i`'s node slice is stably partitioned into `splits[i]` reachable
    /// nodes followed by the unreachable tail. Empty on pristine batches,
    /// where the whole slice is the interested set.
    pub(crate) splits: Vec<u32>,
    /// Capacities snapshotted by [`MatchArena::begin`] for growth
    /// detection.
    caps: [usize; 6],
}

impl MatchArena {
    /// Creates an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        MatchArena::default()
    }

    /// Starts a new batch: clears the arena but keeps its capacity.
    pub fn begin(&mut self) {
        self.runs.clear();
        self.counts.clear();
        self.nodes.clear();
        self.run_offsets.clear();
        self.node_offsets.clear();
        self.splits.clear();
        self.run_offsets.push(0);
        self.node_offsets.push(0);
        self.caps = self.capacities();
    }

    fn capacities(&self) -> [usize; 6] {
        [
            self.runs.capacity(),
            self.run_offsets.capacity(),
            self.counts.capacity(),
            self.nodes.capacity(),
            self.node_offsets.capacity(),
            self.splits.capacity(),
        ]
    }

    /// Whether any buffer reallocated since the last [`MatchArena::begin`]
    /// — false on every batch once the arena is warm.
    pub fn grew(&self) -> bool {
        self.capacities() != self.caps
    }

    /// Seals the current event: everything appended to `runs`/`nodes`
    /// since the previous seal becomes the next event's slices,
    /// `run_members` being the summed lengths of the appended runs.
    pub(crate) fn end_event(&mut self, run_members: usize) {
        self.counts.push(run_members as u32);
        self.run_offsets.push(self.runs.len() as u32);
        self.node_offsets.push(self.nodes.len() as u32);
    }

    /// Number of events appended since the last [`MatchArena::begin`].
    pub fn event_count(&self) -> usize {
        self.counts.len()
    }

    /// How many subscriptions local event `local` matched: the members
    /// of its runs.
    ///
    /// # Panics
    ///
    /// Panics if `local >= event_count()`.
    pub fn match_count(&self, local: usize) -> usize {
        self.counts[local] as usize
    }

    /// The covering groups local event `local` hit; resolve them with
    /// `Matcher::matched_set`.
    ///
    /// # Panics
    ///
    /// Panics if `local >= event_count()`.
    pub fn run_slice(&self, local: usize) -> &[u32] {
        &self.runs[self.run_offsets[local] as usize..self.run_offsets[local + 1] as usize]
    }

    /// The deduplicated interested nodes of local event `local`
    /// (ascending by node id).
    ///
    /// # Panics
    ///
    /// Panics if `local >= event_count()`.
    pub fn node_slice(&self, local: usize) -> &[NodeId] {
        &self.nodes[self.node_offsets[local] as usize..self.node_offsets[local + 1] as usize]
    }

    /// The nodes the event can actually be delivered to: on a pristine
    /// batch (no reachability split recorded) the full node slice, on a
    /// degraded batch the reachable prefix left by
    /// [`MatchArena::partition_reachable`]. Ascending by node id either
    /// way.
    pub(crate) fn interested_slice(&self, local: usize) -> &[NodeId] {
        let start = self.node_offsets[local] as usize;
        let end = match self.splits.get(local) {
            Some(&split) => start + split as usize,
            None => self.node_offsets[local + 1] as usize,
        };
        &self.nodes[start..end]
    }

    /// The matched-but-unreachable tail of a degraded event's node slice
    /// (empty on pristine batches).
    pub(crate) fn unreachable_slice(&self, local: usize) -> &[NodeId] {
        let end = self.node_offsets[local + 1] as usize;
        let start = match self.splits.get(local) {
            Some(&split) => self.node_offsets[local] as usize + split as usize,
            None => end,
        };
        &self.nodes[start..end]
    }

    /// Stably partitions event `local`'s node slice in place into the
    /// reachable prefix and the unreachable tail (both keep their
    /// ascending order) and records the split point. Must be called once
    /// per event, in local order, right after the event is matched.
    pub(crate) fn partition_reachable(
        &mut self,
        local: usize,
        tmp: &mut Vec<NodeId>,
        mut reachable: impl FnMut(NodeId) -> bool,
    ) {
        debug_assert_eq!(self.splits.len(), local, "splits recorded in order");
        let start = self.node_offsets[local] as usize;
        let end = self.node_offsets[local + 1] as usize;
        tmp.clear();
        let mut w = start;
        for r in start..end {
            let n = self.nodes[r];
            if reachable(n) {
                self.nodes[w] = n;
                w += 1;
            } else {
                tmp.push(n);
            }
        }
        self.nodes[w..end].copy_from_slice(tmp);
        self.splits.push((w - start) as u32);
    }

    /// Total interested-node entries across all events of the batch.
    pub fn total_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Sentinel for "the event fell in the catch-all region `S_0`".
pub(crate) const NO_GROUP: u32 = u32::MAX;

/// Per-event output of the fused match → cost worker pass: everything
/// the sequential fold needs besides the arena slices to decide, cost
/// and record the event.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EventMeta {
    /// Pure-unicast cost to the interested set.
    pub unicast: f64,
    /// Ideal per-message multicast cost to the interested set.
    pub ideal: f64,
    /// The group region `S_q` the event fell in ([`NO_GROUP`] = `S_0`).
    pub group: u32,
}

/// One worker's whole reusable state for the fused publish pipeline:
/// match scratch, epoch-stamped cost scratch, the CSR result arena, a
/// per-block cost buffer and the per-event metadata. Constructed once per
/// pool worker and reused for every batch.
#[derive(Debug, Default)]
pub struct PublishScratch {
    pub(crate) matching: MatchScratch,
    pub(crate) cost: CostScratch,
    pub(crate) arena: MatchArena,
    /// Unicast/ideal pairs of the block being fused (dense mode).
    pub(crate) pairs: Vec<PairCost>,
    pub(crate) meta: Vec<EventMeta>,
    /// Scratch for the stable reachability partition of degraded-mode
    /// batches.
    pub(crate) reach_tmp: Vec<NodeId>,
    /// `pairs`/`meta`/`reach_tmp` capacities snapshotted at batch start
    /// for growth detection.
    aux_caps: [usize; 3],
}

impl PublishScratch {
    /// Whether any of the worker's buffers reallocated during the current
    /// batch — false once the state is warm.
    pub(crate) fn grew(&self) -> bool {
        self.arena.grew()
            || self.aux_caps
                != [
                    self.pairs.capacity(),
                    self.meta.capacity(),
                    self.reach_tmp.capacity(),
                ]
    }
}

impl PipelineScratch for PublishScratch {
    fn begin_batch(&mut self) {
        self.arena.begin();
        self.pairs.clear();
        self.meta.clear();
        self.reach_tmp.clear();
        self.aux_caps = [
            self.pairs.capacity(),
            self.meta.capacity(),
            self.reach_tmp.capacity(),
        ];
    }
}

/// A zero-copy view over the per-worker arenas of one fused batch,
/// presenting them as if they were a single CSR structure indexed by the
/// *global* event index. No stitching copy happens: the block-cyclic
/// assignment (fixed [`BLOCK`]-sized blocks, block `b` → worker
/// `b % workers`) makes the owning worker and the local slot of any
/// global index pure arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct BatchMatches<'a> {
    pub(crate) states: &'a [PublishScratch],
    pub(crate) workers: usize,
    pub(crate) len: usize,
}

impl<'a> BatchMatches<'a> {
    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `(worker, local event)` slot of global event `i`. Worker `w`
    /// owns blocks `w, w + workers, …`; all of a worker's blocks are full
    /// except possibly the globally last one, so the local index is
    /// `(full blocks before it) · BLOCK + offset in block`.
    fn locate(&self, i: usize) -> (usize, usize) {
        debug_assert!(i < self.len);
        let block = i / BLOCK;
        (
            block % self.workers,
            (block / self.workers) * BLOCK + i % BLOCK,
        )
    }

    /// The subscriptions event `i` matched, as a lazy set over the
    /// runs of `matcher` — the matcher the batch was matched with.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn matched(&self, i: usize, matcher: &Matcher) -> MatchedSet {
        let (w, local) = self.locate(i);
        matcher.matched_set(&self.states[w].arena, local)
    }

    /// The fused-stage metadata of event `i`.
    pub(crate) fn meta(&self, i: usize) -> EventMeta {
        let (w, local) = self.locate(i);
        self.states[w].meta[local]
    }

    /// The deliverable (reachable) interested nodes of event `i` — the
    /// full node slice on pristine batches, the reachable prefix on
    /// degraded ones.
    pub(crate) fn interested(&self, i: usize) -> &'a [NodeId] {
        let (w, local) = self.locate(i);
        self.states[w].arena.interested_slice(local)
    }

    /// The matched-but-unreachable nodes of event `i` (empty on pristine
    /// batches).
    pub(crate) fn unreachable(&self, i: usize) -> &'a [NodeId] {
        let (w, local) = self.locate(i);
        self.states[w].arena.unreachable_slice(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_reuse_keeps_capacity() {
        let mut arena = MatchArena::new();
        arena.begin();
        // Every event: one 10-member run, one node.
        let fill = |arena: &mut MatchArena| {
            for i in 0..100u32 {
                arena.runs.push(i % 3);
                arena.nodes.push(NodeId(i % 7));
                arena.end_event(10);
            }
        };
        fill(&mut arena);
        assert_eq!(arena.event_count(), 100);
        assert!(arena.grew(), "first batch grows from empty");
        assert_eq!(arena.run_slice(5), &[2]);
        assert_eq!(arena.match_count(5), 10);
        assert_eq!(arena.node_slice(8), &[NodeId(1)]);
        assert_eq!(arena.total_nodes(), 100);

        arena.begin();
        fill(&mut arena);
        assert!(!arena.grew(), "second identical batch reuses capacity");

        // The run vectors are part of the growth accounting.
        arena.begin();
        let room = arena.runs.capacity();
        arena.runs.extend(std::iter::repeat_n(0, room + 1));
        assert!(arena.grew(), "a run vector that reallocates must show");
    }

    #[test]
    fn empty_events_get_empty_slices() {
        let mut arena = MatchArena::new();
        arena.begin();
        arena.end_event(0);
        arena.runs.push(9);
        arena.end_event(4);
        assert_eq!(arena.event_count(), 2);
        assert!(arena.run_slice(0).is_empty());
        assert!(arena.node_slice(0).is_empty());
        assert_eq!(arena.match_count(0), 0);
        assert_eq!(arena.run_slice(1), &[9]);
        assert_eq!(arena.match_count(1), 4);
    }

    #[test]
    fn batch_view_locates_block_cyclic_slots() {
        // 3 workers, BLOCK-sized blocks, 2.5 blocks of events: global
        // index -> (worker, local) must invert the assignment.
        let workers = 3;
        let len = BLOCK * 2 + BLOCK / 2;
        let mut states: Vec<PublishScratch> =
            (0..workers).map(|_| PublishScratch::default()).collect();
        for (w, state) in states.iter_mut().enumerate() {
            state.begin_batch();
            for range in pubsub_parallel::block_ranges(len, workers, w) {
                for i in range {
                    state.arena.runs.push(i as u32);
                    state.arena.end_event(0);
                }
            }
        }
        let batch = BatchMatches {
            states: &states,
            workers,
            len,
        };
        assert_eq!(batch.len(), len);
        assert!(!batch.is_empty());
        for i in 0..len {
            let (w, local) = batch.locate(i);
            assert_eq!(states[w].arena.run_slice(local), &[i as u32], "event {i}");
            assert!(batch.interested(i).is_empty());
        }
    }
}
