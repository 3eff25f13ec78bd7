//! The matching problem (paper §3): event → interested subscribers.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use pubsub_geom::{Point, Rect, Space};
use pubsub_netsim::NodeId;
use pubsub_stree::{DeltaOverlay, EntryId, Tombstones};

use crate::covering::{self, build_covering, CoveringConfig, CoveringStats, CoveringTable};
use crate::pipeline::MatchArena;
use crate::slab::SlabFilter;
use crate::{BrokerError, MatchedSet, SubscriptionStream};

/// Identifier of one subscription (one rectangle; a subscriber may own
/// several).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct SubscriptionId(pub u32);

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// The matcher: the covering layer's representative set (interned,
/// subsumed and optionally merged subscription rectangles, clamped to
/// the space) under a slab filter — one 64-slab bitmap per dimension —
/// plus the covering table that decides each candidate exactly and
/// resolves a hit to the runs of concrete subscriptions it stands for,
/// and the subscription→subscriber mapping.
///
/// An event is matched on its own, without a tree walk: the AND of its
/// slabs' bitmaps picks the candidate representatives (the paper's grid
/// model, Appendix A, in separable form), and each candidate gets the
/// exact half-open `f64` test ([`CoveringTable::hit_runs`]). The filter
/// is conservative — every representative containing the event is a
/// candidate — so matches are exact by construction.
///
/// # Example
///
/// ```
/// use pubsub_core::{CoveringConfig, Matcher};
/// use pubsub_geom::{Point, Rect, Space};
/// use pubsub_netsim::NodeId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let space = Space::anonymous(Rect::from_corners(&[0.0], &[10.0])?)?;
/// let matcher = Matcher::build(
///     &space,
///     &[
///         (NodeId(7), Rect::from_corners(&[0.0], &[5.0])?),
///         (NodeId(7), Rect::from_corners(&[2.0], &[8.0])?),
///         (NodeId(9), Rect::from_corners(&[6.0], &[9.0])?),
///     ],
///     CoveringConfig::default(),
/// )?;
/// // Both of node 7's subscriptions match, but the node appears once.
/// let (subs, nodes) = matcher.match_event(&Point::new(vec![3.0])?);
/// assert_eq!(subs.len(), 2);
/// assert_eq!(nodes, vec![NodeId(7)]);
/// assert_eq!(matcher.covering_stats().representatives, 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Matcher {
    /// Which representatives can contain a point.
    slabs: SlabFilter,
    /// Shared with every [`MatchedSet`] that references its runs, so an
    /// outcome outlives a recompile of the matcher.
    covering: Arc<CoveringTable>,
    owners: Vec<NodeId>,
    /// Scratch-free upper bound for the subscriber dedup bitmap.
    max_node: u32,
}

/// Reusable per-thread scratch for [`Matcher::match_event_into`]: the
/// event's slab rows, its hit runs and loose hits, the subscriber dedup
/// bitmap, the one-event arena the single-event entry points collect
/// into, and the work counters the publish pipeline drains into
/// [`crate::PipelineCounters`]. One scratch makes every subsequent match
/// on the same thread allocation-free (output vectors aside).
#[derive(Debug, Default, Clone)]
pub struct MatchScratch {
    /// Subscriber dedup bitmap, indexed by node id; bits are cleared
    /// after every match so the buffer stays reusable.
    seen: Vec<u64>,
    /// The current event's slab row per dimension.
    rows: Vec<usize>,
    /// Loose subscription hits of the current event before the sort —
    /// overlay hits and the live members of tombstoned runs.
    hits: Vec<EntryId>,
    /// Hit covering groups of the current event.
    runs: Vec<u32>,
    /// Representatives given the exact test since the last drain.
    candidates: u64,
    /// Bitmap and summary words ANDed since the last drain.
    words: u64,
    /// One-event arena of the single-event entry points.
    single: MatchArena,
}

impl MatchScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        MatchScratch::default()
    }

    /// Drains the work counters — `(candidates, words)`: representatives
    /// given the exact test and slab-filter words ANDed — resetting them
    /// to zero.
    pub(crate) fn take_work(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.candidates),
            std::mem::take(&mut self.words),
        )
    }
}

thread_local! {
    /// Scratch for the non-allocating [`Matcher::match_event`] wrapper.
    static MATCH_SCRATCH: RefCell<MatchScratch> = RefCell::new(MatchScratch::new());
}

/// Runs `f` with this thread's shared [`MatchScratch`] (the one
/// [`Matcher::match_event`] uses), so crate-internal callers can reuse it
/// without owning a scratch.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut MatchScratch) -> R) -> R {
    MATCH_SCRATCH.with_borrow_mut(f)
}

/// A borrowed view of the churn state the broker layers over a compiled
/// [`Matcher`] between engine recompiles: subscriptions added since the
/// last compile (linear-scan overlay) and compiled subscriptions removed
/// since (tombstones).
///
/// Overlay entry ids start at `base_count` (the compiled subscription
/// count); `owners[id - base_count]` is the subscriber node of overlay
/// entry `id`. Owner slots of removed overlay entries keep their value —
/// the indexing stays stable, the entry itself is gone from the overlay.
#[derive(Debug, Clone, Copy)]
pub struct MatchOverlay<'a> {
    /// Entries inserted since the last compile.
    pub overlay: &'a DeltaOverlay,
    /// Owner nodes of overlay entries, indexed by `id - base_count`.
    pub owners: &'a [NodeId],
    /// Compiled entries removed since the last compile.
    pub tombstones: &'a Tombstones,
    /// Number of compiled subscriptions (= first overlay id).
    pub base_count: u32,
    /// Largest owner node id in `owners` (sizes the dedup bitmap).
    pub max_node: u32,
}

impl Matcher {
    /// Builds the matcher from `(subscriber node, rectangle)` pairs:
    /// [`Matcher::build_covered`] over the slice. Subscription ids are
    /// assigned in input order.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::DimensionMismatch`] if a rectangle disagrees
    /// with the space.
    pub fn build(
        space: &Space,
        subscriptions: &[(NodeId, Rect)],
        config: CoveringConfig,
    ) -> Result<Self, BrokerError> {
        Self::build_covered(space, &subscriptions, &config)
    }

    /// Builds the matcher through the **covering layer**: subscriptions
    /// are streamed (never materialized as an O(N) rectangle array),
    /// clamped to `space` so unbounded predicates index cleanly,
    /// interned/subsumed/merged into a representative set, and the
    /// representatives' slab bitmaps built.
    /// Matches are exactly those of a linear scan over the clamped
    /// rectangles, whatever `config` aggregates; memory per subscription
    /// drops with the workload's duplicate skew.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::DimensionMismatch`] if a rectangle
    /// disagrees with the space.
    pub fn build_covered(
        space: &Space,
        subscriptions: &dyn SubscriptionStream,
        config: &CoveringConfig,
    ) -> Result<Self, BrokerError> {
        let built = build_covering(space, subscriptions, config)?;
        let table = built.table;
        let slabs = SlabFilter::build(space.dims(), table.rep_count(), |r, d| {
            table.rep_bounds(r, d)
        });
        Ok(Matcher {
            slabs,
            covering: Arc::new(table),
            owners: built.owners,
            max_node: built.max_node,
        })
    }

    /// Aggregation statistics of the covering build.
    pub fn covering_stats(&self) -> &CoveringStats {
        self.covering.stats()
    }

    /// Bytes of heap held by the slab bitmaps and covering table,
    /// per-run owner-node sets included.
    pub fn heap_bytes(&self) -> usize {
        self.slabs.heap_bytes() + self.covering.heap_bytes()
    }

    /// Number of subscriptions indexed.
    pub fn subscription_count(&self) -> usize {
        self.owners.len()
    }

    /// The subscriber node owning a subscription.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn owner(&self, id: SubscriptionId) -> NodeId {
        self.owners[id.0 as usize]
    }

    /// Matches an event: returns the matching subscription ids and the
    /// deduplicated subscriber nodes (ascending by node id).
    ///
    /// Thin wrapper over [`Matcher::match_event_into`] using thread-local
    /// scratch, so it performs no intermediate allocation (the two output
    /// vectors aside).
    ///
    /// # Panics
    ///
    /// Panics if the event's dimensionality differs from the space the
    /// matcher was built over.
    pub fn match_event(&self, event: &Point) -> (Vec<SubscriptionId>, Vec<NodeId>) {
        let mut subs = Vec::new();
        let mut nodes = Vec::new();
        MATCH_SCRATCH.with_borrow_mut(|scratch| {
            self.match_event_into(event, scratch, &mut subs, &mut nodes);
        });
        (subs, nodes)
    }

    /// Matches an event into caller-provided buffers: `subs` receives the
    /// matching subscription ids (ascending) and `nodes` the deduplicated
    /// subscriber nodes (ascending by node id). Both are cleared first.
    /// With a warm `scratch`, the only allocations are output-buffer
    /// growth. This collects runs and then writes
    /// their ids out; callers that only need counts and nodes should
    /// match into a [`MatchArena`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the event's dimensionality differs from the space the
    /// matcher was built over.
    pub fn match_event_into(
        &self,
        event: &Point,
        scratch: &mut MatchScratch,
        subs: &mut Vec<SubscriptionId>,
        nodes: &mut Vec<NodeId>,
    ) {
        self.match_one(event, None, scratch, |arena| {
            self.write_event(arena, subs, nodes);
        });
    }

    /// Matches one event into the scratch's one-event arena and hands it
    /// to `read`.
    fn match_one<R>(
        &self,
        event: &Point,
        view: Option<&MatchOverlay<'_>>,
        scratch: &mut MatchScratch,
        read: impl FnOnce(&MatchArena) -> R,
    ) -> R {
        assert_eq!(
            event.dims(),
            self.slabs.dims(),
            "event dimensionality differs from the matcher's space"
        );
        let mut arena = std::mem::take(&mut scratch.single);
        arena.begin();
        self.append_event(event, view, scratch, &mut arena);
        let result = read(&arena);
        scratch.single = arena;
        result
    }

    /// Writes out the only event of a one-event arena.
    fn write_event(
        &self,
        arena: &MatchArena,
        subs: &mut Vec<SubscriptionId>,
        nodes: &mut Vec<NodeId>,
    ) {
        subs.clear();
        nodes.clear();
        covering::materialize_into(
            &self.covering,
            arena.run_slice(0),
            arena.loose_slice(0),
            subs,
        );
        nodes.extend_from_slice(arena.node_slice(0));
    }

    /// The subscriptions local event `local` of `arena` matched, as a
    /// lazy set over this matcher's covering runs. `arena` must have
    /// been filled by this matcher.
    pub fn matched_set(&self, arena: &MatchArena, local: usize) -> MatchedSet {
        MatchedSet::from_runs(
            &self.covering,
            arena.run_slice(local),
            arena.loose_slice(local),
            arena.match_count(local),
        )
    }

    /// Matches `event` and seals it as one arena event: the slab filter
    /// picks the candidate representatives, the covering table decides
    /// each exactly into hit runs, and the churn overlay is merged when
    /// `view` is given.
    ///
    /// A run stays a run — its index is recorded, its owner nodes come
    /// from the precomputed node set (or a walk over a small run's
    /// members) and no id is written — unless a tombstone sits inside
    /// it: then its live members join the loose hits. Those, with the
    /// overlay's matches, become the event's sorted loose ids. Owners
    /// dedup and sort through the `seen` bitmap (one bit per node id).
    fn append_event(
        &self,
        event: &Point,
        view: Option<&MatchOverlay<'_>>,
        scratch: &mut MatchScratch,
        arena: &mut MatchArena,
    ) {
        let MatchScratch {
            seen,
            rows,
            hits,
            runs,
            candidates,
            words: anded,
            ..
        } = scratch;
        let point = event.as_slice();
        let covering = &*self.covering;
        hits.clear();
        runs.clear();
        *anded += self.slabs.candidates(point, rows, |rep| {
            *candidates += 1;
            covering.hit_runs(rep, point, runs);
        });

        let max_node = view.map_or(self.max_node, |v| self.max_node.max(v.max_node));
        let words = max_node as usize / 64 + 1;
        if seen.len() < words {
            seen.resize(words, 0);
        }
        // Interested nodes accumulate as bits of `seen`; `span` is the
        // (first, last) word touched, which the tail of this function
        // drains.
        let mut span = (usize::MAX, 0usize);
        let mut run_members = 0usize;
        let dead = view.map(|v| v.tombstones).filter(|t| !t.is_empty());
        for &run in runs.iter() {
            let members = self.covering.run(run);
            if let Some(dead) = dead {
                if members.iter().any(|&m| dead.contains(EntryId(m))) {
                    let live = members.iter().map(|&m| EntryId(m));
                    hits.extend(live.filter(|&e| !dead.contains(e)));
                    continue;
                }
            }
            arena.runs.push(run);
            run_members += members.len();
            match self.covering.run_nodes(run) {
                Some(bits) => {
                    for (word, &row) in seen.iter_mut().zip(bits) {
                        *word |= row;
                    }
                    span = (0, span.1.max(bits.len() - 1));
                }
                None => {
                    for &m in members {
                        mark(seen, &mut span, self.owners[m as usize]);
                    }
                }
            }
        }
        if let Some(view) = view {
            view.overlay.query_point_into(event, hits);
        }

        let sub_start = arena.subs.len();
        arena.subs.extend(hits.iter().map(|&e| SubscriptionId(e.0)));
        arena.subs[sub_start..].sort_unstable();
        for &e in hits.iter() {
            let owner = match view {
                Some(v) if e.0 >= v.base_count => v.owners[(e.0 - v.base_count) as usize],
                _ => self.owners[e.0 as usize],
            };
            mark(seen, &mut span, owner);
        }

        // Draining the touched words in order yields the nodes ascending
        // and leaves the bitmap clean for the next event.
        if span.0 <= span.1 {
            for (w, word) in seen[span.0..=span.1].iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let node = (span.0 + w) as u32 * 64 + bits.trailing_zeros();
                    arena.nodes.push(NodeId(node));
                    bits &= bits - 1;
                }
            }
        }
        arena.end_event(run_members);
    }

    /// Largest subscriber node id seen at build time (used to size
    /// bitmaps).
    pub fn max_node_id(&self) -> u32 {
        self.max_node
    }

    /// [`Matcher::match_event_into`] merged with a churn overlay: compiled
    /// hits are filtered through `view.tombstones`, then the overlay is
    /// scanned linearly, and subscriptions/subscribers are sorted and
    /// deduplicated across both sources. Semantics are identical to a
    /// matcher freshly built over (compiled − removed) ∪ overlay, except
    /// that overlay subscriptions keep their overlay ids.
    ///
    /// # Panics
    ///
    /// Panics if the event's dimensionality differs from the space the
    /// matcher was built over.
    pub fn match_event_overlaid_into(
        &self,
        event: &Point,
        view: &MatchOverlay<'_>,
        scratch: &mut MatchScratch,
        subs: &mut Vec<SubscriptionId>,
        nodes: &mut Vec<NodeId>,
    ) {
        self.match_one(event, Some(view), scratch, |arena| {
            self.write_event(arena, subs, nodes);
        });
    }

    /// Matches the events at the given index `ranges` (ascending, e.g. a
    /// worker's [`pubsub_parallel::block_ranges`]) into a CSR
    /// [`MatchArena`]: one appended arena event per index, in range
    /// order. The per-event slices are identical to what
    /// [`Matcher::match_event_into`] (with `view`:
    /// [`Matcher::match_event_overlaid_into`]) produces; nothing is
    /// allocated once scratch and arena are warm.
    pub fn match_events_into_arena<I>(
        &self,
        events: &[Point],
        ranges: I,
        view: Option<&MatchOverlay<'_>>,
        scratch: &mut MatchScratch,
        arena: &mut MatchArena,
    ) where
        I: IntoIterator<Item = std::ops::Range<usize>>,
    {
        for i in ranges.into_iter().flatten() {
            self.append_event(&events[i], view, scratch, arena);
        }
    }
}

/// Sets `node`'s bit in the `seen` bitmap and widens the touched word
/// `span` to include it.
#[inline]
fn mark(seen: &mut [u64], span: &mut (usize, usize), node: NodeId) {
    let word = node.0 as usize / 64;
    seen[word] |= 1 << (node.0 % 64);
    *span = (span.0.min(word), span.1.max(word));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_geom::Interval;
    use pubsub_stree::{Entry, LinearScan, SpatialIndex};

    fn space() -> Space {
        Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap()
    }

    #[test]
    fn dedupes_subscribers_but_reports_all_subscriptions() {
        let m = Matcher::build(
            &space(),
            &[
                (
                    NodeId(3),
                    Rect::from_corners(&[0.0, 0.0], &[5.0, 5.0]).unwrap(),
                ),
                (
                    NodeId(3),
                    Rect::from_corners(&[1.0, 1.0], &[6.0, 6.0]).unwrap(),
                ),
                (
                    NodeId(5),
                    Rect::from_corners(&[8.0, 8.0], &[10.0, 10.0]).unwrap(),
                ),
            ],
            CoveringConfig::default(),
        )
        .unwrap();
        let (subs, nodes) = m.match_event(&Point::new(vec![2.0, 2.0]).unwrap());
        assert_eq!(subs, vec![SubscriptionId(0), SubscriptionId(1)]);
        assert_eq!(nodes, vec![NodeId(3)]);
        assert_eq!(m.owner(SubscriptionId(2)), NodeId(5));
        assert_eq!(m.subscription_count(), 3);
        assert_eq!(m.max_node_id(), 5);
    }

    #[test]
    fn unbounded_subscriptions_are_clamped_and_match() {
        let m = Matcher::build(
            &space(),
            &[(
                NodeId(1),
                Rect::new(vec![Interval::at_least(4.0), Interval::unbounded()]).unwrap(),
            )],
            CoveringConfig::default(),
        )
        .unwrap();
        let (_, nodes) = m.match_event(&Point::new(vec![5.0, 9.0]).unwrap());
        assert_eq!(nodes, vec![NodeId(1)]);
        let (_, nodes) = m.match_event(&Point::new(vec![3.0, 9.0]).unwrap());
        assert!(nodes.is_empty());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let err = Matcher::build(
            &space(),
            &[(NodeId(0), Rect::from_corners(&[0.0], &[1.0]).unwrap())],
            CoveringConfig::default(),
        );
        assert!(matches!(
            err,
            Err(BrokerError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn wrong_dimensional_event_panics() {
        let m = Matcher::build(&space(), &[], CoveringConfig::default()).unwrap();
        m.match_event(&Point::new(vec![1.0, 1.0, 1.0]).unwrap());
    }

    #[test]
    fn empty_matcher() {
        let m = Matcher::build(&space(), &[], CoveringConfig::default()).unwrap();
        let (subs, nodes) = m.match_event(&Point::new(vec![1.0, 1.0]).unwrap());
        assert!(subs.is_empty() && nodes.is_empty());
        assert_eq!(m.subscription_count(), 0);
    }

    #[test]
    fn scratch_reuse_is_clean_across_events() {
        let m = Matcher::build(
            &space(),
            &[
                (
                    NodeId(3),
                    Rect::from_corners(&[0.0, 0.0], &[5.0, 5.0]).unwrap(),
                ),
                (
                    NodeId(64),
                    Rect::from_corners(&[0.0, 0.0], &[5.0, 5.0]).unwrap(),
                ),
                (
                    NodeId(65),
                    Rect::from_corners(&[8.0, 8.0], &[10.0, 10.0]).unwrap(),
                ),
            ],
            CoveringConfig::default(),
        )
        .unwrap();
        let mut scratch = MatchScratch::new();
        let (mut subs, mut nodes) = (Vec::new(), Vec::new());
        let a = Point::new(vec![2.0, 2.0]).unwrap();
        let b = Point::new(vec![9.0, 9.0]).unwrap();
        m.match_event_into(&a, &mut scratch, &mut subs, &mut nodes);
        assert_eq!(nodes, vec![NodeId(3), NodeId(64)]);
        // A second match on the same scratch must not inherit stale bits
        // or hits.
        m.match_event_into(&b, &mut scratch, &mut subs, &mut nodes);
        assert_eq!(subs, vec![SubscriptionId(2)]);
        assert_eq!(nodes, vec![NodeId(65)]);
        m.match_event_into(&a, &mut scratch, &mut subs, &mut nodes);
        assert_eq!(nodes, vec![NodeId(3), NodeId(64)]);
    }

    #[test]
    fn overlaid_matching_equals_fresh_build_over_survivors() {
        // Base: 4 subscriptions; kill one compiled, add two via overlay.
        let base = vec![
            (
                NodeId(3),
                Rect::from_corners(&[0.0, 0.0], &[5.0, 5.0]).unwrap(),
            ),
            (
                NodeId(4),
                Rect::from_corners(&[0.0, 0.0], &[5.0, 5.0]).unwrap(),
            ),
            (
                NodeId(5),
                Rect::from_corners(&[4.0, 4.0], &[9.0, 9.0]).unwrap(),
            ),
            (
                NodeId(3),
                Rect::from_corners(&[8.0, 0.0], &[10.0, 10.0]).unwrap(),
            ),
        ];
        let m = Matcher::build(&space(), &base, CoveringConfig::default()).unwrap();
        let mut overlay = DeltaOverlay::new();
        let mut tombstones = Tombstones::new();
        tombstones.insert(EntryId(1)); // drop NodeId(4)'s subscription
        let added = [
            (
                NodeId(70),
                Rect::from_corners(&[0.0, 0.0], &[9.0, 9.0]).unwrap(),
            ),
            (
                NodeId(2),
                Rect::from_corners(&[4.0, 4.0], &[6.0, 6.0]).unwrap(),
            ),
        ];
        let mut owners = Vec::new();
        for (i, (n, r)) in added.iter().enumerate() {
            overlay
                .insert(Entry::new(r.clone(), EntryId(4 + i as u32)))
                .unwrap();
            owners.push(*n);
        }
        let view = MatchOverlay {
            overlay: &overlay,
            owners: &owners,
            tombstones: &tombstones,
            base_count: 4,
            max_node: 70,
        };

        // Oracle: fresh matcher over survivors + additions.
        let survivors: Vec<(NodeId, Rect)> = vec![
            base[0].clone(),
            base[2].clone(),
            base[3].clone(),
            added[0].clone(),
            added[1].clone(),
        ];
        let fresh = Matcher::build(&space(), &survivors, CoveringConfig::default()).unwrap();

        let mut scratch = MatchScratch::new();
        let (mut subs, mut nodes) = (Vec::new(), Vec::new());
        let events: Vec<Point> = (0..40)
            .map(|i| {
                Point::new(vec![f64::from(i) * 1.37 % 10.0, f64::from(i) * 2.11 % 10.0]).unwrap()
            })
            .collect();
        for e in &events {
            m.match_event_overlaid_into(e, &view, &mut scratch, &mut subs, &mut nodes);
            let (_, fresh_nodes) = fresh.match_event(e);
            assert_eq!(nodes, fresh_nodes, "event {e:?}");
        }
    }

    /// The reference matches of `subs`: a linear scan over the clamped
    /// rectangles, ids ascending, owner nodes deduplicated ascending.
    fn scan_match(
        scan: &LinearScan,
        subs: &[(NodeId, Rect)],
        e: &Point,
    ) -> (Vec<SubscriptionId>, Vec<NodeId>) {
        let ids: Vec<SubscriptionId> = scan
            .query_point(e)
            .into_iter()
            .map(|id| SubscriptionId(id.0))
            .collect();
        let mut nodes: Vec<NodeId> = ids.iter().map(|id| subs[id.0 as usize].0).collect();
        nodes.sort_unstable();
        nodes.dedup();
        (ids, nodes)
    }

    /// Every covering configuration matches exactly what a linear scan
    /// over the clamped rectangles matches, and so does the
    /// interning-only build, one event at a time and into one arena.
    #[test]
    fn covered_and_interned_matchers_equal_a_linear_scan() {
        // Duplicate-heavy with nesting: exercises interning, subsumption
        // and the quantized merge at once.
        let mut subs: Vec<(NodeId, Rect)> = Vec::new();
        for i in 0..200u32 {
            let k = f64::from(i % 5);
            subs.push((
                NodeId(i % 17),
                Rect::from_corners(&[k, k * 0.3], &[k + 4.0, k * 0.3 + 5.0]).unwrap(),
            ));
        }
        for i in 0..40u32 {
            let k = f64::from(i % 8) * 0.01;
            subs.push((
                NodeId(i % 11),
                Rect::from_corners(&[1.0 + k, 1.0], &[2.0 + k, 2.0]).unwrap(),
            ));
        }
        let scan = LinearScan::new(
            subs.iter()
                .enumerate()
                .map(|(i, (_, r))| Entry::new(space().clamp(r), EntryId(i as u32)))
                .collect(),
        )
        .unwrap();
        // The interning-only build: one representative per distinct
        // rectangle, nothing subsumed or merged.
        let interned = Matcher::build(
            &space(),
            &subs,
            CoveringConfig {
                max_covers: 0,
                ..CoveringConfig::default()
            },
        )
        .unwrap();
        let stats = interned.covering_stats();
        assert_eq!((stats.subsumed, stats.merged), (0, 0));
        assert_eq!(stats.representatives, stats.uniques);
        for cfg in [
            CoveringConfig::default(),
            CoveringConfig {
                merge_cells: 64,
                min_cover_members: 2,
                ..CoveringConfig::default()
            },
        ] {
            let covered = Matcher::build_covered(&space(), &subs.as_slice(), &cfg).unwrap();
            let stats = covered.covering_stats();
            assert_eq!(stats.concrete, subs.len());
            assert!(stats.representatives < subs.len());
            assert!(stats.representatives <= interned.covering_stats().representatives);
            assert_eq!(covered.subscription_count(), subs.len());
            assert_eq!(covered.max_node_id(), 16);
            let events: Vec<Point> = (0..120)
                .map(|i| {
                    Point::new(vec![f64::from(i) * 1.37 % 10.0, f64::from(i) * 2.11 % 10.0])
                        .unwrap()
                })
                .collect();
            for e in &events {
                let want = scan_match(&scan, &subs, e);
                assert_eq!(covered.match_event(e), want, "event {e:?}");
                assert_eq!(interned.match_event(e), want, "event {e:?}");
            }
            // One arena over all events agrees with the scan too.
            let mut scratch = MatchScratch::new();
            let mut arena = MatchArena::new();
            arena.begin();
            covered.match_events_into_arena(
                &events,
                std::iter::once(0..events.len()),
                None,
                &mut scratch,
                &mut arena,
            );
            for (i, e) in events.iter().enumerate() {
                let (subs_want, nodes_want) = scan_match(&scan, &subs, e);
                // Run-level: no id was written, the count is the run sum.
                assert!(arena.loose_slice(i).is_empty(), "event {i}");
                assert_eq!(arena.match_count(i), subs_want.len(), "event {i}");
                assert_eq!(
                    &covered.matched_set(&arena, i)[..],
                    &subs_want[..],
                    "event {i}"
                );
                assert_eq!(arena.node_slice(i), &nodes_want[..], "event {i}");
            }
        }
    }

    /// No cliff at large `R`: 65,536 disjoint boxes on a 256 × 256
    /// lattice, subscribed in a scrambled order. A flat AND would read
    /// `dims × R/64` = 2,048 words per event; every event here must AND
    /// at most an eighth of that. Without the summary level each event
    /// reads all 2,048; without the Hilbert renumbering a bitmap word
    /// holds 64 boxes scattered over the lattice and most summary bits
    /// survive the AND.
    #[test]
    fn summary_and_hilbert_order_bound_the_words_per_event() {
        use rand::{Rng, SeedableRng};
        let side = 256u32;
        let mut cells: Vec<u32> = (0..side * side).collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for i in (1..cells.len()).rev() {
            cells.swap(i, rng.gen_range(0..=i));
        }
        let subs: Vec<(NodeId, Rect)> = cells
            .iter()
            .map(|&c| {
                let (x, y) = (f64::from(c % side), f64::from(c / side));
                let lo = [x + 0.1, y + 0.1];
                (
                    NodeId(c % 97),
                    Rect::from_corners(&lo, &[x + 0.9, y + 0.9]).unwrap(),
                )
            })
            .collect();
        let space = Space::anonymous(
            Rect::from_corners(&[0.0, 0.0], &[f64::from(side), f64::from(side)]).unwrap(),
        )
        .unwrap();
        let m = Matcher::build(&space, &subs, CoveringConfig::default()).unwrap();
        assert_eq!(m.covering_stats().representatives, subs.len());
        let flat_words = 2 * subs.len() as u64 / 64;
        let mut scratch = MatchScratch::new();
        let (mut ids, mut nodes) = (Vec::new(), Vec::new());
        for (i, &c) in cells.iter().enumerate().step_by(37) {
            let (x, y) = (f64::from(c % side), f64::from(c / side));
            let event = Point::new(vec![x + 0.5, y + 0.5]).unwrap();
            m.match_event_into(&event, &mut scratch, &mut ids, &mut nodes);
            assert_eq!(ids, vec![SubscriptionId(i as u32)], "event {event:?}");
            let (candidates, words) = scratch.take_work();
            assert!(candidates >= 1);
            assert!(
                words * 8 <= flat_words,
                "event {event:?} ANDed {words} of {flat_words} words"
            );
        }
    }
}
