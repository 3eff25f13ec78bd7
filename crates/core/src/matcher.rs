//! The matching problem (paper §3): event → interested subscribers.
//!
//! One [`Matcher`] answers every match, from the build through any
//! churn: subscribe and unsubscribe edit its slab filter and covering
//! table in place, so there is no second source to merge.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use pubsub_geom::{Point, Rect, Space};
use pubsub_netsim::NodeId;

use crate::covering::{self, build_covering, CoveringConfig, CoveringStats, CoveringTable};
use crate::pipeline::MatchArena;
use crate::slab::SlabFilter;
use crate::{BrokerError, MatchedSet, SubscriptionStream};

/// Identifier of one subscription (one rectangle; a subscriber may own
/// several).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
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
/// Between recompiles the broker edits its matcher in place:
/// `Matcher::insert` appends a singleton representative and sets its
/// slab bits, `Matcher::remove` deletes an id from its run. Runs hold
/// only live members, so the match path is the same before and after
/// churn.
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
/// event's slab rows, its hit runs, the subscriber dedup
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

    /// Adds a subscription of `node` over `clamped` (a rectangle already
    /// clamped to the space) and returns its id, the next unused one. It
    /// becomes one more representative — a single identity group — with
    /// its slab bits set under the build's extent; nothing is interned
    /// or renumbered until the next compile.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle's dimensionality differs from the space
    /// the matcher was built over.
    pub(crate) fn insert(&mut self, node: NodeId, clamped: &Rect) -> SubscriptionId {
        assert_eq!(
            clamped.dims(),
            self.slabs.dims(),
            "rectangle dimensionality"
        );
        let id = SubscriptionId(self.owners.len() as u32);
        let rep = Arc::make_mut(&mut self.covering).push_singleton(clamped, id.0);
        let sides = clamped.sides();
        self.slabs
            .push(rep as usize, |d| (sides[d].lo(), sides[d].hi()));
        self.owners.push(node);
        self.max_node = self.max_node.max(node.0);
        id
    }

    /// Removes live subscription `id`, whose clamped rectangle is
    /// `clamped`, from its run. The run is found through the slab
    /// filter: its representative contains the rectangle, so it is a
    /// candidate of the rectangle's `hi` corner. A representative left
    /// with no member drops out of the filter. The id is not reused.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live with that rectangle.
    pub(crate) fn remove(&mut self, id: SubscriptionId, clamped: &Rect) {
        let corner: Vec<f64> = clamped.sides().iter().map(|s| s.hi()).collect();
        let mut found = None;
        self.slabs.candidates(&corner, &mut Vec::new(), |rep| {
            found = found.or_else(|| self.covering.group_of(rep, id.0).map(|g| (rep, g)));
        });
        let (rep, group) = found.expect("a live id is in a run of a candidate");
        let covering = Arc::make_mut(&mut self.covering);
        if covering.remove_member(rep, group, id.0, &self.owners) {
            self.slabs.clear(rep as usize);
        }
    }

    /// The covering table the matcher queries.
    pub(crate) fn covering(&self) -> &CoveringTable {
        &self.covering
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

    /// Number of live subscriptions: the compiled ones still live plus
    /// those inserted since.
    pub fn subscription_count(&self) -> usize {
        self.covering.live_count()
    }

    /// The subscriber node owning a subscription — any id the matcher
    /// assigned, removed ones included.
    ///
    /// # Panics
    ///
    /// Panics if the id was never assigned.
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
        assert_eq!(
            event.dims(),
            self.slabs.dims(),
            "event dimensionality differs from the matcher's space"
        );
        let mut arena = std::mem::take(&mut scratch.single);
        arena.begin();
        self.append_event(event, scratch, &mut arena);
        subs.clear();
        nodes.clear();
        covering::materialize_into(&self.covering, arena.run_slice(0), subs);
        nodes.extend_from_slice(arena.node_slice(0));
        scratch.single = arena;
    }

    /// The subscriptions local event `local` of `arena` matched, as a
    /// lazy set over this matcher's covering runs. `arena` must have
    /// been filled by this matcher.
    pub fn matched_set(&self, arena: &MatchArena, local: usize) -> MatchedSet {
        MatchedSet::from_runs(
            &self.covering,
            arena.run_slice(local),
            arena.match_count(local),
        )
    }

    /// Matches `event` and seals it as one arena event: the slab filter
    /// picks the candidate representatives and the covering table
    /// decides each exactly into hit runs.
    ///
    /// A run stays a run — its index is recorded, its owner nodes come
    /// from the precomputed node set (or a walk over a small run's
    /// members) and no id is written. Owners dedup and sort through the
    /// `seen` bitmap (one bit per node id).
    fn append_event(&self, event: &Point, scratch: &mut MatchScratch, arena: &mut MatchArena) {
        let MatchScratch {
            seen,
            rows,
            runs,
            candidates,
            words: anded,
            ..
        } = scratch;
        let point = event.as_slice();
        let covering = &*self.covering;
        runs.clear();
        *anded += self.slabs.candidates(point, rows, |rep| {
            *candidates += 1;
            covering.hit_runs(rep, point, runs);
        });

        let words = self.max_node as usize / 64 + 1;
        if seen.len() < words {
            seen.resize(words, 0);
        }
        // Interested nodes accumulate as bits of `seen`; `span` is the
        // (first, last) word touched, which the tail of this function
        // drains.
        let mut span = (usize::MAX, 0usize);
        let mut run_members = 0usize;
        for &run in runs.iter() {
            let members = covering.run(run);
            arena.runs.push(run);
            run_members += members.len();
            match covering.run_nodes(run) {
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

    /// Matches the events at the given index `ranges` (ascending, e.g. a
    /// worker's [`pubsub_parallel::block_ranges`]) into a CSR
    /// [`MatchArena`]: one appended arena event per index, in range
    /// order. The per-event slices are identical to what
    /// [`Matcher::match_event_into`] produces; nothing is allocated once
    /// scratch and arena are warm.
    pub fn match_events_into_arena<I>(
        &self,
        events: &[Point],
        ranges: I,
        scratch: &mut MatchScratch,
        arena: &mut MatchArena,
    ) where
        I: IntoIterator<Item = std::ops::Range<usize>>,
    {
        for i in ranges.into_iter().flatten() {
            self.append_event(&events[i], scratch, arena);
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
    use proptest::prelude::*;
    use pubsub_geom::Interval;
    use pubsub_stree::{Entry, EntryId, LinearScan, SpatialIndex};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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
                &mut scratch,
                &mut arena,
            );
            for (i, e) in events.iter().enumerate() {
                let (subs_want, nodes_want) = scan_match(&scan, &subs, e);
                // Run-level: no id was written, the count is the run sum.
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
        let side = 256u32;
        let mut cells: Vec<u32> = (0..side * side).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
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

    /// The live subscriptions of a churned matcher, in id order, with
    /// the rectangles the matcher was given for them.
    type Live = Vec<(SubscriptionId, NodeId, Rect)>;

    /// Asserts that `m` matches every event exactly as a linear scan
    /// over `live` does — ids and nodes, one event at a time and into
    /// one arena — and that no arena run is empty.
    fn assert_matches_scan(m: &Matcher, live: &Live, events: &[Point]) {
        let scan = LinearScan::new(
            live.iter()
                .map(|(id, _, r)| Entry::new(r.clone(), EntryId(id.0)))
                .collect(),
        )
        .unwrap();
        let mut scratch = MatchScratch::new();
        let mut arena = MatchArena::new();
        arena.begin();
        m.match_events_into_arena(
            events,
            std::iter::once(0..events.len()),
            &mut scratch,
            &mut arena,
        );
        for (i, e) in events.iter().enumerate() {
            let ids: Vec<SubscriptionId> = scan
                .query_point(e)
                .into_iter()
                .map(|id| SubscriptionId(id.0))
                .collect();
            let mut nodes: Vec<NodeId> = live
                .iter()
                .filter(|(id, _, _)| ids.binary_search(id).is_ok())
                .map(|&(_, n, _)| n)
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(
                m.match_event(e),
                (ids.clone(), nodes.clone()),
                "event {e:?}"
            );
            assert_eq!(&m.matched_set(&arena, i)[..], &ids[..], "event {e:?}");
            assert_eq!(arena.node_slice(i), &nodes[..], "event {e:?}");
            for &run in arena.run_slice(i) {
                assert!(
                    !m.covering.run(run).is_empty(),
                    "empty run {run} reached the arena"
                );
            }
        }
    }

    /// A coordinate on the grid of 64ths of `[0, 10]`.
    fn grid(rng: &mut ChaCha8Rng) -> f64 {
        f64::from(rng.gen_range(0..=64u32)) * (10.0 / 64.0)
    }

    /// An event coordinate along `d`: a slab edge of the space, a bound
    /// of a live rectangle, an extreme value, or anywhere around the
    /// space. Events are finite ([`Point::new`] rejects NaN and ±∞, which
    /// the slab filter's own tests feed it directly), so an infinite
    /// bound becomes the largest finite value of its sign.
    fn coordinate(rng: &mut ChaCha8Rng, live: &Live, d: usize) -> f64 {
        let x = match rng.gen_range(0..8u32) {
            0 | 1 => grid(rng),
            2 | 3 if !live.is_empty() => {
                let side = live[rng.gen_range(0..live.len())].2.side(d);
                if rng.gen_bool(0.5) {
                    side.lo()
                } else {
                    side.hi()
                }
            }
            4 => [f64::MAX, f64::MIN, 1e300, -1e300][rng.gen_range(0..4usize)],
            _ => rng.gen_range(-3.0..13.0),
        };
        if x.is_finite() {
            x
        } else {
            f64::MAX.copysign(x)
        }
    }

    /// A rectangle to subscribe after the build: anywhere, often outside
    /// the build's extent, with infinite or zero-wide sides.
    fn churn_rect(rng: &mut ChaCha8Rng, dims: usize) -> Rect {
        let sides = (0..dims)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => Interval::unbounded(),
                1 => Interval::at_least(rng.gen_range(-5.0..15.0)),
                2 => Interval::at_most(rng.gen_range(-5.0..15.0)),
                3 => Interval::empty_at(grid(rng)),
                4 => {
                    let a = rng.gen_range(-20.0..-1.0);
                    Interval::new(a, a + rng.gen_range(0.0..3.0)).unwrap()
                }
                _ => {
                    let (a, b) = (grid(rng), grid(rng));
                    Interval::new(a.min(b), a.max(b)).unwrap()
                }
            })
            .collect();
        Rect::new(sides).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Subscribe and unsubscribe edit the matcher in place, and after
        /// every op it matches exactly what a linear scan over the live
        /// subscriptions matches. The build is duplicate- and
        /// nesting-heavy (subsumed and merged groups, multi-member ones
        /// with node bitmaps); the ops remove from those groups, empty
        /// groups and whole representatives, re-subscribe identical
        /// rectangles, remove just-added ids and add rectangles outside
        /// the build's extent, with infinite or zero-wide sides, past
        /// 64-representative word boundaries.
        #[test]
        fn in_place_churn_equals_a_linear_scan(
            dims in 1usize..=3,
            merge in prop::bool::ANY,
            shape in 0u32..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let space = Space::anonymous(
                Rect::from_corners(&vec![0.0; dims], &vec![10.0; dims]).unwrap(),
            )
            .unwrap();
            let count = match shape {
                0 => 0,
                1 => rng.gen_range(1..8usize),
                2 => rng.gen_range(56..64usize),
                _ => rng.gen_range(100..160usize),
            };
            // Three popular wide boxes (cover candidates); boxes nested
            // in all three, a few subscribers each (multi-member
            // subsumed groups with node bitmaps); and single boxes a
            // hair apart near the origin (merged into one hull).
            let boxes = |rng: &mut ChaCha8Rng, n: usize, lo: (f64, f64), hi: (f64, f64)| {
                (0..n)
                    .map(|_| {
                        let sides = (0..dims)
                            .map(|_| {
                                let (a, b) = (rng.gen_range(lo.0..lo.1), rng.gen_range(hi.0..hi.1));
                                Interval::new(a, b).unwrap()
                            })
                            .collect();
                        Rect::new(sides).unwrap()
                    })
                    .collect::<Vec<Rect>>()
            };
            let wide = boxes(&mut rng, 3, (2.0, 4.0), (6.0, 8.0));
            let nested = boxes(&mut rng, (count / 8).max(1), (4.0, 5.0), (5.0, 6.0));
            let subs: Vec<(NodeId, Rect)> = (0..count)
                .map(|_| {
                    let r = match rng.gen_range(0..3u32) {
                        0 => wide[rng.gen_range(0..wide.len())].clone(),
                        1 => nested[rng.gen_range(0..nested.len())].clone(),
                        _ => boxes(&mut rng, 1, (0.6, 0.61), (1.6, 1.61)).remove(0),
                    };
                    (NodeId(rng.gen_range(0..7)), r)
                })
                .collect();
            let config = CoveringConfig {
                merge_cells: if merge { 8 } else { 0 },
                ..CoveringConfig::default()
            };
            let mut m = Matcher::build_covered(&space, &subs.as_slice(), &config).unwrap();
            if count >= 100 {
                let stats = m.covering_stats();
                prop_assert!(stats.subsumed > 0 && (stats.merged > 0) == merge, "{:?}", stats);
            }
            let mut live: Live = subs
                .iter()
                .enumerate()
                .map(|(i, (n, r))| (SubscriptionId(i as u32), *n, space.clamp(r)))
                .collect();
            for _ in 0..48 {
                match rng.gen_range(0..10u32) {
                    // Remove one.
                    0..=2 if !live.is_empty() => {
                        let (id, _, r) = live.remove(rng.gen_range(0..live.len()));
                        m.remove(id, &r);
                    }
                    // Remove every subscription sharing one's rectangle:
                    // empties its group, often its representative.
                    3 if !live.is_empty() => {
                        let r = live[rng.gen_range(0..live.len())].2.clone();
                        for (id, _, rr) in live.iter().filter(|(_, _, rr)| *rr == r) {
                            m.remove(*id, rr);
                        }
                        live.retain(|(_, _, rr)| *rr != r);
                    }
                    // Re-subscribe a live rectangle.
                    4 if !live.is_empty() => {
                        let r = live[rng.gen_range(0..live.len())].2.clone();
                        let node = NodeId(rng.gen_range(0..7));
                        live.push((m.insert(node, &r), node, r));
                    }
                    // Add and remove at once.
                    5 => {
                        let r = churn_rect(&mut rng, dims);
                        let id = m.insert(NodeId(3), &r);
                        m.remove(id, &r);
                    }
                    // Add, sometimes from a node past the build's.
                    _ => {
                        let r = churn_rect(&mut rng, dims);
                        let node = NodeId(rng.gen_range(0..150));
                        live.push((m.insert(node, &r), node, r));
                    }
                }
                prop_assert_eq!(m.subscription_count(), live.len());
                let events: Vec<Point> = (0..12)
                    .map(|_| {
                        Point::new((0..dims).map(|d| coordinate(&mut rng, &live, d)).collect())
                            .unwrap()
                    })
                    .collect();
                assert_matches_scan(&m, &live, &events);
            }
        }
    }

    /// Growth past the 4,096th representative opens a second summary
    /// word; the matcher keeps matching exactly across it, and removing
    /// the new representatives again empties their words.
    #[test]
    fn growth_across_the_summary_word_keeps_matches_exact() {
        let space =
            Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[64.0, 64.0]).unwrap()).unwrap();
        let cell = |c: u32| {
            let (x, y) = (f64::from(c % 64), f64::from(c / 64));
            Rect::from_corners(&[x, y], &[x + 1.0, y + 1.0]).unwrap()
        };
        let subs: Vec<(NodeId, Rect)> = (0..4_090).map(|c| (NodeId(c % 61), cell(c))).collect();
        let mut m = Matcher::build(&space, &subs, CoveringConfig::default()).unwrap();
        let mut live: Live = subs
            .iter()
            .enumerate()
            .map(|(i, (n, r))| (SubscriptionId(i as u32), *n, r.clone()))
            .collect();
        // 4,090 -> 4,110 representatives: the last six cells, then
        // fourteen out of the build's extent.
        for k in 0..20u32 {
            let r = if k < 6 {
                cell(4_090 + k)
            } else {
                let x = 70.0 + f64::from(k);
                Rect::from_corners(&[x, -3.0], &[x + 0.5, 80.0]).unwrap()
            };
            live.push((m.insert(NodeId(k), &r), NodeId(k), r));
        }
        assert_eq!(m.slabs.summary_word_in_use(1), Some(true));
        assert_eq!(m.slabs.summary_word_in_use(2), None);
        let events: Vec<Point> = (0..300u32)
            .map(|i| {
                let c = (i * 113) % 4_096;
                let x = if i % 5 == 0 {
                    70.0 + f64::from(i % 20) + 0.25
                } else {
                    f64::from(c % 64) + 0.5
                };
                Point::new(vec![x, f64::from(c / 64) + 0.5]).unwrap()
            })
            .collect();
        assert_matches_scan(&m, &live, &events);
        for (id, _, r) in live.drain(4_090..) {
            m.remove(id, &r);
        }
        assert_matches_scan(&m, &live, &events);
        assert_eq!(m.slabs.summary_word_in_use(1), Some(false));
    }
}
