//! Pre-compilation subscription covering/aggregation.
//!
//! At the ROADMAP's millions-of-subscriptions scale, real workloads are
//! heavily skewed: many subscribers issue the *same* rectangle (hot
//! stocks, popular topics) or rectangles nested inside a few broad
//! ones. Compiling each concrete subscription into its own index entry
//! wastes both index memory and match time on duplicates the delivery
//! step must deduplicate anyway.
//!
//! This module computes, before `compile_engine` builds the spatial
//! index, a deduplicated **representative** set plus a covering table
//! mapping each representative hit back to the concrete
//! [`SubscriptionId`]s it stands for — as whole
//! *runs* (a group's ascending member ids with its precomputed owner-node
//! set), which the publish path carries in place of the ids and which a
//! [`MatchedSet`] writes out only when read:
//!
//! 1. **Exact-duplicate interning** — bit-identical (clamped)
//!    rectangles collapse to one unique rectangle with a member list.
//! 2. **Subsumption** — the most-subscribed uniques become *cover
//!    candidates*; any unique rectangle contained in a candidate is
//!    absorbed into it and matched via the candidate's index entry
//!    plus an exact per-group re-check (A ⊇ B means every point in B
//!    hits A, so indexing only A loses nothing as long as B's members
//!    re-check B).
//! 3. **Quantized merge** (optional) — near-identical uniques whose
//!    bounds fall in the same coarse grid cells merge into their hull,
//!    again with per-group exact re-checks.
//!
//! Delivered sets stay **bit-identical** to the unaggregated build:
//! every concrete subscription is a member of exactly one group, a
//! group's members are delivered iff the point passes the group's
//! exact `f64` rectangle test, and that rectangle is the subscription's
//! own (clamped) rectangle — identity groups merely skip the test
//! because their rectangle *is* the representative's, which was already
//! tested. The covering-parity proptests in `tests/covering_parity.rs`
//! pin this end to end.
//!
//! Runs hold only live members. Between recompiles the matcher edits
//! the table in place: `Matcher::insert` appends a singleton
//! representative (an identity group of one), and `Matcher::remove`
//! deletes an id from its run, giving a run it empties a re-check
//! rectangle nothing passes.

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use pubsub_geom::{Interval, Rect, Space};
use pubsub_netsim::NodeId;

use crate::slab::hilbert_order;
use crate::{BrokerError, SubscriptionId};

/// Knobs of the covering layer. The defaults aggregate duplicates and
/// obvious subsumptions; `merge_cells` enables the lossier (but still
/// exactly re-checked) quantized merge of near-identical rectangles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoveringConfig {
    /// Maximum number of cover candidates considered for subsumption
    /// (the most-subscribed unique rectangles). Each non-candidate
    /// unique is tested against every candidate, so this bounds the
    /// aggregation pass at `O(uniques × max_covers × dims)`.
    pub max_covers: usize,
    /// Minimum members a unique needs to become a cover candidate.
    pub min_cover_members: usize,
    /// Grid resolution (cells per dimension) of the quantized merge of
    /// near-identical rectangles; `0` disables the merge pass.
    pub merge_cells: u32,
}

impl Default for CoveringConfig {
    fn default() -> Self {
        CoveringConfig {
            max_covers: 64,
            min_cover_members: 4,
            merge_cells: 0,
        }
    }
}

/// Aggregation statistics of one covering build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoveringStats {
    /// Concrete subscriptions streamed in.
    pub concrete: usize,
    /// Distinct rectangles after interning.
    pub uniques: usize,
    /// Representatives actually compiled into the index.
    pub representatives: usize,
    /// Uniques absorbed into a covering candidate.
    pub subsumed: usize,
    /// Uniques merged into a quantized hull.
    pub merged: usize,
}

impl CoveringStats {
    /// Concrete subscriptions per compiled index entry (≥ 1).
    pub fn aggregation_ratio(&self) -> f64 {
        if self.representatives == 0 {
            1.0
        } else {
            self.concrete as f64 / self.representatives as f64
        }
    }
}

/// A replayable stream of `(subscriber, rectangle)` pairs — the input
/// of the streaming compile path — whose rectangles are named by id, so
/// a compile does its per-rectangle work once per id, not once per
/// subscription. Implemented for slices (tests, benches; the index is
/// the id) and by the broker's registry (one id per distinct rectangle),
/// so a recompile never has to materialize an O(N) rectangle array.
pub trait SubscriptionStream {
    /// Number of subscriptions the stream yields.
    fn len(&self) -> usize;
    /// Whether the stream is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Rectangle ids are `0..rect_count()`; an id no subscription names
    /// is never read.
    fn rect_count(&self) -> usize;
    /// The sides of rectangle `rect`.
    fn sides(&self, rect: u32) -> &[Interval];
    /// Calls `f` once per subscription with its node and rectangle id,
    /// in stable subscription-id order. Replayable: every call visits the
    /// same pairs in the same order.
    fn for_each(&self, f: &mut dyn FnMut(NodeId, u32));
}

impl SubscriptionStream for &[(NodeId, Rect)] {
    fn len(&self) -> usize {
        <[_]>::len(self)
    }

    fn rect_count(&self) -> usize {
        <[_]>::len(self)
    }

    fn sides(&self, rect: u32) -> &[Interval] {
        self[rect as usize].1.sides()
    }

    fn for_each(&self, f: &mut dyn FnMut(NodeId, u32)) {
        for (i, (node, _)) in self.iter().enumerate() {
            f(*node, i as u32);
        }
    }
}

/// The covering table: exact representative bounds (for the exact
/// test of each candidate) plus a two-level CSR mapping each
/// representative to its groups and each group to its concrete member
/// subscription ids. A group's member list is a **run**: ascending ids,
/// delivered or skipped as a whole, so the publish path carries the
/// group index instead of the ids (see [`MatchedSet`]).
///
/// Layout: representatives are numbered along the Hilbert curve of
/// their centres (the slot order of the matcher's slab bitmaps). Their
/// bounds and the group re-check rectangles are row-major
/// (`rep_bounds[r * dims + d]`, `grect_lo[g * dims + d]`) because each
/// is tested one candidate at a time.
#[derive(Debug, Clone, Default)]
pub struct CoveringTable {
    dims: usize,
    /// Exact (clamped) representative bounds `(lo, hi)`, row-major.
    rep_bounds: Vec<(f64, f64)>,
    /// Representative → group span: groups of rep `r` are
    /// `group_rect[group_start[r]..group_start[r + 1]]`.
    group_start: Vec<u32>,
    /// Per group: `u32::MAX` when the group's rectangle equals the
    /// representative's (identity — no re-check needed), else the row
    /// of the group's exact rectangle in `grect_lo`/`grect_hi`.
    group_rect: Vec<u32>,
    /// Group → member span over `members`.
    group_member_start: Vec<u32>,
    /// Concrete subscription ids, grouped; every id appears exactly
    /// once across the whole table.
    members: Vec<u32>,
    /// Exact rectangles of non-identity groups, row-major.
    grect_lo: Vec<f64>,
    grect_hi: Vec<f64>,
    /// Per group: the row of its owner-node bitmap in `node_bits`, or
    /// `u32::MAX` for a group too small to be worth one (its owners are
    /// looked up member by member).
    group_nodes: Vec<u32>,
    /// Owner-node bitmaps of the large groups, `node_words` words each:
    /// bit `n` is set iff some member is owned by node `n`.
    node_bits: Vec<u64>,
    node_words: usize,
    stats: CoveringStats,
}

impl CoveringTable {
    /// Number of representatives.
    pub fn rep_count(&self) -> usize {
        if self.group_start.is_empty() {
            0
        } else {
            self.group_start.len() - 1
        }
    }

    /// Number of live subscriptions: the members of every run.
    pub(crate) fn live_count(&self) -> usize {
        self.members.len()
    }

    /// Aggregation statistics of the build.
    pub fn stats(&self) -> &CoveringStats {
        &self.stats
    }

    /// Exact bounds of representative `r` along dimension `d`.
    #[inline]
    pub fn rep_bounds(&self, r: usize, d: usize) -> (f64, f64) {
        self.rep_bounds[r * self.dims + d]
    }

    /// Bytes of heap held by the table arrays.
    pub fn heap_bytes(&self) -> usize {
        (2 * self.rep_bounds.capacity()
            + self.grect_lo.capacity()
            + self.grect_hi.capacity()
            + self.node_bits.capacity())
            * 8
            + (self.group_start.capacity()
                + self.group_rect.capacity()
                + self.group_member_start.capacity()
                + self.members.capacity()
                + self.group_nodes.capacity())
                * 4
    }

    /// Appends a representative with the bounds of `rect` standing for
    /// one identity group whose only member is `id`, and returns its
    /// index. Nothing is interned: the next compile does that.
    pub(crate) fn push_singleton(&mut self, rect: &Rect, id: u32) -> u32 {
        let rep = self.rep_count() as u32;
        if self.group_start.is_empty() {
            self.group_start.push(0);
            self.group_member_start.push(0);
        }
        let sides = rect.sides().iter();
        self.rep_bounds.extend(sides.map(|s| (s.lo(), s.hi())));
        self.group_rect.push(u32::MAX);
        self.group_nodes.push(u32::MAX);
        self.group_start.push(self.group_rect.len() as u32);
        self.members.push(id);
        self.group_member_start.push(self.members.len() as u32);
        rep
    }

    /// The group of representative `rep` whose run holds `id`.
    pub(crate) fn group_of(&self, rep: u32, id: u32) -> Option<u32> {
        let r = rep as usize;
        (self.group_start[r]..self.group_start[r + 1])
            .find(|&g| self.run(g).binary_search(&id).is_ok())
    }

    /// Deletes `id` from the run of `group`, a group of `rep`, keeping
    /// the run ascending; a node bitmap is recomputed over the members
    /// left (owned per `owners`). An emptied group gets an empty
    /// re-check rectangle, so it never reaches a match. Returns whether
    /// every group of `rep` is now empty.
    pub(crate) fn remove_member(
        &mut self,
        rep: u32,
        group: u32,
        id: u32,
        owners: &[NodeId],
    ) -> bool {
        let g = group as usize;
        let start = self.group_member_start[g] as usize;
        let pos = self.run(group).binary_search(&id).expect("id is a member");
        self.members.remove(start + pos);
        for s in &mut self.group_member_start[g + 1..] {
            *s -= 1;
        }
        let span = start..self.group_member_start[g + 1] as usize;
        if self.group_nodes[g] != u32::MAX {
            let row = self.group_nodes[g] as usize * self.node_words;
            let bits = &mut self.node_bits[row..][..self.node_words];
            bits.fill(0);
            for &m in &self.members[span.clone()] {
                let node = owners[m as usize].0 as usize;
                bits[node / 64] |= 1 << (node % 64);
            }
        }
        if span.is_empty() {
            // `lo < x` fails for every `x`, NaN and +∞ included.
            let row = match self.group_rect[g] {
                u32::MAX => {
                    let row = self.grect_lo.len() / self.dims;
                    self.grect_lo.resize(self.grect_lo.len() + self.dims, 0.0);
                    self.grect_hi.resize(self.grect_hi.len() + self.dims, 0.0);
                    self.group_rect[g] = row as u32;
                    row
                }
                row => row as usize,
            };
            self.grect_lo[row * self.dims..][..self.dims].fill(f64::INFINITY);
            self.grect_hi[row * self.dims..][..self.dims].fill(f64::NEG_INFINITY);
        }
        let r = rep as usize;
        (self.group_start[r]..self.group_start[r + 1]).all(|g| self.run(g).is_empty())
    }

    /// Decides a candidate representative exactly: appends to `runs`
    /// the groups of `rep` whose rectangles contain `point` — the exact
    /// half-open `f64` test every candidate of the matcher's slab filter
    /// gets.
    ///
    /// The representative's own bounds are tested first; a miss drops
    /// the whole candidate, which is sound because the representative
    /// contains every member rectangle. On a hit, non-identity groups
    /// re-check their own exact rectangle once; identity groups hit
    /// immediately (their rectangle is the representative's).
    #[inline]
    pub fn hit_runs(&self, rep: u32, point: &[f64], runs: &mut Vec<u32>) {
        let r = rep as usize;
        let bounds = &self.rep_bounds[r * self.dims..][..self.dims];
        if !bounds
            .iter()
            .zip(point)
            .all(|(&(lo, hi), &x)| lo < x && x <= hi)
        {
            return;
        }
        for g in self.group_start[r]..self.group_start[r + 1] {
            let rect = self.group_rect[g as usize];
            if rect != u32::MAX {
                let base = rect as usize * self.dims;
                let inside = point
                    .iter()
                    .enumerate()
                    .all(|(d, &x)| self.grect_lo[base + d] < x && x <= self.grect_hi[base + d]);
                if !inside {
                    continue;
                }
            }
            runs.push(g);
        }
    }

    /// Every group with a live member, in group order: its run and the
    /// sides of its exact (clamped) rectangle — the representative's
    /// bounds for an identity group, its own re-check rectangle
    /// otherwise. Groups are the distinct rectangles of the compile, so
    /// per-rectangle work over them visits each rectangle once.
    pub(crate) fn groups(
        &self,
    ) -> impl Iterator<Item = (&[u32], impl Iterator<Item = Interval> + '_)> + '_ {
        (0..self.rep_count()).flat_map(move |r| {
            (self.group_start[r]..self.group_start[r + 1])
                .filter(|&g| !self.run(g).is_empty())
                .map(move |g| {
                    let rect = self.group_rect[g as usize];
                    let sides = (0..self.dims).map(move |d| {
                        let (lo, hi) = match rect {
                            u32::MAX => self.rep_bounds[r * self.dims + d],
                            row => {
                                let at = row as usize * self.dims + d;
                                (self.grect_lo[at], self.grect_hi[at])
                            }
                        };
                        Interval::new(lo, hi).expect("a live group's bounds are ordered")
                    });
                    (self.run(g), sides)
                })
        })
    }

    /// The member subscription ids of group `run`, ascending.
    #[inline]
    pub fn run(&self, run: u32) -> &[u32] {
        let g = run as usize;
        &self.members[self.group_member_start[g] as usize..self.group_member_start[g + 1] as usize]
    }

    /// The owner-node bitmap of group `run`, precomputed at build time
    /// for groups big enough that the bitmap is no larger than their own
    /// member ids (two ids per bitmap word); `None` means the caller
    /// looks the owners up member by member.
    #[inline]
    pub fn run_nodes(&self, run: u32) -> Option<&[u64]> {
        let row = self.group_nodes[run as usize];
        (row != u32::MAX).then(|| {
            let start = row as usize * self.node_words;
            &self.node_bits[start..start + self.node_words]
        })
    }
}

/// Member count from which a group gets a precomputed owner-node bitmap
/// of `words` words: the bitmap is then no bigger than the group's own
/// member ids, so the node sets at most double the member array however
/// the population is shaped (a Zipf pool of a few thousand rectangles
/// pays a fraction of a byte per subscription).
fn node_set_min_members(words: usize) -> usize {
    2 * words
}

/// The matched subscription ids of one event.
///
/// An event matches whole covering groups, so the set holds
/// *references* — the hit runs of a shared [`CoveringTable`] — and
/// materializes the ascending id list once, on first read through
/// [`Deref`]. The count is known without materializing. A set built
/// from an id list is just that list.
///
/// Equality and `Debug` are by content (the ascending id sequence), so a
/// set of runs and the same ids as a list compare equal.
#[derive(Clone, Default)]
pub struct MatchedSet {
    table: Option<Arc<CoveringTable>>,
    /// Hit groups of `table`; empty when `table` is `None`.
    runs: Vec<u32>,
    len: usize,
    /// The ascending id list: given up front for a plain list,
    /// materialized from the runs on first read otherwise.
    ids: OnceLock<Vec<SubscriptionId>>,
}

impl MatchedSet {
    /// A set of `runs` of `table`, `len` ids in total. The runs must be
    /// pairwise disjoint.
    pub(crate) fn from_runs(table: &Arc<CoveringTable>, runs: &[u32], len: usize) -> Self {
        debug_assert_eq!(len, runs.iter().map(|&g| table.run(g).len()).sum::<usize>());
        MatchedSet {
            table: (!runs.is_empty()).then(|| Arc::clone(table)),
            runs: runs.to_vec(),
            len,
            ids: OnceLock::new(),
        }
    }

    /// Number of matched subscriptions — O(1), nothing materializes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing matched.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Writes the ascending id list of `runs` to the tail of `out`.
pub(crate) fn materialize_into(table: &CoveringTable, runs: &[u32], out: &mut Vec<SubscriptionId>) {
    let start = out.len();
    for &g in runs {
        out.extend(table.run(g).iter().map(|&s| SubscriptionId(s)));
    }
    out[start..].sort_unstable();
}

impl Deref for MatchedSet {
    type Target = [SubscriptionId];

    fn deref(&self) -> &[SubscriptionId] {
        self.ids.get_or_init(|| {
            let mut ids = Vec::with_capacity(self.len);
            if let Some(table) = &self.table {
                materialize_into(table, &self.runs, &mut ids);
            }
            ids
        })
    }
}

impl From<Vec<SubscriptionId>> for MatchedSet {
    fn from(ids: Vec<SubscriptionId>) -> Self {
        MatchedSet {
            len: ids.len(),
            ids: OnceLock::from(ids),
            ..MatchedSet::default()
        }
    }
}

impl FromIterator<SubscriptionId> for MatchedSet {
    fn from_iter<I: IntoIterator<Item = SubscriptionId>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<_>>().into()
    }
}

impl PartialEq for MatchedSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && **self == **other
    }
}

impl fmt::Debug for MatchedSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Intermediate of [`build_covering`]: the table plus the per-concrete
/// owner array the matcher keeps.
pub(crate) struct CoveringBuild {
    pub table: CoveringTable,
    pub owners: Vec<NodeId>,
    pub max_node: u32,
}

/// Streams the subscriptions once, interning clamped rectangles,
/// absorbing subsumed uniques into cover candidates and (optionally)
/// merging near-identical uniques, and assembles the covering table.
/// Each rectangle id is clamped and interned once, at its first
/// subscription; every later subscription naming it costs a lookup.
/// Transient memory is O(uniques) rectangles plus O(N + rect ids)
/// `u32`s — never O(N) rectangles.
pub(crate) fn build_covering(
    space: &Space,
    subs: &dyn SubscriptionStream,
    config: &CoveringConfig,
) -> Result<CoveringBuild, BrokerError> {
    let dims = space.dims();
    let count = subs.len();

    // Pass 1 (the only pass over the stream): clamp and intern each
    // rectangle id once, record owners. Uniques are numbered in
    // first-encounter order along the stream, whatever the ids.
    let mut intern: HashMap<Box<[u64]>, u32> = HashMap::new();
    let mut uniq_lo: Vec<f64> = Vec::new(); // row-major [u * dims + d]
    let mut uniq_hi: Vec<f64> = Vec::new();
    let mut uniq_counts: Vec<u32> = Vec::new();
    let mut rect_uniq: Vec<u32> = vec![u32::MAX; subs.rect_count()];
    let mut sub_uniq: Vec<u32> = Vec::with_capacity(count);
    let mut owners: Vec<NodeId> = Vec::with_capacity(count);
    let mut max_node = 0u32;
    let mut key = Vec::with_capacity(2 * dims);
    let mut first_err: Option<BrokerError> = None;
    subs.for_each(&mut |node, rect| {
        if first_err.is_some() {
            return;
        }
        let mut uniq = rect_uniq[rect as usize];
        if uniq == u32::MAX {
            let sides = subs.sides(rect);
            if sides.len() != dims {
                first_err = Some(BrokerError::DimensionMismatch {
                    expected: dims,
                    got: sides.len(),
                });
                return;
            }
            // The clamped rectangle, as the bit patterns of its bounds.
            key.clear();
            for (side, bound) in sides.iter().zip(space.bounds().sides()) {
                let clamped = side.clamp_to(bound);
                key.push(clamped.lo().to_bits());
                key.push(clamped.hi().to_bits());
            }
            uniq = match intern.get(key.as_slice()) {
                Some(&u) => u,
                None => {
                    let u = uniq_counts.len() as u32;
                    intern.insert(key.clone().into_boxed_slice(), u);
                    for side in key.chunks_exact(2) {
                        uniq_lo.push(f64::from_bits(side[0]));
                        uniq_hi.push(f64::from_bits(side[1]));
                    }
                    uniq_counts.push(0);
                    u
                }
            };
            rect_uniq[rect as usize] = uniq;
        }
        owners.push(node);
        max_node = max_node.max(node.0);
        uniq_counts[uniq as usize] += 1;
        sub_uniq.push(uniq);
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    drop((intern, rect_uniq));
    let uniques = uniq_counts.len();
    let ub = |u: usize, d: usize| (uniq_lo[u * dims + d], uniq_hi[u * dims + d]);

    // Member CSR per unique (counting sort over sub_uniq keeps each
    // unique's member list in ascending subscription-id order).
    let mut uniq_member_start: Vec<u32> = Vec::with_capacity(uniques + 1);
    let mut acc = 0u32;
    for &c in &uniq_counts {
        uniq_member_start.push(acc);
        acc += c;
    }
    uniq_member_start.push(acc);
    let mut cursor = uniq_member_start[..uniques].to_vec();
    let mut uniq_members = vec![0u32; count];
    for (sub, &u) in sub_uniq.iter().enumerate() {
        uniq_members[cursor[u as usize] as usize] = sub as u32;
        cursor[u as usize] += 1;
    }
    drop(cursor);
    drop(sub_uniq);

    // Pass 2: subsumption. Candidates are the most-subscribed uniques
    // (count desc, id asc — deterministic); each other unique is
    // absorbed by the first candidate strictly containing it.
    let mut by_count: Vec<u32> = (0..uniques as u32).collect();
    by_count.sort_unstable_by_key(|&u| (std::cmp::Reverse(uniq_counts[u as usize]), u));
    let candidates: Vec<u32> = by_count
        .into_iter()
        .take(config.max_covers)
        .filter(|&u| uniq_counts[u as usize] as usize >= config.min_cover_members.max(1))
        .collect();
    let mut is_candidate = vec![false; uniques];
    for &c in &candidates {
        is_candidate[c as usize] = true;
    }
    let mut absorbed_into = vec![u32::MAX; uniques];
    let mut subsumed = 0usize;
    for u in 0..uniques {
        if is_candidate[u] {
            continue;
        }
        for &c in &candidates {
            let c = c as usize;
            let mut covered = true;
            for d in 0..dims {
                let (clo, chi) = ub(c, d);
                let (ulo, uhi) = ub(u, d);
                if !(clo <= ulo && uhi <= chi) {
                    covered = false;
                    break;
                }
            }
            if covered {
                absorbed_into[u] = c as u32;
                subsumed += 1;
                break;
            }
        }
    }

    // Pass 3 (optional): quantized merge of the remaining uniques.
    // Uniques whose bounds land in the same coarse grid cells in every
    // dimension merge into their hull. Group ids are assigned in
    // first-encounter unique order — deterministic despite the map.
    let mut merge_gid = vec![u32::MAX; uniques];
    let mut merge_groups: Vec<Vec<u32>> = Vec::new();
    let mut merged = 0usize;
    if config.merge_cells > 0 && uniques > 0 {
        let cells = f64::from(config.merge_cells);
        let mut sig_ids: HashMap<Box<[u32]>, u32> = HashMap::new();
        let mut sig = Vec::with_capacity(2 * dims);
        let bounds = space.bounds();
        for u in 0..uniques {
            if is_candidate[u] || absorbed_into[u] != u32::MAX {
                continue;
            }
            sig.clear();
            for d in 0..dims {
                let side = bounds.side(d);
                let span = side.hi() - side.lo();
                let scale = if span.is_finite() && span > 0.0 {
                    cells / span
                } else {
                    0.0
                };
                let (lo, hi) = ub(u, d);
                sig.push(((lo - side.lo()) * scale) as u32);
                sig.push(((hi - side.lo()) * scale) as u32);
            }
            let gid = match sig_ids.get(sig.as_slice()) {
                Some(&g) => g,
                None => {
                    let g = merge_groups.len() as u32;
                    sig_ids.insert(sig.clone().into_boxed_slice(), g);
                    merge_groups.push(Vec::new());
                    g
                }
            };
            merge_gid[u] = gid;
            merge_groups[gid as usize].push(u as u32);
        }
        // Singleton "merges" stay plain representatives.
        for group in &merge_groups {
            if group.len() < 2 {
                merge_gid[group[0] as usize] = u32::MAX;
            } else {
                merged += group.len();
            }
        }
    }

    // Representative assignment, in first-encounter unique order: a
    // candidate or unabsorbed/unmerged unique owns its own rep; a
    // multi-member merge group gets one hull rep at its first member.
    let mut rep_of_uniq = vec![u32::MAX; uniques];
    let mut rep_src: Vec<(u32, bool)> = Vec::new(); // (uniq or gid, is_merge)
    let mut merge_rep = vec![u32::MAX; merge_groups.len()];
    for u in 0..uniques {
        if absorbed_into[u] != u32::MAX {
            continue; // resolved through its candidate below
        }
        let gid = merge_gid[u];
        if gid != u32::MAX {
            if merge_rep[gid as usize] == u32::MAX {
                merge_rep[gid as usize] = rep_src.len() as u32;
                rep_src.push((gid, true));
            }
            rep_of_uniq[u] = merge_rep[gid as usize];
        } else {
            rep_of_uniq[u] = rep_src.len() as u32;
            rep_src.push((u as u32, false));
        }
    }
    for u in 0..uniques {
        if absorbed_into[u] != u32::MAX {
            rep_of_uniq[u] = rep_of_uniq[absorbed_into[u] as usize];
        }
    }
    let reps = rep_src.len();

    // Representative bounds in source order, row-major; merge reps
    // take the hull of their members.
    let mut by_source = Vec::with_capacity(dims * reps);
    for &(src, is_merge) in &rep_src {
        for d in 0..dims {
            by_source.push(if is_merge {
                let group = &merge_groups[src as usize];
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for &u in group {
                    let (ul, uh) = ub(u as usize, d);
                    lo = lo.min(ul);
                    hi = hi.max(uh);
                }
                (lo, hi)
            } else {
                ub(src as usize, d)
            });
        }
    }

    // Renumber the representatives along the Hilbert curve of their
    // centres, so a word of the matcher's slab bitmaps holds
    // representatives close in space.
    let order = hilbert_order(dims, reps, |r, d| by_source[r * dims + d]);
    let mut rank = vec![0u32; reps];
    let mut rep_bounds = Vec::with_capacity(dims * reps);
    for (slot, &r) in order.iter().enumerate() {
        rank[r as usize] = slot as u32;
        rep_bounds.extend_from_slice(&by_source[r as usize * dims..][..dims]);
    }
    drop((by_source, order));

    // Group assembly: bucket uniques under their rep (unique order
    // within each rep), then flatten the two-level CSR.
    let mut rep_uniques: Vec<Vec<u32>> = vec![Vec::new(); reps];
    for u in 0..uniques {
        rep_uniques[rank[rep_of_uniq[u] as usize] as usize].push(u as u32);
    }
    let mut group_start = Vec::with_capacity(reps + 1);
    let mut group_rect = Vec::new();
    let mut group_member_start = Vec::new();
    let mut members = Vec::with_capacity(count);
    let mut grect_lo = Vec::new();
    let mut grect_hi = Vec::new();
    for (r, us) in rep_uniques.iter().enumerate() {
        group_start.push(group_rect.len() as u32);
        for &u in us {
            let u = u as usize;
            let identity = (0..dims).all(|d| ub(u, d) == rep_bounds[r * dims + d]);
            if identity {
                group_rect.push(u32::MAX);
            } else {
                group_rect.push((grect_lo.len() / dims) as u32);
                for d in 0..dims {
                    let (ul, uh) = ub(u, d);
                    grect_lo.push(ul);
                    grect_hi.push(uh);
                }
            }
            group_member_start.push(members.len() as u32);
            let span = uniq_member_start[u] as usize..uniq_member_start[u + 1] as usize;
            members.extend_from_slice(&uniq_members[span]);
        }
    }
    group_start.push(group_rect.len() as u32);
    group_member_start.push(members.len() as u32);
    debug_assert_eq!(members.len(), count);

    // Owner-node bitmaps of the large groups, so a hit on one costs a
    // few word ORs instead of an owner lookup per member.
    let node_words = max_node as usize / 64 + 1;
    let min_members = node_set_min_members(node_words);
    let mut group_nodes = Vec::with_capacity(group_rect.len());
    let mut node_bits: Vec<u64> = Vec::new();
    for span in group_member_start.windows(2) {
        let run = &members[span[0] as usize..span[1] as usize];
        if run.len() < min_members {
            group_nodes.push(u32::MAX);
            continue;
        }
        let row = node_bits.len();
        group_nodes.push((row / node_words) as u32);
        node_bits.resize(row + node_words, 0);
        for &m in run {
            let node = owners[m as usize].0 as usize;
            node_bits[row + node / 64] |= 1 << (node % 64);
        }
    }
    node_bits.shrink_to_fit();

    let stats = CoveringStats {
        concrete: count,
        uniques,
        representatives: reps,
        subsumed,
        merged,
    };
    Ok(CoveringBuild {
        table: CoveringTable {
            dims,
            rep_bounds,
            group_start,
            group_rect,
            group_member_start,
            members,
            grect_lo,
            grect_hi,
            group_nodes,
            node_bits,
            node_words,
            stats,
        },
        owners,
        max_node,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Space {
        Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap()
    }

    fn rect(lo: [f64; 2], hi: [f64; 2]) -> Rect {
        Rect::from_corners(&lo, &hi).unwrap()
    }

    /// The ids matching `point`, through the run-level query with every
    /// representative as a candidate.
    fn matched(table: &CoveringTable, point: &[f64]) -> Vec<u32> {
        let mut runs = Vec::new();
        for r in 0..table.rep_count() {
            table.hit_runs(r as u32, point, &mut runs);
        }
        let mut ids = Vec::new();
        materialize_into(table, &runs, &mut ids);
        ids.into_iter().map(|s| s.0).collect()
    }

    #[test]
    fn duplicates_intern_to_one_representative() {
        let subs: Vec<(NodeId, Rect)> = (0..10)
            .map(|i| (NodeId(i), rect([1.0, 1.0], [4.0, 4.0])))
            .collect();
        let b = build_covering(&space(), &subs.as_slice(), &CoveringConfig::default()).unwrap();
        assert_eq!(b.table.stats().uniques, 1);
        assert_eq!(b.table.stats().representatives, 1);
        assert_eq!(b.table.stats().aggregation_ratio(), 10.0);
        assert_eq!(matched(&b.table, &[2.0, 2.0]), (0..10).collect::<Vec<_>>());
        assert!(matched(&b.table, &[5.0, 5.0]).is_empty());
    }

    #[test]
    fn subsumed_rectangles_recheck_their_own_bounds() {
        // 5 dupes of the big rect make it a candidate; the small rect
        // is absorbed but must only match inside itself.
        let mut subs: Vec<(NodeId, Rect)> = (0..5)
            .map(|i| (NodeId(i), rect([0.0, 0.0], [8.0, 8.0])))
            .collect();
        subs.push((NodeId(9), rect([2.0, 2.0], [3.0, 3.0])));
        let b = build_covering(&space(), &subs.as_slice(), &CoveringConfig::default()).unwrap();
        assert_eq!(b.table.stats().uniques, 2);
        assert_eq!(b.table.stats().representatives, 1);
        assert_eq!(b.table.stats().subsumed, 1);
        // Inside both.
        assert_eq!(matched(&b.table, &[2.5, 2.5]), vec![0, 1, 2, 3, 4, 5]);
        // Inside the candidate only.
        assert_eq!(matched(&b.table, &[6.0, 6.0]), vec![0, 1, 2, 3, 4]);
        // On the small rect's open lower edge: excluded from it.
        assert_eq!(matched(&b.table, &[2.0, 2.5]), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn quantized_merge_keeps_exact_semantics() {
        // Two near-identical rects merge under a coarse grid; a point
        // between their upper edges must hit exactly one.
        let subs = vec![
            (NodeId(0), rect([1.0, 1.0], [4.00, 4.00])),
            (NodeId(1), rect([1.0, 1.0], [4.05, 4.05])),
        ];
        let cfg = CoveringConfig {
            merge_cells: 16,
            ..CoveringConfig::default()
        };
        let b = build_covering(&space(), &subs.as_slice(), &cfg).unwrap();
        assert_eq!(b.table.stats().representatives, 1);
        assert_eq!(b.table.stats().merged, 2);
        assert_eq!(matched(&b.table, &[4.02, 4.02]), vec![1]);
        assert_eq!(matched(&b.table, &[3.0, 3.0]), vec![0, 1]);
    }

    #[test]
    fn every_member_appears_exactly_once() {
        let subs: Vec<(NodeId, Rect)> = (0..50)
            .map(|i| {
                let k = f64::from(i % 7);
                (NodeId(i), rect([k * 0.5, 0.0], [k * 0.5 + 2.0, 5.0]))
            })
            .collect();
        let cfg = CoveringConfig {
            merge_cells: 8,
            min_cover_members: 2,
            ..CoveringConfig::default()
        };
        let b = build_covering(&space(), &subs.as_slice(), &cfg).unwrap();
        let mut all = b.table.members.clone();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
        assert_eq!(b.owners.len(), 50);
    }

    #[test]
    fn large_runs_carry_their_owner_node_set() {
        // One word of node ids: groups of >= 2 members get a bitmap.
        let mut subs: Vec<(NodeId, Rect)> = (0..12)
            .map(|i| (NodeId(i % 5 * 3), rect([1.0, 1.0], [4.0, 4.0])))
            .collect();
        subs.push((NodeId(40), rect([6.0, 6.0], [9.0, 9.0])));
        let b = build_covering(&space(), &subs.as_slice(), &CoveringConfig::default()).unwrap();
        let mut runs = Vec::new();
        for point in [[2.0, 2.0], [7.0, 7.0]] {
            for r in 0..2 {
                b.table.hit_runs(r, &point, &mut runs);
            }
        }
        assert_eq!(runs.len(), 2);
        let bits = b.table.run_nodes(runs[0]).expect("12 members >= 2");
        let want = [0u32, 3, 6, 9, 12].iter().fold(0u64, |w, n| w | 1 << n);
        assert_eq!(bits, &[want]);
        assert_eq!(b.table.run(runs[0]).len(), 12);
        assert!(b.table.run_nodes(runs[1]).is_none(), "1 member < 2");
        assert_eq!(b.table.run(runs[1]), &[12]);
        assert!(b.table.heap_bytes() >= 8 + 2 * 4 + 13 * 4);
    }

    #[test]
    fn matched_set_is_lazy_and_compares_by_content() {
        let subs: Vec<(NodeId, Rect)> = (0..6)
            .map(|i| (NodeId(i), rect([0.0, 0.0], [f64::from(i % 2) + 4.0, 4.0])))
            .collect();
        let b = build_covering(&space(), &subs.as_slice(), &CoveringConfig::default()).unwrap();
        let table = Arc::new(b.table);
        let mut runs = Vec::new();
        for r in 0..table.rep_count() {
            table.hit_runs(r as u32, &[2.0, 2.0], &mut runs);
        }
        assert_eq!(runs.len(), 2, "two distinct rectangles, both hit");
        let set = MatchedSet::from_runs(&table, &runs, 6);
        assert_eq!(set.len(), 6);
        assert!(set.ids.get().is_none(), "len() must not materialize");
        let flat: MatchedSet = [0, 1, 2, 3, 4, 5].map(SubscriptionId).into_iter().collect();
        assert_eq!(set, flat);
        assert!(
            set.windows(2).all(|w| w[0] < w[1]),
            "ascending, no duplicates"
        );
        assert_eq!(format!("{set:?}"), format!("{flat:?}"));
        assert!(!MatchedSet::default().iter().any(|_| true));
        assert!(MatchedSet::from_runs(&table, &[], 0).is_empty());
    }

    #[test]
    fn dimension_mismatch_surfaces() {
        let subs = vec![(NodeId(0), Rect::from_corners(&[0.0], &[1.0]).unwrap())];
        let err = build_covering(&space(), &subs.as_slice(), &CoveringConfig::default());
        assert!(matches!(
            err,
            Err(BrokerError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn empty_stream_builds_empty_table() {
        let subs: Vec<(NodeId, Rect)> = Vec::new();
        let b = build_covering(&space(), &subs.as_slice(), &CoveringConfig::default()).unwrap();
        assert_eq!(b.table.rep_count(), 0);
        assert_eq!(b.table.stats().aggregation_ratio(), 1.0);
    }
}
