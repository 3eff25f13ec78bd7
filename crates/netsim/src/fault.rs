//! Fault injection over the compiled network: deterministic fault plans,
//! a degradation overlay that never touches the pristine CSR, and
//! self-healing shortest-path-tree state.
//!
//! Three layers, mirroring the compile-time split of [`FlatNet`]:
//!
//! * [`FaultPlan`] — an epoch-free *schedule* of [`FaultEvent`]s keyed by
//!   publish step, either hand-built or generated deterministically from
//!   a seed ([`FaultPlan::seeded`]).
//! * `FaultOverlay` (internal) — the *current* fault state: a per-CSR-slot
//!   cost factor (`+∞` = cut) and a per-node down flag, epoch-stamped on
//!   every change. Its degraded Dijkstra is [`FlatNet`]'s one relaxation
//!   loop with each pristine weight multiplied by its factor, so with no
//!   active fault the output is **bit-identical** to
//!   [`FlatNet::sssp_into`] (multiplying by `1.0` is exact).
//! * [`FaultyRouting`] — the self-healing routing state: it watches an
//!   [`SptTable`], maintains a tree-edge → rows incidence index, and on
//!   each fault invalidates *only* the rows whose shortest-path tree
//!   actually used a worsened edge (a worsening on a non-tree edge
//!   provably leaves a row bit-identical: distances cannot improve, and a
//!   candidate parent edge that lost before loses harder after). Repairs
//!   can improve distances anywhere and invalidate every row. Stale rows
//!   are rebuilt lazily on [`FaultyRouting::heal`], and
//!   [`FaultyRouting::route_generation`] bumps only when a rebuild
//!   actually changed a row — the signal the broker's scheme-cost memo
//!   keys on, so a fault that touches no live tree costs nothing.

use std::collections::HashMap;

use crate::{DijkstraScratch, EdgeId, FlatNet, Graph, NetError, NodeId, SptTable, NO_PARENT};

/// One fault or repair, addressed by node endpoints (all parallel links
/// between a pair are affected together).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultEvent {
    /// Cuts every link between `a` and `b`.
    LinkCut {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Restores every link between `a` and `b` to its pristine cost
    /// (this also clears a degradation).
    LinkRestore {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Multiplies the cost of every link between `a` and `b` by `factor`
    /// (≥ 1 and finite — faults only ever worsen a link; repairs go
    /// through [`FaultEvent::LinkRestore`]).
    LinkDegrade {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The cost multiplier applied to the pristine weight.
        factor: f64,
    },
    /// Takes a node down: every incident link becomes unusable and the
    /// node can neither publish nor receive.
    NodeDown {
        /// The failing node.
        node: NodeId,
    },
    /// Brings a node back up.
    NodeUp {
        /// The recovering node.
        node: NodeId,
    },
}

/// A fault event bound to the publish step at which it fires.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ScheduledFault {
    /// 0-based publish step: the event is applied immediately before the
    /// `at`-th publication after the plan is installed.
    pub at: u64,
    /// The fault or repair.
    pub event: FaultEvent,
}

/// Parameters for [`FaultPlan::seeded`].
#[derive(Clone, Copy, Debug)]
pub struct FaultPlanConfig {
    /// Fraction of the graph's links to cut, in `[0, 1]`.
    pub link_failure_fraction: f64,
    /// Fraction of the graph's nodes to take down, in `[0, 1]`.
    pub node_failure_fraction: f64,
    /// Failures fire at a pseudo-random step in `[0, horizon]`
    /// (`horizon = 0` fires everything up front).
    pub horizon: u64,
    /// When set, each failure is repaired this many steps after it fired.
    pub repair_after: Option<u64>,
}

impl FaultPlanConfig {
    /// A plan that only cuts links, all up front, with no repairs.
    pub fn link_cuts(fraction: f64) -> FaultPlanConfig {
        FaultPlanConfig {
            link_failure_fraction: fraction,
            node_failure_fraction: 0.0,
            horizon: 0,
            repair_after: None,
        }
    }
}

/// A deterministic schedule of fault events, sorted by step (stable for
/// events sharing a step).
#[derive(Clone, Default, PartialEq, Debug)]
pub struct FaultPlan {
    events: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// An empty plan: installing it changes nothing, ever.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules `event` at publish step `at`, keeping the schedule
    /// sorted (events at the same step keep insertion order).
    pub fn push(&mut self, at: u64, event: FaultEvent) -> &mut FaultPlan {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, ScheduledFault { at, event });
        self
    }

    /// The schedule, sorted by step.
    pub fn events(&self) -> &[ScheduledFault] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a reproducible plan for `graph` from a seed: cuts
    /// `link_failure_fraction` of the links and downs
    /// `node_failure_fraction` of the nodes (sampled without
    /// replacement), each firing at a step in `[0, horizon]` and — when
    /// `repair_after` is set — repaired that many steps later.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] if a fraction is outside
    /// `[0, 1]`.
    pub fn seeded(
        graph: &Graph,
        seed: u64,
        config: &FaultPlanConfig,
    ) -> Result<FaultPlan, NetError> {
        for (value, parameter) in [
            (config.link_failure_fraction, "link_failure_fraction"),
            (config.node_failure_fraction, "node_failure_fraction"),
        ] {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(NetError::InvalidConfig {
                    parameter,
                    constraint: "0 <= fraction <= 1",
                });
            }
        }
        let mut state = seed ^ 0x5DEECE66D;
        let mut plan = FaultPlan::new();
        let links = sample(graph.edge_count(), config.link_failure_fraction, &mut state);
        for id in links {
            let (a, b, _) = graph.edge(EdgeId(id as u32));
            let at = step_in(config.horizon, &mut state);
            plan.push(at, FaultEvent::LinkCut { a, b });
            if let Some(delay) = config.repair_after {
                plan.push(at + delay, FaultEvent::LinkRestore { a, b });
            }
        }
        let nodes = sample(graph.node_count(), config.node_failure_fraction, &mut state);
        for id in nodes {
            let node = NodeId(id as u32);
            let at = step_in(config.horizon, &mut state);
            plan.push(at, FaultEvent::NodeDown { node });
            if let Some(delay) = config.repair_after {
                plan.push(at + delay, FaultEvent::NodeUp { node });
            }
        }
        Ok(plan)
    }
}

/// SplitMix64 step — the crate's only RNG need is reproducible sampling.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `round(fraction · count)` distinct indices via a partial Fisher–Yates
/// shuffle.
fn sample(count: usize, fraction: f64, state: &mut u64) -> Vec<usize> {
    let k = ((count as f64) * fraction).round() as usize;
    let k = k.min(count);
    let mut ids: Vec<usize> = (0..count).collect();
    for i in 0..k {
        let j = i + (splitmix(state) as usize) % (count - i);
        ids.swap(i, j);
    }
    ids.truncate(k);
    ids
}

fn step_in(horizon: u64, state: &mut u64) -> u64 {
    if horizon == 0 {
        0
    } else {
        splitmix(state) % (horizon + 1)
    }
}

/// How far an applied fault can reach into precomputed routing state.
#[derive(Clone, PartialEq, Debug)]
enum FaultImpact {
    /// The event changed nothing (e.g. cutting an already-cut link).
    Unchanged,
    /// Costs only got worse, and only across the listed node pairs: a
    /// shortest-path tree using none of them is provably bit-identical.
    Worsened(Vec<(NodeId, NodeId)>),
    /// Costs may have improved anywhere; every row is suspect.
    Global,
}

/// The current fault state as an overlay over the pristine CSR arrays.
#[derive(Clone, Debug)]
struct FaultOverlay {
    /// Per CSR edge slot: cost multiplier. `1.0` = pristine, `+∞` = cut.
    slot_factor: Vec<f64>,
    node_down: Vec<bool>,
    /// Bumped on every state-changing apply.
    epoch: u64,
    /// Slots whose factor is not `1.0`.
    disturbed_slots: usize,
    down_nodes: usize,
}

impl FaultOverlay {
    fn new(net: &FlatNet) -> FaultOverlay {
        FaultOverlay {
            slot_factor: vec![1.0; net.edge_slot_count()],
            node_down: vec![false; net.node_count()],
            epoch: 0,
            disturbed_slots: 0,
            down_nodes: 0,
        }
    }

    fn is_pristine(&self) -> bool {
        self.disturbed_slots == 0 && self.down_nodes == 0
    }

    fn check_node(&self, node: NodeId) -> Result<usize, NetError> {
        let v = node.0 as usize;
        if v >= self.node_down.len() {
            return Err(NetError::NodeOutOfRange {
                node: node.0,
                nodes: self.node_down.len(),
            });
        }
        Ok(v)
    }

    /// Sets the factor of every slot between `a` and `b` (both
    /// directions) to `factor`; returns how many slots actually changed.
    fn set_pair_factor(&mut self, net: &FlatNet, a: NodeId, b: NodeId, factor: f64) -> usize {
        let mut changed = 0;
        for (v, other) in [(a, b), (b, a)] {
            let (lo, hi) = net.row(v.0 as usize);
            for slot in lo..hi {
                if net.cols()[slot] != other.0 {
                    continue;
                }
                let old = self.slot_factor[slot];
                if old.to_bits() == factor.to_bits() {
                    continue;
                }
                if old == 1.0 {
                    self.disturbed_slots += 1;
                } else if factor == 1.0 {
                    self.disturbed_slots -= 1;
                }
                self.slot_factor[slot] = factor;
                changed += 1;
            }
        }
        changed
    }

    fn apply(&mut self, net: &FlatNet, event: &FaultEvent) -> Result<FaultImpact, NetError> {
        let impact = match *event {
            FaultEvent::LinkCut { a, b } => {
                self.check_node(a)?;
                self.check_node(b)?;
                if self.set_pair_factor(net, a, b, f64::INFINITY) == 0 {
                    FaultImpact::Unchanged
                } else {
                    FaultImpact::Worsened(vec![(a, b)])
                }
            }
            FaultEvent::LinkDegrade { a, b, factor } => {
                self.check_node(a)?;
                self.check_node(b)?;
                if !factor.is_finite() || factor < 1.0 {
                    return Err(NetError::InvalidConfig {
                        parameter: "degrade factor",
                        constraint: ">= 1 and finite (use LinkCut / LinkRestore)",
                    });
                }
                // A degrade may *improve* an already-worse link (e.g.
                // 4.0 → 2.0), so only a first-touch degrade is a pure
                // worsening; anything else is conservatively global.
                let mut pure_worsening = true;
                for (v, other) in [(a, b), (b, a)] {
                    let (lo, hi) = net.row(v.0 as usize);
                    for slot in lo..hi {
                        if net.cols()[slot] == other.0 && self.slot_factor[slot] > factor {
                            pure_worsening = false;
                        }
                    }
                }
                if self.set_pair_factor(net, a, b, factor) == 0 {
                    FaultImpact::Unchanged
                } else if pure_worsening {
                    FaultImpact::Worsened(vec![(a, b)])
                } else {
                    FaultImpact::Global
                }
            }
            FaultEvent::LinkRestore { a, b } => {
                self.check_node(a)?;
                self.check_node(b)?;
                if self.set_pair_factor(net, a, b, 1.0) == 0 {
                    FaultImpact::Unchanged
                } else {
                    FaultImpact::Global
                }
            }
            FaultEvent::NodeDown { node } => {
                let v = self.check_node(node)?;
                if self.node_down[v] {
                    FaultImpact::Unchanged
                } else {
                    self.node_down[v] = true;
                    self.down_nodes += 1;
                    let (lo, hi) = net.row(v);
                    let pairs = net.cols()[lo..hi]
                        .iter()
                        .map(|&nbr| (node, NodeId(nbr)))
                        .collect();
                    FaultImpact::Worsened(pairs)
                }
            }
            FaultEvent::NodeUp { node } => {
                let v = self.check_node(node)?;
                if !self.node_down[v] {
                    FaultImpact::Unchanged
                } else {
                    self.node_down[v] = false;
                    self.down_nodes -= 1;
                    FaultImpact::Global
                }
            }
        };
        if impact != FaultImpact::Unchanged {
            self.epoch += 1;
        }
        Ok(impact)
    }

    /// [`FlatNet::sssp_into`] under the overlay: down nodes and cut slots
    /// are skipped, degraded slots relax with `weight · factor`. With no
    /// active fault the output is bit-identical to the pristine walk.
    fn sssp_into(
        &self,
        net: &FlatNet,
        source: NodeId,
        scratch: &mut DijkstraScratch,
        dist: &mut [f64],
        parent: &mut [u32],
        up_cost: &mut [f64],
    ) {
        if self.is_pristine() {
            net.sssp_into(source, scratch, dist, parent, up_cost);
            return;
        }
        if self.node_down[source.0 as usize] {
            // A down source reaches nothing — not even itself.
            dist.fill(f64::INFINITY);
            parent.fill(NO_PARENT);
            up_cost.fill(0.0);
            return;
        }
        let weights = net.slot_weights();
        net.sssp_with(source, scratch, dist, parent, up_cost, |slot, nbr| {
            let factor = self.slot_factor[slot];
            (!factor.is_infinite() && !self.node_down[nbr]).then(|| weights[slot] * factor)
        });
    }
}

fn edge_key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

/// Tree-edge → rows incidence: which [`SptTable`] rows' shortest-path
/// trees use a given undirected edge. The precision of fault
/// invalidation — only rows that actually routed over a failed link are
/// rebuilt — comes from this index.
#[derive(Clone, Default, Debug)]
struct TreeIncidence {
    rows: HashMap<(u32, u32), Vec<u32>>,
}

impl TreeIncidence {
    fn index_row(&mut self, row: u32, parent: &[u32]) {
        for (v, &p) in parent.iter().enumerate() {
            if p == NO_PARENT {
                continue;
            }
            self.rows
                .entry(edge_key(v as u32, p))
                .or_default()
                .push(row);
        }
    }

    fn forget_row(&mut self, row: u32, parent: &[u32]) {
        for (v, &p) in parent.iter().enumerate() {
            if p == NO_PARENT {
                continue;
            }
            let key = edge_key(v as u32, p);
            if let Some(rows) = self.rows.get_mut(&key) {
                if let Some(pos) = rows.iter().position(|&r| r == row) {
                    rows.swap_remove(pos);
                }
                if rows.is_empty() {
                    self.rows.remove(&key);
                }
            }
        }
    }

    fn rows_using(&self, a: NodeId, b: NodeId) -> &[u32] {
        self.rows
            .get(&edge_key(a.0, b.0))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Self-healing routing state over an [`SptTable`]: applies
/// [`FaultEvent`]s, invalidates exactly the rows a fault can have
/// touched, and rebuilds them lazily on [`FaultyRouting::heal`].
///
/// # Example
///
/// ```
/// use pubsub_netsim::{
///     DijkstraScratch, FaultEvent, FaultyRouting, FlatNet, Graph, NodeId, SptTable,
/// };
///
/// # fn main() -> Result<(), pubsub_netsim::NetError> {
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId(0), NodeId(1), 1.0)?;
/// g.add_edge(NodeId(1), NodeId(2), 1.0)?;
/// let net = FlatNet::compile(&g);
/// let mut table = SptTable::build(&net, &[NodeId(0)], Some(1));
/// let mut routing = FaultyRouting::new(&net, &table);
/// routing.apply(&net, &table, &FaultEvent::LinkCut { a: NodeId(1), b: NodeId(2) })?;
/// routing.heal(&net, &mut table, NodeId(0));
/// assert!(!table.view(NodeId(0)).unwrap().reachable(NodeId(2)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FaultyRouting {
    overlay: FaultOverlay,
    incidence: TreeIncidence,
    /// Per table row: `true` when the row may not match the overlay.
    stale: Vec<bool>,
    stale_rows: usize,
    /// Bumped whenever a heal actually changed a row's contents.
    route_generation: u64,
    /// `true` once any state-changing event has ever been applied.
    ever_faulted: bool,
    scratch: DijkstraScratch,
    buf_dist: Vec<f64>,
    buf_parent: Vec<u32>,
    buf_up: Vec<f64>,
}

impl FaultyRouting {
    /// Creates pristine fault state watching `table` (whose existing rows
    /// are indexed into the incidence map).
    pub fn new(net: &FlatNet, table: &SptTable) -> FaultyRouting {
        let mut incidence = TreeIncidence::default();
        for (row, &source) in table.sources().iter().enumerate() {
            let view = table.view(source).expect("listed source has a row");
            incidence.index_row(row as u32, view.raw_parent());
        }
        FaultyRouting {
            overlay: FaultOverlay::new(net),
            incidence,
            stale: vec![false; table.len()],
            stale_rows: 0,
            route_generation: 0,
            ever_faulted: false,
            scratch: DijkstraScratch::new(),
            buf_dist: Vec::new(),
            buf_parent: Vec::new(),
            buf_up: Vec::new(),
        }
    }

    /// Applies one fault event, marking exactly the rows it can have
    /// affected as stale. Returns `true` if the event changed anything.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NodeOutOfRange`] for unknown endpoints and
    /// [`NetError::InvalidConfig`] for a degrade factor below 1.
    pub fn apply(
        &mut self,
        net: &FlatNet,
        table: &SptTable,
        event: &FaultEvent,
    ) -> Result<bool, NetError> {
        self.sync_len(table);
        let impact = self.overlay.apply(net, event)?;
        match impact {
            FaultImpact::Unchanged => return Ok(false),
            FaultImpact::Worsened(pairs) => {
                for (a, b) in pairs {
                    // Clone-free would borrow `self.incidence` across the
                    // `mark_stale` mutation; the row lists are tiny.
                    let rows: Vec<u32> = self.incidence.rows_using(a, b).to_vec();
                    for row in rows {
                        self.mark_stale(row as usize);
                    }
                }
                // A node event also invalidates the node's *own* row:
                // a down source reaches nothing (even an isolated one
                // with no tree edges), and symmetrically on the way up.
                if let FaultEvent::NodeDown { node } | FaultEvent::NodeUp { node } = *event {
                    if let Some(row) = table.row_index(node) {
                        self.mark_stale(row);
                    }
                }
            }
            FaultImpact::Global => {
                for row in 0..self.stale.len() {
                    self.mark_stale(row);
                }
            }
        }
        // NodeUp reports Global, but its own row still needs the
        // explicit mark when the table grew since (sync_len covers it).
        self.ever_faulted = true;
        Ok(true)
    }

    fn mark_stale(&mut self, row: usize) {
        if !self.stale[row] {
            self.stale[row] = true;
            self.stale_rows += 1;
        }
    }

    fn sync_len(&mut self, table: &SptTable) {
        // Rows appended to the table behind our back (the pristine
        // `ensure` path) were computed against the pristine net; they are
        // only trustworthy if no fault is active.
        while self.stale.len() < table.len() {
            let row = self.stale.len();
            let source = table.sources()[row];
            let view = table.view(source).expect("listed source has a row");
            self.incidence.index_row(row as u32, view.raw_parent());
            self.stale.push(false);
            if !self.overlay.is_pristine() {
                self.mark_stale(row);
            }
        }
    }

    /// Ensures `source` has a row and that it matches the current fault
    /// state, rebuilding it in place if it was stale (and appending it if
    /// absent). Returns `true` if the row's contents changed — which is
    /// also exactly when [`FaultyRouting::route_generation`] bumps.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range for the table.
    pub fn heal(&mut self, net: &FlatNet, table: &mut SptTable, source: NodeId) -> bool {
        self.sync_len(table);
        let n = net.node_count();
        match table.row_index(source) {
            Some(row) => {
                if !self.stale[row] {
                    return false;
                }
                self.buf_dist.resize(n, 0.0);
                self.buf_parent.resize(n, 0);
                self.buf_up.resize(n, 0.0);
                self.overlay.sssp_into(
                    net,
                    source,
                    &mut self.scratch,
                    &mut self.buf_dist,
                    &mut self.buf_parent,
                    &mut self.buf_up,
                );
                self.stale[row] = false;
                self.stale_rows -= 1;
                let view = table.view(source).expect("row exists");
                let changed = view
                    .raw_dist()
                    .iter()
                    .zip(&self.buf_dist)
                    .any(|(a, b)| a.to_bits() != b.to_bits())
                    || view.raw_parent() != self.buf_parent.as_slice()
                    || view
                        .raw_up_cost()
                        .iter()
                        .zip(&self.buf_up)
                        .any(|(a, b)| a.to_bits() != b.to_bits());
                if !changed {
                    return false;
                }
                let old_parent = view.raw_parent().to_vec();
                self.incidence.forget_row(row as u32, &old_parent);
                let (dist, parent, up) = table.row_slices_mut(source).expect("row exists");
                dist.copy_from_slice(&self.buf_dist);
                parent.copy_from_slice(&self.buf_parent);
                up.copy_from_slice(&self.buf_up);
                self.incidence.index_row(row as u32, &self.buf_parent);
                self.route_generation += 1;
                true
            }
            None => {
                let mut dist = vec![f64::INFINITY; n];
                let mut parent = vec![NO_PARENT; n];
                let mut up = vec![0.0; n];
                self.overlay.sssp_into(
                    net,
                    source,
                    &mut self.scratch,
                    &mut dist,
                    &mut parent,
                    &mut up,
                );
                self.incidence.index_row(table.len() as u32, &parent);
                table.insert_row(source, dist, parent, up);
                self.stale.push(false);
                // A fresh row changes no existing cost: the memo key
                // (route_generation) deliberately stays put.
                true
            }
        }
    }

    /// `true` if `node` is currently up.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_up(&self, node: NodeId) -> bool {
        !self.overlay.node_down[node.0 as usize]
    }

    /// `true` while no fault is active (all links pristine, all nodes
    /// up). Stale rows may still exist right after the last repair; they
    /// heal back to their pristine contents.
    pub fn is_pristine(&self) -> bool {
        self.overlay.is_pristine()
    }

    /// `true` once any state-changing fault has ever been applied.
    pub fn ever_faulted(&self) -> bool {
        self.ever_faulted
    }

    /// The overlay epoch: bumps on every state-changing event.
    pub fn fault_epoch(&self) -> u64 {
        self.overlay.epoch
    }

    /// Bumps exactly when a heal changed a row — with the snapshot epoch,
    /// this keys the broker's scheme-cost memo, so faults that touch no
    /// live tree (and flapping links that heal back bit-identically…
    /// eventually) do not thrash it.
    pub fn route_generation(&self) -> u64 {
        self.route_generation
    }

    /// Number of rows currently marked stale (diagnostics).
    pub fn stale_rows(&self) -> usize {
        self.stale_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 —1— 1 —1— 2 —1— 3, plus a 10-cost shortcut 0—3.
    fn line_with_shortcut() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(3), 10.0).unwrap();
        g
    }

    fn faulted_oracle(g: &Graph, cut: &[(u32, u32)], down: &[u32], source: NodeId) -> Vec<f64> {
        // Rebuild the graph from scratch without the failed elements.
        let mut rebuilt = Graph::new(g.node_count());
        for i in 0..g.edge_count() {
            let (a, b, cost) = g.edge(EdgeId(i as u32));
            let k = edge_key(a.0, b.0);
            if cut.iter().any(|&(x, y)| edge_key(x, y) == k) {
                continue;
            }
            if down.contains(&a.0) || down.contains(&b.0) {
                continue;
            }
            rebuilt.add_edge(a, b, cost).unwrap();
        }
        let table = SptTable::build(&FlatNet::compile(&rebuilt), &[source], Some(1));
        let sp = table.view(source).unwrap();
        (0..g.node_count() as u32)
            .map(|v| {
                if (down.contains(&source.0) || down.contains(&v)) && v != source.0 {
                    f64::INFINITY
                } else {
                    sp.dist(NodeId(v))
                }
            })
            .collect()
    }

    #[test]
    fn cut_reroutes_and_restore_heals_bit_identically() {
        let g = line_with_shortcut();
        let net = FlatNet::compile(&g);
        let mut table = SptTable::build(&net, &[NodeId(0)], Some(1));
        let pristine: Vec<u64> = table
            .view(NodeId(0))
            .unwrap()
            .raw_dist()
            .iter()
            .map(|d| d.to_bits())
            .collect();
        let mut routing = FaultyRouting::new(&net, &table);

        let cut = FaultEvent::LinkCut {
            a: NodeId(1),
            b: NodeId(2),
        };
        assert!(routing.apply(&net, &table, &cut).unwrap());
        assert_eq!(routing.stale_rows(), 1);
        assert!(routing.heal(&net, &mut table, NodeId(0)));
        let view = table.view(NodeId(0)).unwrap();
        // 2 and 3 reroute over the 10-cost shortcut.
        assert_eq!(view.dist(NodeId(3)), 10.0);
        assert_eq!(view.dist(NodeId(2)), 11.0);
        assert_eq!(routing.route_generation(), 1);

        let restore = FaultEvent::LinkRestore {
            a: NodeId(1),
            b: NodeId(2),
        };
        assert!(routing.apply(&net, &table, &restore).unwrap());
        assert!(routing.is_pristine());
        routing.heal(&net, &mut table, NodeId(0));
        let healed: Vec<u64> = table
            .view(NodeId(0))
            .unwrap()
            .raw_dist()
            .iter()
            .map(|d| d.to_bits())
            .collect();
        assert_eq!(healed, pristine, "restore heals bit-identically");
    }

    #[test]
    fn non_tree_cut_leaves_row_untouched() {
        let g = line_with_shortcut();
        let net = FlatNet::compile(&g);
        let mut table = SptTable::build(&net, &[NodeId(0)], Some(1));
        let mut routing = FaultyRouting::new(&net, &table);
        // The 0—3 shortcut is not on 0's SPT (1+1+1 < 10).
        let cut = FaultEvent::LinkCut {
            a: NodeId(0),
            b: NodeId(3),
        };
        assert!(routing.apply(&net, &table, &cut).unwrap());
        assert_eq!(routing.stale_rows(), 0, "no tree touched the cut edge");
        assert!(!routing.heal(&net, &mut table, NodeId(0)));
        assert_eq!(routing.route_generation(), 0);
        // Cutting it again changes nothing at all.
        assert!(!routing.apply(&net, &table, &cut).unwrap());
    }

    #[test]
    fn node_down_matches_scratch_oracle() {
        let g = line_with_shortcut();
        let net = FlatNet::compile(&g);
        let mut table = SptTable::build(&net, &[NodeId(0), NodeId(2)], Some(1));
        let mut routing = FaultyRouting::new(&net, &table);
        let down = FaultEvent::NodeDown { node: NodeId(1) };
        assert!(routing.apply(&net, &table, &down).unwrap());
        for source in [NodeId(0), NodeId(2)] {
            routing.heal(&net, &mut table, source);
        }
        for &source in &[NodeId(0), NodeId(2)] {
            let oracle = faulted_oracle(&g, &[], &[1], source);
            let view = table.view(source).unwrap();
            for v in 0..4u32 {
                let got = view.dist(NodeId(v));
                let want = oracle[v as usize];
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_infinite() && want.is_infinite()),
                    "source {source:?} node {v}: {got} vs {want}"
                );
            }
            assert!(!view.reachable(NodeId(1)));
        }
        // The downed node's own row reaches nothing.
        let mut t2 = table.clone();
        routing.heal(&net, &mut t2, NodeId(1));
        let view = t2.view(NodeId(1)).unwrap();
        assert!(!view.reachable(NodeId(1)));
    }

    #[test]
    fn degrade_multiplies_cost_and_validates_factor() {
        let g = line_with_shortcut();
        let net = FlatNet::compile(&g);
        let mut table = SptTable::build(&net, &[NodeId(0)], Some(1));
        let mut routing = FaultyRouting::new(&net, &table);
        let bad = FaultEvent::LinkDegrade {
            a: NodeId(0),
            b: NodeId(1),
            factor: 0.5,
        };
        assert!(matches!(
            routing.apply(&net, &table, &bad),
            Err(NetError::InvalidConfig { .. })
        ));
        let degrade = FaultEvent::LinkDegrade {
            a: NodeId(1),
            b: NodeId(2),
            factor: 20.0,
        };
        routing.apply(&net, &table, &degrade).unwrap();
        routing.heal(&net, &mut table, NodeId(0));
        let view = table.view(NodeId(0)).unwrap();
        // 3 now routes over the shortcut; 2 over the shortcut + one hop.
        assert_eq!(view.dist(NodeId(3)), 10.0);
        assert_eq!(view.dist(NodeId(2)), 11.0);
    }

    #[test]
    fn unknown_endpoints_are_rejected() {
        let g = line_with_shortcut();
        let net = FlatNet::compile(&g);
        let table = SptTable::build(&net, &[NodeId(0)], Some(1));
        let mut routing = FaultyRouting::new(&net, &table);
        let cut = FaultEvent::LinkCut {
            a: NodeId(0),
            b: NodeId(99),
        };
        assert!(matches!(
            routing.apply(&net, &table, &cut),
            Err(NetError::NodeOutOfRange { node: 99, .. })
        ));
        assert_eq!(routing.fault_epoch(), 0);
    }

    #[test]
    fn heal_appends_missing_rows_against_the_overlay() {
        let g = line_with_shortcut();
        let net = FlatNet::compile(&g);
        let mut table = SptTable::build(&net, &[NodeId(0)], Some(1));
        let mut routing = FaultyRouting::new(&net, &table);
        routing
            .apply(
                &net,
                &table,
                &FaultEvent::LinkCut {
                    a: NodeId(2),
                    b: NodeId(3),
                },
            )
            .unwrap();
        assert!(routing.heal(&net, &mut table, NodeId(3)));
        let view = table.view(NodeId(3)).unwrap();
        assert_eq!(view.dist(NodeId(0)), 10.0, "new row sees the cut");
    }

    #[test]
    fn rows_added_behind_the_overlays_back_are_suspect() {
        let g = line_with_shortcut();
        let net = FlatNet::compile(&g);
        let mut table = SptTable::build(&net, &[NodeId(0)], Some(1));
        let mut routing = FaultyRouting::new(&net, &table);
        routing
            .apply(
                &net,
                &table,
                &FaultEvent::LinkCut {
                    a: NodeId(2),
                    b: NodeId(3),
                },
            )
            .unwrap();
        // Pristine `ensure` appends a row that ignores the cut…
        let mut scratch = DijkstraScratch::new();
        table.ensure(&net, NodeId(3), &mut scratch);
        assert_eq!(table.view(NodeId(3)).unwrap().dist(NodeId(0)), 3.0);
        // …and the next heal detects and fixes it.
        assert!(routing.heal(&net, &mut table, NodeId(3)));
        assert_eq!(table.view(NodeId(3)).unwrap().dist(NodeId(0)), 10.0);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_validated() {
        let g = line_with_shortcut();
        let config = FaultPlanConfig {
            link_failure_fraction: 0.5,
            node_failure_fraction: 0.25,
            horizon: 10,
            repair_after: Some(5),
        };
        let a = FaultPlan::seeded(&g, 7, &config).unwrap();
        let b = FaultPlan::seeded(&g, 7, &config).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // 2 of 4 links + 1 of 4 nodes, each with a repair.
        assert_eq!(a.len(), 6);
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
        let bad = FaultPlanConfig {
            link_failure_fraction: 1.5,
            ..config
        };
        assert!(FaultPlan::seeded(&g, 7, &bad).is_err());
    }

    #[test]
    fn plan_push_keeps_stable_step_order() {
        let mut plan = FaultPlan::new();
        let e1 = FaultEvent::NodeDown { node: NodeId(1) };
        let e2 = FaultEvent::NodeUp { node: NodeId(1) };
        let e3 = FaultEvent::NodeDown { node: NodeId(2) };
        plan.push(5, e1).push(0, e2).push(5, e3);
        let ats: Vec<u64> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![0, 5, 5]);
        assert_eq!(plan.events()[1].event, e1, "same-step order is stable");
        assert_eq!(plan.events()[2].event, e3);
    }
}
