//! The end-to-end broker: matching + clustering-derived groups + the
//! dynamic distribution scheme + cost accounting.
//!
//! # Two-layer architecture
//!
//! The broker's state is split into a mutable
//! [`SubscriptionRegistry`] (the only structure `subscribe`/`unsubscribe`
//! touch directly) and an immutable [`EngineSnapshot`] (everything the
//! publish path reads: compiled matcher, grid model, partition, multicast
//! groups), versioned by an epoch and swapped atomically. Between full
//! recompiles, churn is absorbed incrementally:
//!
//! * new subscriptions land in a linear-scan delta overlay merged with
//!   the compiled index at match time; removals of compiled subscriptions
//!   are masked by a tombstone bitset;
//! * multicast groups are kept *exact* under the current partition via
//!   per-(group, node) incidence refcounts, and an
//!   [`IncrementalClusterer`] mirrors every change so the partition
//!   itself is refreshed locally every few operations;
//! * when the clusterer's drift threshold trips, the broker recompiles
//!   the whole engine from the registry — bit-identical to a fresh
//!   [`BrokerBuilder::build`] over the surviving subscriptions.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pubsub_clustering::{
    cluster, ClusteringAlgorithm, ClusteringConfig, GridModel, IncrementalClusterer,
    SpacePartition, SubscriptionHandle as ClustererHandle,
};
use pubsub_geom::{CellId, CellWalkBuf, Grid, Point, Rect, Space};
use pubsub_netsim::{
    cost_events_into, multicast_tree_cost_flat, sparse_mode_cost_flat, unicast_cost_flat,
    CostScratch, DijkstraScratch, FaultEvent, FaultPlan, FaultyRouting, FlatNet, NetError, NodeId,
    SptTable, SptView, Topology,
};
use pubsub_parallel::{pipeline_inline, BlockRanges, PipelineRun, WorkerPool};
use pubsub_stree::{DeltaOverlay, Entry, EntryId, Tombstones};
use serde::{Deserialize, Serialize};

use crate::journal::{DurableJournal, JournalConfig, JournalOp, RegistryImage};
use crate::matcher::{self, MatchOverlay};
use crate::metrics::{
    ChurnCounters, Delivery, MetricsSnapshot, PipelineCounters, RecoveryCounters,
};
use crate::pipeline::{BatchMatches, EventMeta, PublishScratch, NO_GROUP};
use crate::{
    BrokerError, CostReport, CoveringConfig, CoveringStats, Decision, DistributionPolicy,
    EngineSnapshot, MatchedSet, Matcher, MessageCosts, MulticastGroups, SubscriptionHandle,
    SubscriptionId, SubscriptionRegistry, UnicastReason,
};

/// Publication-density closure used by clustering.
type DensityFn = Box<dyn Fn(&Rect) -> f64 + Send + Sync>;

/// Which multicast flavor the broker simulates (the paper notes its
/// results apply to both network-supported and application-level
/// multicast).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum DeliveryMode {
    /// Network-supported dense-mode multicast: one message down the
    /// shortest-path tree rooted at the publisher (the paper's §5.2
    /// assumption).
    DenseMode,
    /// Network-supported sparse-mode multicast: the message is tunneled
    /// to a rendezvous point and flooded down the RP-rooted shared tree
    /// (the other router flavor the paper names; see
    /// `pubsub_netsim::sparse_mode_cost`).
    SparseMode {
        /// The rendezvous point all groups share.
        rendezvous: NodeId,
    },
    /// Application-level multicast: a greedy overlay tree among group
    /// members, every overlay hop a unicast (extension; see
    /// `pubsub_netsim::alm_tree_cost`).
    ApplicationLevel,
}

/// The outcome of publishing one event. Passive data: public fields.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct PublishOutcome {
    /// How the message was delivered.
    pub decision: Decision,
    /// The group region `S_q` the event fell in (`None` for `S_0`), even
    /// when the decision was unicast or drop — efficiency trackers need
    /// to attribute unicast decisions to the group they bypassed.
    pub group_region: Option<usize>,
    /// The matching subscription ids, ascending. The set references
    /// whole covering runs and writes the id list out on first read;
    /// `len()` never does.
    pub matched_subscriptions: MatchedSet,
    /// The deduplicated interested subscriber nodes `s`.
    pub interested: Vec<NodeId>,
    /// Matched subscriber nodes that were unreachable under the broker's
    /// fault state and therefore skipped — always empty on a fault-free
    /// broker.
    #[serde(default)]
    pub unreachable: Vec<NodeId>,
    /// Scheme / unicast / ideal costs of this message.
    pub costs: MessageCosts,
}

/// Builder for [`Broker`]; see [`Broker::builder`].
pub struct BrokerBuilder {
    topology: Topology,
    space: Space,
    subscriptions: Vec<(NodeId, Rect)>,
    publisher: Option<NodeId>,
    compile: CompileInputs,
    threshold: f64,
    delivery: DeliveryMode,
    recluster_fraction: f64,
    local_refresh_every: usize,
    pool: Option<Arc<WorkerPool>>,
    journal: Option<JournalConfig>,
}

impl fmt::Debug for BrokerBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokerBuilder")
            .field("subscriptions", &self.subscriptions.len())
            .field("publisher", &self.publisher)
            .field("clustering", &self.compile.clustering)
            .field("grid_cells", &self.compile.grid_cells)
            .field("threshold", &self.threshold)
            .field("delivery", &self.delivery)
            .field(
                "density",
                &self.compile.density.as_ref().map(|_| "<closure>"),
            )
            .field("recluster_fraction", &self.recluster_fraction)
            .field("local_refresh_every", &self.local_refresh_every)
            .field("pool", &self.pool.as_ref().map(|p| p.threads()))
            .field("covering", &self.compile.covering)
            .field("journal", &self.journal)
            .finish_non_exhaustive()
    }
}

impl BrokerBuilder {
    /// Adds one subscription.
    pub fn subscription(mut self, node: NodeId, rect: Rect) -> Self {
        self.subscriptions.push((node, rect));
        self
    }

    /// Adds many subscriptions.
    pub fn subscriptions<I>(mut self, subs: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, Rect)>,
    {
        self.subscriptions.extend(subs);
        self
    }

    /// Sets the publisher node (default: the topology's first transit
    /// node — "the exchange feed").
    pub fn publisher(mut self, node: NodeId) -> Self {
        self.publisher = Some(node);
        self
    }

    /// Overrides the clustering configuration (default: Forgy k-means
    /// with 11 groups, `T = 200`).
    pub fn clustering(mut self, config: ClusteringConfig) -> Self {
        self.compile.clustering = config;
        self
    }

    /// Overrides the grid resolution `C` (cells per dimension, default
    /// 10).
    pub fn grid_cells(mut self, cells: usize) -> Self {
        self.compile.grid_cells = cells;
        self
    }

    /// Sets the distribution threshold `t` (default 0.15, the paper's
    /// recommendation; 0 reproduces the static scheme).
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Selects the multicast flavor (default dense-mode).
    pub fn delivery_mode(mut self, mode: DeliveryMode) -> Self {
        self.delivery = mode;
        self
    }

    /// Sets the publication density `p_p(·)` used by clustering (default:
    /// uniform over the space). Pass the analytic mass of the publication
    /// model driving the experiment, e.g.
    /// `.density(move |r| model.mass(r))`.
    pub fn density<F>(mut self, density: F) -> Self
    where
        F: Fn(&Rect) -> f64 + Send + Sync + 'static,
    {
        self.compile.density = Some(Box::new(density));
        self
    }

    /// Sets the churn drift threshold: a full engine recompile runs when
    /// subscription changes since the last recompile exceed this fraction
    /// of the live population (default 0.5).
    pub fn recluster_fraction(mut self, fraction: f64) -> Self {
        self.recluster_fraction = fraction;
        self
    }

    /// Sets how many subscribe/unsubscribe operations run between local
    /// partition refreshes (default 64). Between refreshes the groups are
    /// still kept exact under the current partition; the refresh lets the
    /// partition itself follow the population.
    pub fn local_refresh_every(mut self, ops: usize) -> Self {
        self.local_refresh_every = ops;
        self
    }

    /// Overrides the covering layer every compile runs (default:
    /// [`CoveringConfig::default`]): subscriptions are deduplicated
    /// (exact interning, rectangle subsumption, optional quantized
    /// merge) into a representative set compiled into the
    /// `u16`-quantized [`pubsub_stree::CompactSTree`] the matcher
    /// queries, with a covering table mapping representative hits to the
    /// runs of concrete subscription ids they stand for. The publish
    /// path carries those runs, not the ids (see [`MatchedSet`]).
    /// Delivered sets and cost reports do not depend on the
    /// configuration; index memory drops with the workload's duplicate
    /// skew.
    pub fn covering(mut self, config: CoveringConfig) -> Self {
        self.compile.covering = config;
        self
    }

    /// Shares a persistent [`WorkerPool`] with the broker's batch-publish
    /// pipeline. Without this, the broker lazily spawns its own pool the
    /// first time a batch asks for more than one worker; injecting one
    /// lets several brokers share a single set of threads (the pool
    /// serializes whole jobs, so sharing is safe). The thread that
    /// publishes a batch works on it too: `WorkerPool::new(n)` is
    /// parallelism n, n − 1 threads.
    pub fn worker_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attaches a durable subscription journal: every
    /// `subscribe`/`unsubscribe`/`recompile` is appended to a checksummed
    /// WAL (with periodic registry snapshots truncating it) so
    /// [`BrokerBuilder::recover`] can rebuild the broker after a crash.
    /// Journal-less brokers (the default) pay nothing — the publish and
    /// churn paths are unchanged.
    pub fn journal(mut self, config: JournalConfig) -> Self {
        self.journal = Some(config);
        self
    }

    /// Recovers a broker from the journal configured via
    /// [`BrokerBuilder::journal`]: loads the last registry snapshot,
    /// replays the valid WAL tail (discarding a torn final record) into
    /// the restored registry, and compiles the engine from it — once,
    /// through the same compile [`BrokerBuilder::build`] and
    /// [`Broker::recompile`] run. The result is bit-identical to a live
    /// broker that held the same subscriptions and called
    /// [`Broker::recompile`] at the recovery point (it reports
    /// [`Broker::epoch`] 1, as that broker would) — handles keep their
    /// pre-crash numbering, dead slots stay dead.
    ///
    /// # Errors
    ///
    /// * [`BrokerError::InvalidConfig`] if no journal was configured or
    ///   builder subscriptions were supplied (recovery's subscription
    ///   source is the journal alone);
    /// * [`BrokerError::Journal`] for I/O failures, corrupt snapshots, or
    ///   a journal inconsistent with the topology;
    /// * plus every compile error [`BrokerBuilder::build`] can return.
    pub fn recover(mut self) -> Result<Broker, BrokerError> {
        let start = Instant::now();
        let Some(config) = self.journal.take() else {
            return Err(BrokerError::InvalidConfig {
                parameter: "journal",
                constraint: "recover() requires BrokerBuilder::journal(...)",
            });
        };
        if !self.subscriptions.is_empty() {
            return Err(BrokerError::InvalidConfig {
                parameter: "subscriptions",
                constraint: "empty — recovery replays the journal, not builder subscriptions",
            });
        }
        let node_count = self.topology.graph().node_count();
        let (mut journal, replay) = DurableJournal::resume(&config)?;
        let image = replay.image.unwrap_or(RegistryImage {
            node_count: node_count as u32,
            next_slot: 0,
            live: Vec::new(),
        });
        if image.node_count as usize != node_count {
            return Err(BrokerError::Journal {
                message: format!(
                    "snapshot was taken over {} nodes, topology has {node_count}",
                    image.node_count
                ),
            });
        }
        let mut registry = image.restore()?;
        let mut replayed_ops = 0u64;
        let mut stale_ops = 0u64;
        // Replay is idempotent against the crash window between the
        // snapshot rename and the WAL truncation: the snapshot already
        // folded those records, and because handles are never reused a
        // stale record is recognizable — a subscribe below the restored
        // next-slot, or an unsubscribe of an already-dead handle.
        for op in &replay.tail {
            match op {
                JournalOp::Subscribe { handle, node, rect } => {
                    if (*handle as usize) < registry.issued() {
                        stale_ops += 1;
                        continue;
                    }
                    let issued = registry.insert(NodeId(*node), rect.clone())?;
                    if issued.raw() != *handle {
                        return Err(BrokerError::Journal {
                            message: format!(
                                "replay issued handle {} where the log recorded {handle}",
                                issued.raw()
                            ),
                        });
                    }
                }
                JournalOp::Unsubscribe { handle } => {
                    if (*handle as usize) >= registry.issued() {
                        return Err(BrokerError::Journal {
                            message: format!(
                                "replay unsubscribes handle {handle}, which was never issued"
                            ),
                        });
                    }
                    let target = SubscriptionHandle::from_raw(*handle);
                    if !registry.contains(target) {
                        stale_ops += 1;
                        continue;
                    }
                    registry.remove(target)?;
                }
                // The final compile below folds every survivor already.
                JournalOp::Recompile => {}
            }
            replayed_ops += 1;
        }
        // Epoch 1: the engine a never-crashed broker holds after
        // recompiling over these survivors at this point.
        let (policy, publisher) = self.validate()?;
        let mut broker = self.assemble(policy, publisher, registry, 1)?;
        journal.write_snapshot(&broker.registry)?;
        broker.journal = Some(journal);
        broker.recovery = RecoveryCounters {
            truncated_records: replay.truncated_records,
            recovery_ms: start.elapsed().as_millis() as u64,
            replayed_ops,
            stale_ops,
        };
        Ok(broker)
    }

    /// Builds the broker: indexes subscriptions, clusters the event
    /// space, materializes multicast groups and precomputes routing.
    ///
    /// The builder's subscriptions are *moved* into the registry and the
    /// engine is compiled from there — the path every later
    /// [`Broker::recompile`] takes — so no second copy of the rectangles
    /// exists during the build.
    ///
    /// # Errors
    ///
    /// Propagates every layer's configuration errors; additionally
    /// rejects out-of-topology nodes and dimensionality mismatches.
    pub fn build(mut self) -> Result<Broker, BrokerError> {
        let (policy, publisher) = self.validate()?;

        // The mutable layer: every subscription gets a stable handle.
        let mut registry = SubscriptionRegistry::new(self.topology.graph().node_count());
        registry.reserve(self.subscriptions.len());
        for (node, rect) in std::mem::take(&mut self.subscriptions) {
            registry.insert(node, rect)?;
        }

        // A configured journal starts from a fresh directory with the
        // initial registry as its first snapshot, so recovery never needs
        // the builder's subscription list.
        let journal = match self.journal.take() {
            Some(config) => {
                let mut journal = DurableJournal::create(&config)?;
                journal.write_snapshot(&registry)?;
                Some(journal)
            }
            None => None,
        };
        let mut broker = self.assemble(policy, publisher, registry, 0)?;
        broker.journal = journal;
        Ok(broker)
    }

    /// Checks the options that need no subscription, resolving the
    /// distribution policy and the default publisher.
    fn validate(&self) -> Result<(DistributionPolicy, NodeId), BrokerError> {
        let policy = DistributionPolicy::new(self.threshold)?;
        if !(self.recluster_fraction > 0.0 && self.recluster_fraction.is_finite()) {
            return Err(BrokerError::InvalidConfig {
                parameter: "recluster_fraction",
                constraint: "0 < fraction < inf",
            });
        }
        if self.local_refresh_every == 0 {
            return Err(BrokerError::InvalidConfig {
                parameter: "local_refresh_every",
                constraint: "at least 1",
            });
        }
        let publisher = match self.publisher {
            Some(p) => {
                if p.0 as usize >= self.topology.graph().node_count() {
                    return Err(BrokerError::UnknownNode { node: p.0 });
                }
                p
            }
            None => *self
                .topology
                .transit_nodes()
                .first()
                .or_else(|| self.topology.stub_nodes().first())
                .ok_or(BrokerError::InvalidConfig {
                    parameter: "topology",
                    constraint: "at least one node",
                })?,
        };
        Ok((policy, publisher))
    }

    /// Compiles the engine from `registry` at `epoch`, precomputes routing
    /// and assembles the (journal-less) broker — the tail
    /// [`BrokerBuilder::build`] and [`BrokerBuilder::recover`] share.
    fn assemble(
        self,
        policy: DistributionPolicy,
        publisher: NodeId,
        mut registry: SubscriptionRegistry,
        epoch: u64,
    ) -> Result<Broker, BrokerError> {
        let node_count = self.topology.graph().node_count();
        let snapshot = compile_engine(&self.space, &mut registry, &self.compile, epoch)?;

        // The compiled network engine: CSR adjacency once, then dense SPT
        // rows for every routing source the delivery mode needs, built in
        // parallel.
        let net = FlatNet::compile(self.topology.graph());
        let mut spt_sources = vec![publisher];
        if let DeliveryMode::SparseMode { rendezvous } = self.delivery {
            if rendezvous.0 as usize >= node_count {
                return Err(BrokerError::UnknownNode { node: rendezvous.0 });
            }
            spt_sources.push(rendezvous);
        }
        let spt = SptTable::build(&net, &spt_sources, None);
        let alm_dist = match self.delivery {
            DeliveryMode::DenseMode | DeliveryMode::SparseMode { .. } => None,
            DeliveryMode::ApplicationLevel => {
                // Full distance matrix so per-message Prim is table
                // lookups; one parallel flat-Dijkstra pass per row.
                let sources: Vec<NodeId> = self.topology.graph().node_ids().collect();
                let rows = pubsub_parallel::map_with_scratch(
                    &sources,
                    pubsub_parallel::effective_threads(None),
                    DijkstraScratch::new,
                    |&s, scratch| {
                        let sp = net.shortest_paths(s, scratch);
                        (0..node_count).map(|t| sp.dist(NodeId(t as u32))).collect()
                    },
                );
                Some(rows)
            }
        };

        Ok(Broker {
            topology: self.topology,
            space: self.space,
            registry,
            snapshot,
            policy,
            publisher,
            net,
            spt,
            route_scratch: DijkstraScratch::new(),
            cost_scratch: CostScratch::new(),
            scheme_memo: SchemeMemo::default(),
            scheme_walks: 0,
            delivery: self.delivery,
            alm_dist,
            report: CostReport::default(),
            compile: self.compile,
            recluster_fraction: self.recluster_fraction,
            local_refresh_every: self.local_refresh_every,
            churn: None,
            counters: ChurnCounters::default(),
            pool: self.pool,
            pipeline_states: Vec::new(),
            pipeline_counters: PipelineCounters::default(),
            faults: None,
            panic_trap: AtomicUsize::new(usize::MAX),
            journal: None,
            recovery: RecoveryCounters::default(),
        })
    }
}

/// What a compile reads besides the subscriptions. Held by the builder
/// and then by the broker, so every recompile reproduces the build.
struct CompileInputs {
    clustering: ClusteringConfig,
    grid_cells: usize,
    density: Option<DensityFn>,
    covering: CoveringConfig,
}

/// The one compile: matcher, grid model, partition and groups from the
/// registry's live subscriptions, installed as the snapshot of `epoch`
/// with the new engine ids bound to their handles. `build`, `recover`
/// and every recompile end here, which is what makes them bit-identical
/// over the same survivors; on error the registry is untouched.
///
/// Deterministic in registry order: subscription ids are assigned in
/// [`SubscriptionRegistry::live`] order and the clustering is seed-free.
/// The matcher streams the registry through the covering layer and
/// compiles its representative set into the quantized compact index
/// ([`Matcher::build_covered`]); the grid model, partition and groups
/// see the per-subscription sequence, so nothing downstream of matching
/// depends on how the covering layer aggregated.
fn compile_engine(
    space: &Space,
    registry: &mut SubscriptionRegistry,
    inputs: &CompileInputs,
    epoch: u64,
) -> Result<Arc<EngineSnapshot>, BrokerError> {
    let subs: &SubscriptionRegistry = registry;
    let matcher = Matcher::build_covered(space, subs, &inputs.covering)?;

    // Dense subscriber indexing for the clustering model.
    let distinct: Vec<NodeId> = subs.active_nodes().collect();
    let mut dense_of = vec![0usize; subs.node_capacity()];
    for (i, node) in distinct.iter().enumerate() {
        dense_of[node.0 as usize] = i;
    }

    // The grid covers the space bounds, so the model's cell walk clamps
    // each rectangle exactly as the matcher's `space.clamp` does.
    let grid = Grid::uniform(space.bounds().clone(), inputs.grid_cells)?;
    let indexed = subs.live().map(|(_, n, r)| (dense_of[n.0 as usize], r));
    let grid_model = match inputs.density.as_deref() {
        Some(f) => GridModel::build_iter(grid, distinct.len(), indexed, f)?,
        None => {
            let space_volume = space.bounds().volume();
            let uniform = move |r: &Rect| r.volume() / space_volume;
            GridModel::build_iter(grid, distinct.len(), indexed, uniform)?
        }
    };
    let partition = cluster(&grid_model, &inputs.clustering)?;
    let groups = MulticastGroups::from_partition(&grid_model, &partition, &distinct);

    // Commit point: nothing below can fail.
    Ok(Arc::new(EngineSnapshot {
        epoch,
        matcher: Arc::new(matcher),
        grid_model: Arc::new(grid_model),
        partition: Arc::new(partition),
        groups: Arc::new(groups),
        id_to_handle: Arc::new(registry.bind_compiled_ids()),
    }))
}

/// Epoch-keyed, per-publisher memo of group-send costs: the scheme cost
/// of a multicast depends only on (epoch, fault stamp, publisher, group,
/// delivery mode). Entries survive publisher switches; the whole memo
/// resets lazily when the snapshot epoch or the fault stamp moves past
/// it. The fault stamp is `route_generation + decision_gen` — it only
/// moves when a heal actually changed routing bits or a committed group
/// health transition changed the fallback ladder, so a flapping link
/// that never changes either does not thrash the memo.
#[derive(Debug, Default)]
struct SchemeMemo {
    epoch: u64,
    fault_stamp: u64,
    per_publisher: Vec<(NodeId, Vec<Option<f64>>)>,
}

impl SchemeMemo {
    /// The memo row for `publisher` at `(epoch, fault_stamp)`, clearing
    /// stale keys first. The row has one slot per group.
    fn slot(
        &mut self,
        epoch: u64,
        fault_stamp: u64,
        publisher: NodeId,
        groups: usize,
    ) -> &mut Vec<Option<f64>> {
        if self.epoch != epoch || self.fault_stamp != fault_stamp {
            self.per_publisher.clear();
            self.epoch = epoch;
            self.fault_stamp = fault_stamp;
        }
        match self.per_publisher.iter().position(|(p, _)| *p == publisher) {
            Some(i) => &mut self.per_publisher[i].1,
            None => {
                self.per_publisher.push((publisher, vec![None; groups]));
                &mut self.per_publisher.last_mut().expect("just pushed").1
            }
        }
    }
}

/// Consecutive identical raw health evaluations (differing from the
/// committed state) required before a (publisher, group) pair's
/// committed health moves — the hysteresis that keeps a flapping link
/// from thrashing the scheme-cost memo.
const HEALTH_HYSTERESIS: u32 = 2;

/// Delivery health of one (publisher, group) pair under the current
/// fault state, classified from the fraction of group members reachable
/// from the publisher and committed under hysteresis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GroupHealth {
    /// Every member is reachable: multicast over the full tree.
    Healthy,
    /// At least half the members are reachable: the group degrades to a
    /// partial multicast over the surviving subtree.
    Degraded,
    /// Fewer than half the members are reachable: the tree counts as
    /// severed and delivery falls back to per-receiver unicast.
    Severed,
}

/// Hysteresis state of one (publisher, group) pair.
#[derive(Clone, Copy, Debug)]
struct HealthSlot {
    committed: GroupHealth,
    candidate: GroupHealth,
    streak: u32,
    /// Publish step of the last raw evaluation (`u64::MAX` = never).
    eval_step: u64,
}

impl Default for HealthSlot {
    fn default() -> Self {
        HealthSlot {
            committed: GroupHealth::Healthy,
            candidate: GroupHealth::Healthy,
            streak: 0,
            eval_step: u64::MAX,
        }
    }
}

/// The broker's fault machinery: the overlay-backed self-healing routing
/// state, the installed schedule with its publish-step clock, and the
/// per-(publisher, group) health classification driving the degraded
/// fallback ladder.
#[derive(Debug)]
struct FaultState {
    routing: FaultyRouting,
    plan: FaultPlan,
    /// Index of the first plan event not yet fired.
    next_event: usize,
    /// The publish-step clock: incremented once per publish attempt.
    step: u64,
    /// Snapshot epoch the health table was built for; group identities
    /// change with the snapshot, so the table resets when it moves.
    health_epoch: u64,
    health: Vec<(NodeId, Vec<HealthSlot>)>,
    /// Bumps on every committed health transition; part of the scheme
    /// memo's fault stamp.
    decision_gen: u64,
}

/// Classifies — and commits, under hysteresis — the health of one
/// (publisher, group) pair from the fraction of members reachable in
/// the publisher's fault-healed routing view. Raw evaluations run at
/// most once per publish step per slot, so consecutive publishes
/// advance the hysteresis streak while repeated health queries within
/// one publish stay stable; a committed transition bumps
/// `decision_gen`, invalidating the scheme-cost memo.
fn eval_group_health(
    faults: &mut FaultState,
    snapshot_epoch: u64,
    group_count: usize,
    publisher: NodeId,
    q: usize,
    members: &[NodeId],
    view: SptView<'_>,
) -> GroupHealth {
    if faults.health_epoch != snapshot_epoch {
        // Group identities changed with the snapshot: start the
        // classification (and its hysteresis) over.
        faults.health.clear();
        faults.health_epoch = snapshot_epoch;
    }
    let step = faults.step;
    let row = match faults.health.iter().position(|(p, _)| *p == publisher) {
        Some(i) => &mut faults.health[i].1,
        None => {
            faults
                .health
                .push((publisher, vec![HealthSlot::default(); group_count]));
            &mut faults.health.last_mut().expect("just pushed").1
        }
    };
    let slot = &mut row[q];
    if slot.eval_step == step {
        return slot.committed;
    }
    slot.eval_step = step;
    let total = members.len();
    let reachable = members.iter().filter(|&&m| view.reachable(m)).count();
    let raw = if total == 0 || reachable == total {
        GroupHealth::Healthy
    } else if reachable * 2 >= total {
        GroupHealth::Degraded
    } else {
        GroupHealth::Severed
    };
    if raw == slot.committed {
        slot.streak = 0;
        slot.candidate = slot.committed;
    } else {
        if raw == slot.candidate {
            slot.streak += 1;
        } else {
            slot.candidate = raw;
            slot.streak = 1;
        }
        if slot.streak >= HEALTH_HYSTERESIS {
            slot.committed = raw;
            slot.streak = 0;
            faults.decision_gen += 1;
        }
    }
    slot.committed
}

/// The broker's churn machinery, created lazily on the first
/// subscribe/unsubscribe: the mirror clusterer, the match-side overlay and
/// tombstones, and the per-(group, node) incidence refcounts that keep
/// multicast groups exact between partition refreshes.
#[derive(Debug)]
struct ChurnState {
    clusterer: IncrementalClusterer,
    cl_handles: HashMap<SubscriptionHandle, ClustererHandle>,
    /// Per group: a dense node-indexed count of (subscription, cell)
    /// incidences in the group's region. A node is a member iff its count
    /// is positive. Dense indexing keeps the per-churn-op update O(cells
    /// intersected) with no hashing.
    group_rc: Vec<Vec<u32>>,
    overlay: DeltaOverlay,
    tombstones: Tombstones,
    /// Owner nodes of overlay entries, indexed by `engine_id - base`;
    /// slots of removed entries keep their value so indexing stays
    /// stable.
    overlay_owners: Vec<NodeId>,
    /// Registry handles of overlay entries (`None` once unsubscribed).
    overlay_handles: Vec<Option<SubscriptionHandle>>,
    overlay_max_node: u32,
    ops_since_refresh: usize,
    /// Scratch of the per-op cell walk behind the `group_rc` delta.
    walk: CellWalkBuf,
}

/// The content-based pub-sub broker of the paper, end to end: publish an
/// event, get back the matched subscribers, the unicast/multicast
/// decision and the communication costs. Subscriptions can be added and
/// removed live; see the module docs for the two-layer architecture.
pub struct Broker {
    topology: Topology,
    space: Space,
    /// The mutable layer: live subscriptions with stable handles.
    registry: SubscriptionRegistry,
    /// The immutable layer: everything the publish path reads, swapped
    /// atomically on change.
    snapshot: Arc<EngineSnapshot>,
    policy: DistributionPolicy,
    /// The default publisher; `publish_from` supports others.
    publisher: NodeId,
    /// The CSR compilation of the topology graph.
    net: FlatNet,
    /// Precomputed SPT rows per routing source (publishers seen so far
    /// plus the rendezvous point in sparse mode).
    spt: SptTable,
    /// Reusable Dijkstra state for lazily added publishers.
    route_scratch: DijkstraScratch,
    /// Reusable epoch-stamped marks for the per-event cost walks.
    cost_scratch: CostScratch,
    /// Epoch-keyed per-publisher group-send cost memo.
    scheme_memo: SchemeMemo,
    /// How many scheme-cost tree walks actually ran (memo misses).
    scheme_walks: u64,
    delivery: DeliveryMode,
    alm_dist: Option<Vec<Vec<f64>>>,
    report: CostReport,
    /// Retained so `recompile` reproduces `build` exactly.
    compile: CompileInputs,
    recluster_fraction: f64,
    local_refresh_every: usize,
    churn: Option<ChurnState>,
    counters: ChurnCounters,
    /// The persistent worker pool behind `publish_batch`; `None` until a
    /// batch first asks for more than one worker (or one was injected via
    /// [`BrokerBuilder::worker_pool`]).
    pool: Option<Arc<WorkerPool>>,
    /// Per-worker fused-pipeline states, constructed once and reused for
    /// every batch (index = pool worker index).
    pipeline_states: Vec<PublishScratch>,
    pipeline_counters: PipelineCounters,
    /// Fault-injection state; `None` until a plan is installed. While a
    /// plan is installed, batch publishes run as fault-clock segments:
    /// the fused pipeline inside each segment, the per-event clock
    /// replayed by the sequential fold.
    faults: Option<FaultState>,
    /// Test hook: pool-worker index armed to panic once on its next
    /// fused pass (`usize::MAX` = disarmed).
    panic_trap: AtomicUsize,
    /// The durable subscription journal; `None` (the default) keeps the
    /// churn path exactly as it was — no I/O, no clones, no allocation.
    journal: Option<DurableJournal>,
    /// Counters describing the recovery that produced this broker (all
    /// zero for a broker built fresh).
    recovery: RecoveryCounters,
}

impl fmt::Debug for Broker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Broker")
            .field("live_subscriptions", &self.registry.len())
            .field("epoch", &self.snapshot.epoch)
            .field("publisher", &self.publisher)
            .field("delivery", &self.delivery)
            .field("clustering", &self.compile.clustering)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl Broker {
    /// Starts building a broker over a topology and event space.
    pub fn builder(topology: Topology, space: Space) -> BrokerBuilder {
        BrokerBuilder {
            topology,
            space,
            subscriptions: Vec::new(),
            publisher: None,
            compile: CompileInputs {
                clustering: ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 11),
                grid_cells: 10,
                density: None,
                covering: CoveringConfig::default(),
            },
            threshold: 0.15,
            delivery: DeliveryMode::DenseMode,
            recluster_fraction: 0.5,
            local_refresh_every: 64,
            pool: None,
            journal: None,
        }
    }

    /// Aggregation statistics of the current snapshot's covering layer
    /// (see [`BrokerBuilder::covering`]). Always `Some`: every broker
    /// compiles through the covering layer.
    pub fn covering_stats(&self) -> Option<&CoveringStats> {
        Some(self.snapshot.matcher.covering_stats())
    }

    /// Publishes one event from the default publisher:
    /// [`Broker::publish_from`] with [`Broker::publisher`].
    ///
    /// # Errors
    ///
    /// As [`Broker::publish_from`].
    pub fn publish(&mut self, event: &Point) -> Result<PublishOutcome, BrokerError> {
        self.publish_from(self.publisher, event)
    }

    /// Publishes one event from an arbitrary publisher node. The paper
    /// notes dense-mode router state is proportional to *publishers* ×
    /// groups; this entry point lets experiments model multiple feeds.
    /// Shortest-path trees are computed once per publisher and cached.
    ///
    /// A one-event batch on the calling thread: it runs the same pass
    /// and fold as [`Broker::publish_batch`], counts in
    /// [`MetricsSnapshot::pipeline`] like any other batch, and never
    /// creates or wakes a worker pool.
    ///
    /// # Errors
    ///
    /// Checked in this order:
    ///
    /// * [`BrokerError::UnknownNode`] if `publisher` is not in the
    ///   topology;
    /// * [`BrokerError::DimensionMismatch`] for a wrong-dimensional
    ///   event;
    /// * [`BrokerError::Net`] with [`NetError::Unreachable`] if an
    ///   installed fault plan has taken the publisher node down (the
    ///   fault clock has advanced by then).
    pub fn publish_from(
        &mut self,
        publisher: NodeId,
        event: &Point,
    ) -> Result<PublishOutcome, BrokerError> {
        let mut outcome = Vec::with_capacity(1);
        self.publish_core(
            publisher,
            std::slice::from_ref(event),
            Some(1),
            Some(&mut outcome),
        )?;
        Ok(outcome.pop().expect("one outcome per event"))
    }

    /// Publishes a batch of events from the default publisher.
    ///
    /// The batch runs as a fused pipeline on the broker's persistent
    /// [`WorkerPool`]: each worker executes match → cost for its
    /// block-cyclic share of the events in one pass, reusing a
    /// per-worker [`PublishScratch`] (match scratch, epoch-stamped cost
    /// scratch, CSR result arena) that is constructed once — the warm
    /// batch path performs zero per-event heap allocations up to output
    /// materialization. The record stage then decides and folds
    /// sequentially **in event order**, so the cumulative [`CostReport`] and the returned
    /// outcomes do not depend on how the events were cut into batches or
    /// on the thread count (`None` = available parallelism): N events in
    /// one batch at T workers equal N one-event batches, including
    /// mid-churn with a pending overlay and tombstones.
    ///
    /// With a fault plan installed the batch still runs through the
    /// worker pool: it is cut into *fault-clock segments* at the plan's
    /// scheduled firings (routing and node state are constant inside a
    /// segment), each segment runs the same fused pipeline — with matched
    /// nodes additionally partitioned by reachability when a fault has
    /// applied — and the sequential fold replays the per-event fault
    /// clock, health hysteresis and fallback ladder.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::DimensionMismatch`] if any event has the
    /// wrong dimensionality; the whole batch is validated up front, so on
    /// error nothing has been published or recorded. With a fault plan
    /// installed, [`NetError::Unreachable`] (the publisher went down
    /// mid-plan) aborts the batch at the failing event; earlier events
    /// stay recorded, exactly as one-event batches would leave them.
    pub fn publish_batch(
        &mut self,
        events: &[Point],
        threads: Option<usize>,
    ) -> Result<Vec<PublishOutcome>, BrokerError> {
        let mut outcomes = Vec::with_capacity(events.len());
        self.publish_core(self.publisher, events, threads, Some(&mut outcomes))?;
        Ok(outcomes)
    }

    /// [`Broker::publish_batch`] without materializing per-event
    /// outcomes: the fused pipeline and the sequential record fold run
    /// identically (the cumulative report advances by exactly the same
    /// values), but nothing is copied out of the worker arenas. With warm
    /// pipeline states this path performs **no heap allocation at all**
    /// in dense mode. Returns a copy of the cumulative report.
    ///
    /// # Errors
    ///
    /// As [`Broker::publish_batch`].
    pub fn publish_batch_stats(
        &mut self,
        events: &[Point],
        threads: Option<usize>,
    ) -> Result<CostReport, BrokerError> {
        self.publish_core(self.publisher, events, threads, None)?;
        Ok(self.report)
    }

    /// The whole synchronous publish path; every public entry point is
    /// an adapter over it. Checks the publisher and the batch, then runs
    /// the fused pass ([`Broker::run_pipeline`]) and the in-order fold —
    /// as one piece on a broker without a fault plan, as fault-clock
    /// segments ([`Broker::publish_segments`]) with one. With `outcomes`
    /// it materializes one [`PublishOutcome`] per event.
    fn publish_core(
        &mut self,
        publisher: NodeId,
        events: &[Point],
        threads: Option<usize>,
        outcomes: Option<&mut Vec<PublishOutcome>>,
    ) -> Result<(), BrokerError> {
        if publisher.0 as usize >= self.topology.graph().node_count() {
            return Err(BrokerError::UnknownNode { node: publisher.0 });
        }
        self.validate_batch(events)?;
        // The worker states leave `self` for the call: the folds read
        // them while the fault clock and the memo borrow the broker.
        let mut states = std::mem::take(&mut self.pipeline_states);
        let result = if self.faults.is_some() {
            self.publish_segments(publisher, events, threads, &mut states, outcomes)
        } else {
            let batch = self.run_pipeline(publisher, events, threads, false, &mut states);
            self.fold_batch(publisher, batch, false, outcomes);
            Ok(())
        };
        self.pipeline_states = states;
        result
    }

    /// [`Broker::publish_core`] under an installed fault plan: cuts the
    /// batch into fault-clock segments (a segment ends right before the
    /// next scheduled plan firing, so routing, node state and the fault
    /// overlay are constant within it), runs every segment through the
    /// fused worker pipeline, and folds sequentially through
    /// [`Broker::fold_batch`]. A degraded segment (a fault has applied)
    /// first heals the routing rows it reads, and its fold replays the
    /// per-event step clock, health hysteresis and fallback ladder.
    /// Outcomes, report, memo and hysteresis state do not depend on where
    /// the caller cut its batches.
    fn publish_segments(
        &mut self,
        publisher: NodeId,
        events: &[Point],
        threads: Option<usize>,
        states: &mut Vec<PublishScratch>,
        mut outcomes: Option<&mut Vec<PublishOutcome>>,
    ) -> Result<(), BrokerError> {
        let mut start = 0usize;
        while start < events.len() {
            // Tick the clock for the segment's first event: fires
            // everything due and decides the segment's mode. Any later
            // firing is, by the segmentation below, the start of the
            // *next* segment, so no event inside this one can change
            // routing or node state.
            let degraded = self.tick_faults();
            let faults = self.faults.as_mut().expect("fault path implies a plan");
            let current = faults.step - 1;
            let remaining = (events.len() - start) as u64;
            let seg = match faults.plan.events().get(faults.next_event) {
                Some(scheduled) => (scheduled.at - current).min(remaining) as usize,
                None => remaining as usize,
            };
            let seg_events = &events[start..start + seg];
            if degraded {
                if !faults.routing.node_up(publisher) {
                    // The publisher is down for the whole segment: the
                    // publish aborts at the segment's first event, its
                    // clock tick already taken.
                    return Err(BrokerError::Net(NetError::Unreachable {
                        node: publisher.0,
                    }));
                }
                // Self-healing: re-derive the stale rows this segment
                // reads, lazily, against the current overlay.
                faults.routing.heal(&self.net, &mut self.spt, publisher);
                if let DeliveryMode::SparseMode { rendezvous } = self.delivery {
                    faults.routing.heal(&self.net, &mut self.spt, rendezvous);
                }
                self.pipeline_counters.degraded_segments += 1;
            } else {
                // Nothing has ever faulted: the remaining seg - 1 ticks
                // fire nothing and no health state exists yet, so the
                // clock advances in bulk.
                faults.step += seg as u64 - 1;
            }
            let batch = self.run_pipeline(publisher, seg_events, threads, degraded, states);
            self.fold_batch(publisher, batch, degraded, outcomes.as_deref_mut());
            self.pipeline_counters.fault_segments += 1;
            start += seg;
        }
        Ok(())
    }

    /// Up-front dimensionality validation shared by the batch entry
    /// points, so a bad event rejects the batch before anything records.
    fn validate_batch(&self, events: &[Point]) -> Result<(), BrokerError> {
        for event in events {
            if event.dims() != self.space.dims() {
                return Err(BrokerError::DimensionMismatch {
                    expected: self.space.dims(),
                    got: event.dims(),
                });
            }
        }
        Ok(())
    }

    /// The parallel front of a publication: dispatches the fused match →
    /// cost pass over the worker pool (created lazily on first use) into
    /// the per-worker `states` and accounts it in the pipeline counters.
    /// Returns the view over the results, which knows the worker count
    /// the fold needs to invert the block-cyclic assignment. The caller
    /// has validated `publisher` and `events`; the distribution decision
    /// is left to [`Broker::fold_batch`].
    ///
    /// In `degraded` mode (a fault has applied; the caller has already
    /// healed the routing rows this pass reads) the workers additionally
    /// partition each event's matched nodes by reachability and cost only
    /// the reachable prefix.
    fn run_pipeline<'s>(
        &mut self,
        publisher: NodeId,
        events: &[Point],
        threads: Option<usize>,
        degraded: bool,
        states: &'s mut Vec<PublishScratch>,
    ) -> BatchMatches<'s> {
        self.spt
            .ensure(&self.net, publisher, &mut self.route_scratch);
        let requested = pubsub_parallel::effective_threads(threads);
        if requested > 1 && self.pool.is_none() && pubsub_parallel::effective_threads(None) > 1 {
            // Size the lazily created pool for the machine, not for this
            // call, so a later batch asking for more workers reuses it.
            // The size is the batch's parallelism *including* this
            // thread, which runs worker 0 itself: one core per worker,
            // one pool thread fewer. On a single-core host no pool is
            // ever created here — a second thread has no core to run on,
            // so a deferred or explicit multi-worker request degenerates
            // to inline unless a pool was injected via the builder.
            self.pool = Some(Arc::new(WorkerPool::new(
                pubsub_parallel::effective_threads(None).max(requested),
            )));
        }
        // One share per full block of events, up to the pool's
        // parallelism: a batch of fewer than two blocks runs inline.
        let workers = match &self.pool {
            Some(pool) => pubsub_parallel::shares(events.len(), requested.min(pool.threads())),
            None => 1,
        };
        if states.len() < workers {
            states.resize_with(workers, PublishScratch::default);
        }

        // Everything the workers read, bound up front: the pass itself
        // lives in [`FusedPass::run`].
        let pass = FusedPass::bind(
            &self.snapshot,
            self.delivery,
            publisher,
            self.alm_dist.as_deref(),
            churn_view_of(&self.churn, &self.snapshot),
            &self.spt,
            degraded,
            events,
        );
        let trap = &self.panic_trap;
        let worker = |_w: usize, state: &mut PublishScratch, ranges: BlockRanges| {
            if trap
                .compare_exchange(_w, usize::MAX, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                panic!("injected worker panic (test hook)");
            }
            pass.run(state, ranges);
        };

        let run = if workers == 1 {
            // One worker, none quarantined: a panic on the calling
            // thread propagates instead.
            pipeline_inline(&mut states[0], events.len(), worker);
            PipelineRun {
                workers: 1,
                quarantined: 0,
            }
        } else {
            self.pool
                .as_ref()
                .expect("pool exists when workers > 1")
                .try_pipeline(workers, states, events.len(), worker)
        };
        account_pass(&mut self.pipeline_counters, events.len(), run, states);
        BatchMatches {
            states: &states[..run.workers],
            workers: run.workers,
            len: events.len(),
        }
    }

    /// The sequential tail of every publication, with or without faults:
    /// walks the fused results **in global event order** and, per event,
    /// decides by the paper's rule (unicast from `S_0`, drop an empty
    /// interested set, multicast to `M_q` iff `|s|/|M_q| ≥ t`), resolves
    /// the multicast scheme cost through the memo and folds everything
    /// into the cumulative report. The scheme cost of a group send is
    /// event-independent, so each (epoch, fault stamp, publisher, group)
    /// is walked at most once, and switching publishers does not evict
    /// other publishers' rows. When `outcomes` is given, also
    /// materializes one [`PublishOutcome`] per event: the node slices are
    /// copied, the matched subscriptions stay run references.
    ///
    /// A `degraded` segment (a fault has applied; the segment driver has
    /// ticked its first event and healed the rows the pass read)
    /// additionally advances the per-event step clock, evaluates group
    /// health under hysteresis at each event's step, walks the fallback
    /// ladder over the reachability-masked member set and keys the memo
    /// on the fault state. Otherwise every group is healthy, the fault
    /// stamp is 0 and the reachable members are the whole group: the fold
    /// ticks no clock and allocates nothing beyond the outcomes.
    fn fold_batch(
        &mut self,
        publisher: NodeId,
        batch: BatchMatches<'_>,
        degraded: bool,
        mut outcomes: Option<&mut Vec<PublishOutcome>>,
    ) {
        let Broker {
            snapshot,
            policy,
            delivery,
            spt,
            alm_dist,
            faults,
            scheme_memo,
            scheme_walks,
            cost_scratch,
            report,
            ..
        } = self;
        let (snapshot, spt, delivery) = (&**snapshot, &*spt, *delivery);
        let view = spt.view(publisher).expect("publisher SPT ensured");
        // In sparse mode a cut-off rendezvous point severs every shared
        // tree: no multicast flavor is available at all.
        let rp_cut =
            degraded && sparse_binding(delivery, spt, view).is_some_and(|(_, d)| !d.is_finite());
        let mut faults = degraded.then(|| faults.as_mut().expect("degraded fold implies a plan"));
        for i in 0..batch.len() {
            let meta = batch.meta(i);
            let interested = batch.interested(i);
            let unreach = batch.unreachable(i);
            let group = (meta.group != NO_GROUP).then_some(meta.group as usize);
            let mut health = GroupHealth::Healthy;
            let mut fault_stamp = 0;
            if let Some(faults) = faults.as_deref_mut() {
                if i > 0 {
                    // The segment ends right before the next scheduled
                    // plan event, so this tick fires nothing; it advances
                    // the step clock the health hysteresis is keyed on.
                    faults.step += 1;
                }
                if let Some(q) = group {
                    health = eval_group_health(
                        faults,
                        snapshot.epoch,
                        snapshot.groups.len(),
                        publisher,
                        q,
                        snapshot.groups.members(q),
                        view,
                    );
                }
                fault_stamp = faults.routing.route_generation() + faults.decision_gen;
            }

            let decision = match (group, health) {
                (Some(_), GroupHealth::Severed) if !interested.is_empty() => Decision::Unicast {
                    reason: UnicastReason::GroupSevered,
                },
                (Some(q), GroupHealth::Degraded) => {
                    let members = snapshot.groups.members(q);
                    let reach_size = members.iter().filter(|&&m| view.reachable(m)).count();
                    match policy.decide_counts(group, interested.len(), reach_size) {
                        Decision::Multicast { group } => Decision::PartialMulticast { group },
                        other => other,
                    }
                }
                _ => {
                    let group_size = group.map_or(0, |q| snapshot.groups.members(q).len());
                    policy.decide_counts(group, interested.len(), group_size)
                }
            };
            let decision = match decision {
                Decision::Multicast { .. } | Decision::PartialMulticast { .. } if rp_cut => {
                    Decision::Unicast {
                        reason: UnicastReason::GroupSevered,
                    }
                }
                other => other,
            };

            let (scheme, delivered, wasted) = match decision {
                Decision::Drop => (
                    0.0,
                    Delivery::Dropped {
                        unreachable: unreach.len() as u32,
                    },
                    0,
                ),
                Decision::Unicast { .. } => (meta.unicast, Delivery::Unicast, 0),
                // Both multicast flavors cost (and deliver) over the
                // *reachable* member subset: an interested member is
                // covered exactly when the healed tree still reaches it,
                // and pruned branches cost nothing — this also keeps the
                // scheme cost finite while hysteresis lags a committed
                // transition.
                Decision::Multicast { group: q } | Decision::PartialMulticast { group: q } => {
                    let members = snapshot.groups.members(q);
                    let reach_members: Cow<'_, [NodeId]> = if degraded {
                        members
                            .iter()
                            .copied()
                            .filter(|&m| view.reachable(m))
                            .collect()
                    } else {
                        Cow::Borrowed(members)
                    };
                    let row = scheme_memo.slot(
                        snapshot.epoch,
                        fault_stamp,
                        publisher,
                        snapshot.groups.len(),
                    );
                    let scheme = match row[q] {
                        Some(cost) => cost,
                        None => {
                            let cost = Broker::send_cost(
                                delivery,
                                spt,
                                alm_dist.as_deref(),
                                publisher,
                                &reach_members,
                                cost_scratch,
                            );
                            row[q] = Some(cost);
                            *scheme_walks += 1;
                            cost
                        }
                    };
                    let delivered = if matches!(decision, Decision::Multicast { .. }) {
                        Delivery::Multicast
                    } else {
                        Delivery::PartialMulticast
                    };
                    (
                        scheme,
                        delivered,
                        (reach_members.len() - interested.len()) as u64,
                    )
                }
            };
            let costs = MessageCosts {
                scheme,
                unicast: meta.unicast,
                ideal: meta.ideal,
            };
            report.record(costs, delivered, wasted, unreach.len() as u64);
            if let Some(out) = outcomes.as_mut() {
                out.push(PublishOutcome {
                    decision,
                    group_region: group,
                    matched_subscriptions: batch.matched(i, &snapshot.matcher),
                    interested: interested.to_vec(),
                    unreachable: unreach.to_vec(),
                    costs,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection: scheduled plans, degraded-mode delivery,
    // self-healing routing state.
    // ------------------------------------------------------------------

    /// Installs a deterministic fault schedule. Before each publication
    /// the broker fires every scheduled event whose step is due, then —
    /// once any fault has ever applied — publishes in degraded mode:
    /// matched subscribers are masked by reachability from the publisher,
    /// delivery walks the multicast → partial multicast → unicast
    /// fallback ladder driven by per-(publisher, group) health (with
    /// hysteresis, so a flapping link does not thrash the scheme-cost
    /// memo), and routing rows are lazily re-derived against the fault
    /// overlay. An *empty* plan changes nothing: the pristine fast path
    /// keeps running and every outcome stays bit-identical to a broker
    /// without a plan.
    ///
    /// # Errors
    ///
    /// * [`BrokerError::InvalidConfig`] for application-level-multicast
    ///   delivery (the precomputed ALM distance matrix has no fault
    ///   overlay) or when a plan is already installed;
    /// * [`BrokerError::UnknownNode`] / [`BrokerError::InvalidConfig`]
    ///   for plan events naming out-of-topology nodes or carrying an
    ///   invalid degrade factor.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<(), BrokerError> {
        if self.delivery == DeliveryMode::ApplicationLevel {
            return Err(BrokerError::InvalidConfig {
                parameter: "delivery",
                constraint: "dense- or sparse-mode for fault injection",
            });
        }
        if self.faults.is_some() {
            return Err(BrokerError::InvalidConfig {
                parameter: "fault_plan",
                constraint: "at most one installed plan per broker",
            });
        }
        for scheduled in plan.events() {
            self.validate_fault_event(&scheduled.event)?;
        }
        self.faults = Some(FaultState {
            routing: FaultyRouting::new(&self.net, &self.spt),
            plan,
            next_event: 0,
            step: 0,
            health_epoch: self.snapshot.epoch,
            health: Vec::new(),
            decision_gen: 0,
        });
        Ok(())
    }

    /// Applies one fault or repair immediately, out of band of any
    /// scheduled plan (an empty plan is installed on first use). Returns
    /// whether the event changed the overlay at all.
    ///
    /// # Errors
    ///
    /// As [`Broker::install_fault_plan`].
    pub fn inject_fault(&mut self, event: &FaultEvent) -> Result<bool, BrokerError> {
        self.validate_fault_event(event)?;
        if self.faults.is_none() {
            self.install_fault_plan(FaultPlan::new())?;
        }
        let faults = self.faults.as_mut().expect("installed above");
        Ok(faults.routing.apply(&self.net, &self.spt, event)?)
    }

    /// Whether a fault plan is installed (even an empty one). Installed
    /// faults cut batch publishes into fault-clock segments, each still
    /// dispatched on the worker pipeline, with the per-event fault clock
    /// replayed exactly by the sequential fold.
    pub fn faults_active(&self) -> bool {
        self.faults.is_some()
    }

    /// The fault-overlay epoch: 0 with no (or an untouched) fault state,
    /// bumping on every fault or repair that changed the overlay.
    pub fn fault_epoch(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.routing.fault_epoch())
    }

    /// The committed delivery health of one (publisher, group) pair —
    /// `Healthy` when no faults are installed or the pair has never been
    /// evaluated.
    pub fn group_health(&self, publisher: NodeId, group: usize) -> GroupHealth {
        self.faults
            .as_ref()
            .and_then(|f| {
                f.health
                    .iter()
                    .find(|(p, _)| *p == publisher)
                    .and_then(|(_, row)| row.get(group))
                    .map(|slot| slot.committed)
            })
            .unwrap_or(GroupHealth::Healthy)
    }

    /// Test hook: arms pool worker `worker` to panic once at the start
    /// of its next fused batch pass, exercising the quarantine-and-retry
    /// path end to end.
    #[doc(hidden)]
    pub fn arm_worker_panic(&mut self, worker: usize) {
        self.panic_trap.store(worker, Ordering::SeqCst);
    }

    /// Validates one fault event against the topology (node ranges,
    /// degrade factor) so scheduled applications cannot fail
    /// mid-publish.
    fn validate_fault_event(&self, event: &FaultEvent) -> Result<(), BrokerError> {
        let nodes = self.topology.graph().node_count();
        let check = |n: NodeId| -> Result<(), BrokerError> {
            if n.0 as usize >= nodes {
                Err(BrokerError::UnknownNode { node: n.0 })
            } else {
                Ok(())
            }
        };
        match *event {
            FaultEvent::LinkCut { a, b } | FaultEvent::LinkRestore { a, b } => {
                check(a)?;
                check(b)
            }
            FaultEvent::LinkDegrade { a, b, factor } => {
                check(a)?;
                check(b)?;
                if factor >= 1.0 && factor.is_finite() {
                    Ok(())
                } else {
                    Err(BrokerError::InvalidConfig {
                        parameter: "factor",
                        constraint: "1 <= factor < inf",
                    })
                }
            }
            FaultEvent::NodeDown { node } | FaultEvent::NodeUp { node } => check(node),
        }
    }

    /// Fires every scheduled fault due at the current publish step, then
    /// advances the step clock. Returns whether the broker must take the
    /// degraded publish path (any fault has ever been applied).
    fn tick_faults(&mut self) -> bool {
        let Some(faults) = self.faults.as_mut() else {
            return false;
        };
        while let Some(scheduled) = faults.plan.events().get(faults.next_event) {
            if scheduled.at > faults.step {
                break;
            }
            let event = scheduled.event;
            faults.next_event += 1;
            faults
                .routing
                .apply(&self.net, &self.spt, &event)
                .expect("plan events are validated at install time");
        }
        faults.step += 1;
        faults.routing.ever_faulted()
    }

    /// The cost of one multicast to the *whole* group `q` from the
    /// default publisher under the configured delivery mode — the
    /// per-group fixed cost the adaptive controller balances against
    /// unicast. Cold path (`&self`): allocates a fresh scratch rather
    /// than borrowing the broker's.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn group_multicast_cost(&self, q: usize) -> f64 {
        let mut scratch = CostScratch::new();
        Self::send_cost(
            self.delivery,
            &self.spt,
            self.alm_dist.as_deref(),
            self.publisher,
            self.snapshot.groups.members(q),
            &mut scratch,
        )
    }

    /// Cost of one group send from `publisher` to `members` under the
    /// given delivery mode. Free of `&self` so the hot path can borrow
    /// the SPT table and the cost scratch disjointly. The publisher's
    /// (and, in sparse mode, the rendezvous point's) SPT row must be in
    /// the table.
    fn send_cost(
        delivery: DeliveryMode,
        spt: &SptTable,
        alm_dist: Option<&[Vec<f64>]>,
        publisher: NodeId,
        members: &[NodeId],
        scratch: &mut CostScratch,
    ) -> f64 {
        match delivery {
            DeliveryMode::DenseMode => {
                let view = spt.view(publisher).expect("publisher SPT ensured");
                multicast_tree_cost_flat(view, members, scratch)
            }
            DeliveryMode::SparseMode { .. } => {
                let pub_view = spt.view(publisher).expect("publisher SPT ensured");
                let (rp_view, rp_dist) =
                    sparse_binding(delivery, spt, pub_view).expect("sparse mode binds");
                sparse_mode_cost_flat(rp_view, rp_dist, members, scratch)
            }
            DeliveryMode::ApplicationLevel => Self::alm_cost(
                alm_dist.expect("ALM mode precomputes this"),
                publisher,
                members,
            ),
        }
    }

    /// Greedy Prim overlay over the precomputed distance matrix.
    fn alm_cost(dist: &[Vec<f64>], publisher: NodeId, members: &[NodeId]) -> f64 {
        let mut uniq: Vec<usize> = Vec::new();
        for &m in members {
            let i = m.0 as usize;
            if m != publisher && !uniq.contains(&i) {
                uniq.push(i);
            }
        }
        if uniq.is_empty() {
            return 0.0;
        }
        let src = publisher.0 as usize;
        let n = uniq.len();
        let mut in_tree = vec![false; n];
        let mut best: Vec<f64> = uniq.iter().map(|&m| dist[src][m]).collect();
        let mut total = 0.0;
        for _ in 0..n {
            let mut pick = usize::MAX;
            let mut pick_d = f64::INFINITY;
            for i in 0..n {
                if !in_tree[i] && best[i] < pick_d {
                    pick_d = best[i];
                    pick = i;
                }
            }
            in_tree[pick] = true;
            total += pick_d;
            for i in 0..n {
                if !in_tree[i] {
                    best[i] = best[i].min(dist[uniq[pick]][uniq[i]]);
                }
            }
        }
        total
    }

    // ------------------------------------------------------------------
    // Live churn: subscribe / unsubscribe / recompile.
    // ------------------------------------------------------------------

    /// Adds a subscription live, without recompiling the engine: the
    /// subscription lands in the delta overlay (matched by linear scan
    /// merged with the compiled index) and the multicast groups are updated
    /// exactly under the current partition. When accumulated churn trips
    /// the clusterer's drift threshold, a full [`Broker::recompile`] runs
    /// automatically.
    ///
    /// Returns the stable handle for [`Broker::unsubscribe`]; handles
    /// survive recompiles.
    ///
    /// # Errors
    ///
    /// * [`BrokerError::UnknownNode`] for an out-of-topology node;
    /// * [`BrokerError::DimensionMismatch`] for a wrong-dimensional
    ///   rectangle.
    pub fn subscribe(
        &mut self,
        node: NodeId,
        rect: Rect,
    ) -> Result<SubscriptionHandle, BrokerError> {
        if node.0 as usize >= self.topology.graph().node_count() {
            return Err(BrokerError::UnknownNode { node: node.0 });
        }
        if rect.dims() != self.space.dims() {
            return Err(BrokerError::DimensionMismatch {
                expected: self.space.dims(),
                got: rect.dims(),
            });
        }
        self.ensure_churn_state()?;
        let handle = self.registry.insert(node, rect.clone())?;
        // Captured up front (the rect moves into the clusterer below);
        // journal-less brokers skip the clone entirely.
        let journal_op = self.journal.is_some().then(|| JournalOp::Subscribe {
            handle: handle.raw(),
            node: node.0,
            rect: rect.clone(),
        });
        let clamped = self.space.clamp(&rect);
        let base = self.snapshot.compiled_count() as u32;
        let churn = self.churn.as_mut().expect("ensured above");
        let engine_id = base + churn.overlay_owners.len() as u32;
        churn
            .overlay
            .insert(Entry::new(clamped.clone(), EntryId(engine_id)))?;
        churn.overlay_owners.push(node);
        churn.overlay_handles.push(Some(handle));
        churn.overlay_max_node = churn.overlay_max_node.max(node.0);
        let ch = churn.clusterer.insert(node.0 as usize, rect)?;
        churn.cl_handles.insert(handle, ch);
        self.registry.set_engine_id(handle, engine_id);
        self.counters.subscribes += 1;
        self.after_churn_op(node, &clamped, 1)?;
        // Append-after-apply: if this fails the op is applied in memory
        // but must not be acked — the caller sees the journal error.
        if let Some(op) = journal_op {
            self.journal_append(&op)?;
            self.journal_snapshot_if_due()?;
        }
        Ok(handle)
    }

    /// Removes a live subscription by handle. Compiled subscriptions are
    /// tombstoned (filtered out of every match) until the next recompile;
    /// overlay subscriptions are dropped immediately. Groups are updated
    /// exactly, and heavy churn triggers a full recompile, as in
    /// [`Broker::subscribe`].
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownHandle`] for a handle that is not
    /// live.
    pub fn unsubscribe(&mut self, handle: SubscriptionHandle) -> Result<(), BrokerError> {
        if !self.registry.contains(handle) {
            return Err(BrokerError::UnknownHandle {
                handle: handle.raw(),
            });
        }
        self.ensure_churn_state()?;
        let engine_id = self.registry.engine_id(handle).expect("checked live");
        let (node, rect) = self.registry.remove(handle)?;
        let clamped = self.space.clamp(&rect);
        let base = self.snapshot.compiled_count() as u32;
        let churn = self.churn.as_mut().expect("ensured above");
        if engine_id < base {
            churn.tombstones.insert(EntryId(engine_id));
        } else {
            churn.overlay.remove(EntryId(engine_id));
            churn.overlay_handles[(engine_id - base) as usize] = None;
        }
        let ch = churn.cl_handles.remove(&handle).expect("mirrored on add");
        churn.clusterer.remove(ch)?;
        self.counters.unsubscribes += 1;
        self.after_churn_op(node, &clamped, -1)?;
        if self.journal.is_some() {
            self.journal_append(&JournalOp::Unsubscribe {
                handle: handle.raw(),
            })?;
            self.journal_snapshot_if_due()?;
        }
        Ok(())
    }

    /// Recompiles the whole engine from the registry's live
    /// subscriptions: fresh matcher, grid model, partition and groups —
    /// bit-identical to [`BrokerBuilder::build`] over the same
    /// subscription list — then swaps the snapshot (epoch + 1) and clears
    /// the overlay and tombstones. [`SubscriptionId`]s are renumbered in
    /// registry (insertion) order; handles are unaffected. Per-group
    /// threshold overrides are cleared (group identities change); the
    /// cost report is kept.
    ///
    /// # Errors
    ///
    /// Propagates compile errors; the broker is unchanged on error.
    pub fn recompile(&mut self) -> Result<(), BrokerError> {
        self.recompile_inner()?;
        if self.journal.is_some() {
            self.journal_append(&JournalOp::Recompile)?;
            self.journal_snapshot_if_due()?;
        }
        Ok(())
    }

    /// [`Broker::recompile`] without the journal hook — the shared body
    /// for explicit recompiles and the drift/config-triggered internal
    /// ones. Internal recompiles are not journaled: they are
    /// registry-neutral, replay treats `Recompile` as a no-op, and
    /// appending mid-operation would let the snapshot cadence fire while
    /// the registry is ahead of the WAL.
    fn recompile_inner(&mut self) -> Result<(), BrokerError> {
        self.snapshot = compile_engine(
            &self.space,
            &mut self.registry,
            &self.compile,
            self.snapshot.epoch + 1,
        )?;
        // Nothing below can fail (the clusterer re-adoption is over the
        // same grid by construction).
        self.policy.clear_group_thresholds();
        self.counters.recompiles += 1;
        if let Some(churn) = self.churn.as_mut() {
            churn.overlay.clear();
            churn.tombstones.clear();
            churn.overlay_owners.clear();
            churn.overlay_handles.clear();
            churn.overlay_max_node = 0;
            churn.ops_since_refresh = 0;
            churn
                .clusterer
                .adopt_partition(&self.snapshot.partition)
                .expect("clusterer grid matches the compiled grid");
            churn.group_rc = rebuild_group_rc(&churn.clusterer, &self.snapshot.partition);
            debug_assert_eq!(
                rc_members(&churn.group_rc),
                (0..self.snapshot.groups.len())
                    .map(|q| self.snapshot.groups.members(q).to_vec())
                    .collect::<Vec<_>>(),
                "refcount-derived groups must equal compiled groups"
            );
        }
        Ok(())
    }

    /// Appends one op to the journal. Only called when a journal is
    /// attached, and only once the op is fully applied in memory.
    fn journal_append(&mut self, op: &JournalOp) -> Result<(), BrokerError> {
        self.journal.as_mut().expect("caller checked").append(op)
    }

    /// Writes a registry snapshot (truncating the WAL) when the cadence
    /// is due. Only called at operation boundaries, where the WAL fully
    /// reflects the registry — never mid-op, where a snapshot would
    /// double-count the record still in flight.
    fn journal_snapshot_if_due(&mut self) -> Result<(), BrokerError> {
        let journal = self.journal.as_mut().expect("caller checked");
        if journal.snapshot_due() {
            journal.write_snapshot(&self.registry)?;
        }
        Ok(())
    }

    /// The shared tail of every churn operation: recompile on drift,
    /// otherwise fold the operation's group-membership delta into the
    /// snapshot and periodically refresh the partition locally.
    fn after_churn_op(
        &mut self,
        node: NodeId,
        clamped: &Rect,
        delta: i32,
    ) -> Result<(), BrokerError> {
        if self
            .churn
            .as_ref()
            .expect("churn ops come from churn paths")
            .clusterer
            .needs_full_recluster()
        {
            return self.recompile_inner();
        }
        let churn = self.churn.as_mut().expect("checked above");
        let snapshot = &self.snapshot;
        let mut dirty: Vec<usize> = Vec::new();
        let grid = snapshot.partition.grid();
        for cell in grid.cell_runs(clamped, &mut churn.walk).flatten() {
            let Some(q) = snapshot.partition.group_of_cell(CellId(cell)) else {
                continue;
            };
            let rc = &mut churn.group_rc[q][node.0 as usize];
            if delta > 0 {
                if *rc == 0 && !dirty.contains(&q) {
                    dirty.push(q);
                }
                *rc += 1;
            } else {
                debug_assert!(*rc > 0, "unbalanced group refcount");
                *rc -= 1;
                if *rc == 0 && !dirty.contains(&q) {
                    dirty.push(q);
                }
            }
        }
        churn.ops_since_refresh += 1;
        if churn.ops_since_refresh >= self.local_refresh_every {
            // The refcounts already include this op; hand its dirty set to
            // the refresh so the op's membership delta is re-materialized
            // even when no cell moves between partitions.
            return self.local_refresh(dirty);
        }
        if !dirty.is_empty() {
            let members: Vec<Vec<NodeId>> = (0..snapshot.groups.len())
                .map(|q| {
                    if dirty.contains(&q) {
                        dense_members(&churn.group_rc[q])
                    } else {
                        snapshot.groups.members(q).to_vec()
                    }
                })
                .collect();
            let groups = Arc::new(MulticastGroups::from_members(members));
            self.bump_snapshot(None, groups);
        }
        Ok(())
    }

    /// Runs an incremental-clusterer local update and folds the refreshed
    /// partition (and the groups re-derived from the refcounts) into a
    /// new snapshot. Per-group threshold overrides are kept: a local
    /// update preserves group identities (surviving cells keep their
    /// group). `dirty` seeds the set of groups whose members must be
    /// re-derived — the caller's pending membership delta (refcounts
    /// already folded in, snapshot members not yet) — and is extended
    /// with every group a cell moved into or out of.
    ///
    /// The refcounts are updated by *diffing* the partitions — only cells
    /// that changed groups move their counts — so the refresh costs
    /// O(cells + moved-cell incidences), not a full rebuild over every
    /// (cell, subscriber) incidence.
    fn local_refresh(&mut self, mut dirty: Vec<usize>) -> Result<(), BrokerError> {
        let churn = self.churn.as_mut().expect("called from churn path");
        let old_partition = Arc::clone(&self.snapshot.partition);
        let partition = churn.clusterer.partition()?;
        if partition.group_count() == old_partition.group_count() {
            for i in 0..partition.grid().cell_count() {
                let cell = CellId(i);
                let old_q = old_partition.group_of_cell(cell);
                let new_q = partition.group_of_cell(cell);
                if old_q == new_q {
                    continue;
                }
                let counts: Vec<(usize, u32)> = churn.clusterer.cell_refcounts(cell).collect();
                if let Some(q) = old_q {
                    if !dirty.contains(&q) {
                        dirty.push(q);
                    }
                    for &(s, c) in &counts {
                        churn.group_rc[q][s] -= c;
                    }
                }
                if let Some(q) = new_q {
                    if !dirty.contains(&q) {
                        dirty.push(q);
                    }
                    for &(s, c) in &counts {
                        churn.group_rc[q][s] += c;
                    }
                }
            }
            debug_assert_eq!(
                churn.group_rc,
                rebuild_group_rc(&churn.clusterer, &partition),
                "diffed refcounts must equal a full rebuild"
            );
        } else {
            // A local update never changes the group count; this arm only
            // guards against future clusterer behaviour changes.
            churn.group_rc = rebuild_group_rc(&churn.clusterer, &partition);
            dirty = (0..partition.group_count()).collect();
        }
        let snapshot = &self.snapshot;
        let members: Vec<Vec<NodeId>> = (0..partition.group_count())
            .map(|q| {
                if dirty.contains(&q) || q >= snapshot.groups.len() {
                    dense_members(&churn.group_rc[q])
                } else {
                    snapshot.groups.members(q).to_vec()
                }
            })
            .collect();
        let groups = Arc::new(MulticastGroups::from_members(members));
        churn.ops_since_refresh = 0;
        self.counters.local_refreshes += 1;
        self.bump_snapshot(Some(Arc::new(partition)), groups);
        Ok(())
    }

    /// Swaps in a new snapshot sharing everything except the partition
    /// (if given) and groups; bumps the epoch.
    fn bump_snapshot(
        &mut self,
        partition: Option<Arc<SpacePartition>>,
        groups: Arc<MulticastGroups>,
    ) {
        let old = &self.snapshot;
        self.snapshot = Arc::new(EngineSnapshot {
            epoch: old.epoch + 1,
            matcher: Arc::clone(&old.matcher),
            grid_model: Arc::clone(&old.grid_model),
            partition: partition.unwrap_or_else(|| Arc::clone(&old.partition)),
            groups,
            id_to_handle: Arc::clone(&old.id_to_handle),
        });
    }

    /// Creates the churn machinery on the first subscribe/unsubscribe:
    /// a mirror clusterer seeded with every live subscription, synced to
    /// the current snapshot's partition, plus empty overlay/tombstones.
    fn ensure_churn_state(&mut self) -> Result<(), BrokerError> {
        if self.churn.is_some() {
            return Ok(());
        }
        let grid = self.snapshot.grid_model.grid().clone();
        let node_count = self.topology.graph().node_count();
        let space_volume = self.space.bounds().volume();
        let density = self.compile.density.as_deref();
        let mut clusterer = IncrementalClusterer::new(
            grid,
            node_count,
            move |r| match density {
                Some(f) => f(r),
                None => r.volume() / space_volume,
            },
            self.compile.clustering,
            self.recluster_fraction,
        )?;
        let mut cl_handles = HashMap::with_capacity(self.registry.len());
        for (handle, node, rect) in self.registry.live() {
            let ch = clusterer.insert(node.0 as usize, rect.clone())?;
            cl_handles.insert(handle, ch);
        }
        clusterer
            .adopt_partition(&self.snapshot.partition)
            .expect("snapshot partition is over the compile grid");
        let group_rc = rebuild_group_rc(&clusterer, &self.snapshot.partition);
        self.churn = Some(ChurnState {
            clusterer,
            cl_handles,
            group_rc,
            overlay: DeltaOverlay::new(),
            tombstones: Tombstones::new(),
            overlay_owners: Vec::new(),
            overlay_handles: Vec::new(),
            overlay_max_node: 0,
            ops_since_refresh: 0,
            walk: CellWalkBuf::default(),
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection and configuration.
    // ------------------------------------------------------------------

    /// The cumulative cost report since construction (or the last
    /// [`Broker::reset_report`]).
    pub fn report(&self) -> &CostReport {
        &self.report
    }

    /// Clears the cumulative report.
    pub fn reset_report(&mut self) {
        self.report = CostReport::default();
    }

    /// Changes the distribution threshold `t` without rebuilding the
    /// index, clustering or groups — threshold sweeps (Figure 6) only
    /// re-publish.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::InvalidConfig`] unless `0 ≤ t ≤ 1`.
    pub fn set_threshold(&mut self, threshold: f64) -> Result<(), BrokerError> {
        self.policy = DistributionPolicy::new(threshold)?;
        Ok(())
    }

    /// Matches an event without publishing: no decision, no cost, no
    /// report mutation. Returns the matching subscription ids and the
    /// deduplicated interested subscriber nodes, merging the churn
    /// overlay when one is pending. Uses thread-local scratch.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::DimensionMismatch`] if the event's
    /// dimensionality differs from the broker's space.
    pub fn match_only(
        &self,
        event: &Point,
    ) -> Result<(Vec<SubscriptionId>, Vec<NodeId>), BrokerError> {
        self.validate_batch(std::slice::from_ref(event))?;
        let mut subs = Vec::new();
        let mut nodes = Vec::new();
        let matcher = &self.snapshot.matcher;
        matcher::with_thread_scratch(|scratch| match churn_view_of(&self.churn, &self.snapshot) {
            Some(view) => {
                matcher.match_event_overlaid_into(event, &view, scratch, &mut subs, &mut nodes)
            }
            None => matcher.match_event_into(event, scratch, &mut subs, &mut nodes),
        });
        Ok((subs, nodes))
    }

    /// The current engine snapshot (cheap `Arc` clone). The clone stays
    /// internally consistent — if stale — across later broker mutations.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.snapshot)
    }

    /// The current snapshot epoch (bumps on every snapshot swap).
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch
    }

    /// One coherent snapshot of the broker's counters — epoch, cost
    /// report, churn counters, pipeline counters, scheme-cost memo misses
    /// and journal-recovery counters — and the only way to read them.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut churn = self.counters;
        churn.epoch = self.snapshot.epoch;
        if let Some(state) = &self.churn {
            churn.overlay_len = state.overlay.len();
            churn.tombstone_len = state.tombstones.len();
        }
        MetricsSnapshot {
            epoch: self.snapshot.epoch,
            report: self.report,
            churn,
            pipeline: self.pipeline_counters,
            scheme_cost_walks: self.scheme_walks,
            recovery: self.recovery,
        }
    }

    /// The attached durable journal — its WAL length, directory and
    /// self-statistics. `None` for journal-less brokers (the default).
    pub fn journal(&self) -> Option<&DurableJournal> {
        self.journal.as_ref()
    }

    /// The live subscription registry (stable handles, per-node
    /// refcounts).
    pub fn registry(&self) -> &SubscriptionRegistry {
        &self.registry
    }

    /// The registry handle behind a subscription id from a match result
    /// (`None` if that subscription has been removed since).
    pub fn handle_of(&self, id: SubscriptionId) -> Option<SubscriptionHandle> {
        let base = self.snapshot.compiled_count() as u32;
        if id.0 < base {
            let handle = self.snapshot.handle_of(id)?;
            self.registry.contains(handle).then_some(handle)
        } else {
            self.churn
                .as_ref()?
                .overlay_handles
                .get((id.0 - base) as usize)
                .copied()
                .flatten()
        }
    }

    /// The grid model the clustering runs on (cell memberships, masses).
    /// Between recompiles this is the model of the last compile.
    pub fn grid_model(&self) -> &GridModel {
        &self.snapshot.grid_model
    }

    /// The matcher (S-tree statistics, subscription lookup). Overlay
    /// subscriptions added since the last recompile are *not* in it; see
    /// [`Broker::match_only`] for churn-aware matching.
    pub fn matcher(&self) -> &Matcher {
        &self.snapshot.matcher
    }

    /// The multicast groups `M_1..M_n`.
    pub fn groups(&self) -> &MulticastGroups {
        &self.snapshot.groups
    }

    /// The event-space partition `S_1..S_n` (+ implicit `S_0`).
    pub fn partition(&self) -> &SpacePartition {
        &self.snapshot.partition
    }

    /// The distribution policy in force.
    pub fn policy(&self) -> &DistributionPolicy {
        &self.policy
    }

    /// Mutable access to the distribution policy (e.g. to install
    /// per-group threshold overrides).
    pub fn policy_mut(&mut self) -> &mut DistributionPolicy {
        &mut self.policy
    }

    /// The publisher node.
    pub fn publisher(&self) -> NodeId {
        self.publisher
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The event space.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The configured delivery mode.
    pub fn delivery_mode(&self) -> DeliveryMode {
        self.delivery
    }
}

/// Accounts one finished fused pass in the pipeline counters: batch and
/// event totals, pooled vs inline, quarantines, arena growth and the
/// per-worker SIMD kernel tallies (drained from every state, not just
/// the `run.workers` that finished: a quarantined worker's partial pass
/// still dispatched blocks worth counting).
fn account_pass(
    counters: &mut PipelineCounters,
    events: usize,
    run: PipelineRun,
    states: &mut [PublishScratch],
) {
    counters.batches += 1;
    counters.events += events as u64;
    if run.workers > 1 {
        counters.pooled_batches += 1;
    } else {
        counters.inline_batches += 1;
    }
    if run.quarantined > 0 {
        counters.quarantined_workers += run.quarantined as u64;
        counters.retried_batches += 1;
    }
    counters.max_workers = counters.max_workers.max(run.workers as u64);
    if states[..run.workers].iter().any(|s| s.grew()) {
        counters.arena_growths += 1;
    }
    for state in states {
        let kernels = state.matching.take_kernels();
        counters.match_blocks += kernels.blocks;
        counters.simd_blocks += kernels.simd_blocks;
        counters.scalar_blocks += kernels.scalar_blocks;
        counters.match_lanes += kernels.lanes;
    }
}

/// Sparse mode's extra routing inputs: the rendezvous point's SPT view
/// and the publisher → rendezvous distance (`None` in the other modes).
/// The rendezvous row must be in the table.
fn sparse_binding<'a>(
    delivery: DeliveryMode,
    spt: &'a SptTable,
    pub_view: SptView<'a>,
) -> Option<(SptView<'a>, f64)> {
    match delivery {
        DeliveryMode::SparseMode { rendezvous } => {
            let rp_view = spt.view(rendezvous).expect("rendezvous SPT built");
            Some((rp_view, pub_view.dist(rendezvous)))
        }
        _ => None,
    }
}

/// The read side of one fused match → cost pass, bound up front and
/// free of `&Broker` so it can run under the worker pool while the
/// per-worker states are mutably borrowed. Everything here is read-only;
/// results land in the caller's [`PublishScratch`], and the decision is
/// left to the sequential [`Broker::fold_batch`].
///
/// Each BLOCK-sized range is matched into the arena, located in the
/// partition and costed in one batched walk (dense mode) before the next
/// range starts — one pass over the data per worker, with a freshly-epoched cost
/// scratch per event, so every stored float is the same regardless of
/// worker count, interleaving, or which thread runs the pass.
struct FusedPass<'a> {
    snapshot: &'a EngineSnapshot,
    delivery: DeliveryMode,
    publisher: NodeId,
    alm_dist: Option<&'a [Vec<f64>]>,
    overlay: Option<MatchOverlay<'a>>,
    pub_view: SptView<'a>,
    sparse: Option<(SptView<'a>, f64)>,
    degraded: bool,
    events: &'a [Point],
}

impl<'a> FusedPass<'a> {
    /// Binds a pass over `events` published from `publisher`, whose SPT
    /// row (and, in sparse mode, the rendezvous point's) must be in
    /// `spt`.
    #[allow(clippy::too_many_arguments)]
    fn bind(
        snapshot: &'a EngineSnapshot,
        delivery: DeliveryMode,
        publisher: NodeId,
        alm_dist: Option<&'a [Vec<f64>]>,
        overlay: Option<MatchOverlay<'a>>,
        spt: &'a SptTable,
        degraded: bool,
        events: &'a [Point],
    ) -> Self {
        let pub_view = spt.view(publisher).expect("publisher SPT ensured");
        FusedPass {
            snapshot,
            delivery,
            publisher,
            alm_dist,
            overlay,
            pub_view,
            sparse: sparse_binding(delivery, spt, pub_view),
            degraded,
            events,
        }
    }

    /// Runs the pass over `ranges` into `state`. See the type docs.
    fn run(&self, state: &mut PublishScratch, ranges: BlockRanges) {
        let FusedPass {
            snapshot,
            delivery,
            publisher,
            alm_dist,
            overlay,
            pub_view,
            sparse,
            degraded,
            events,
        } = *self;
        let matching = &mut state.matching;
        let cost = &mut state.cost;
        let arena = &mut state.arena;
        let pairs = &mut state.pairs;
        let meta = &mut state.meta;
        let reach_tmp = &mut state.reach_tmp;
        for range in ranges {
            let base = arena.event_count();
            snapshot.matcher.match_events_into_arena(
                events,
                std::iter::once(range.clone()),
                overlay.as_ref(),
                matching,
                arena,
            );
            let count = arena.event_count();
            if degraded {
                // Mask matched nodes by reachability in the healed
                // routing view; only the reachable prefix is costed.
                for local in base..count {
                    arena.partition_reachable(local, reach_tmp, |n| pub_view.reachable(n));
                }
            }
            if delivery == DeliveryMode::DenseMode {
                pairs.clear();
                cost_events_into(
                    pub_view,
                    (base..count).map(|local| arena.interested_slice(local)),
                    cost,
                    pairs,
                );
            }
            for (k, i) in range.enumerate() {
                let local = base + k;
                let nodes = arena.interested_slice(local);
                let group = snapshot.partition.group_of_point(&events[i]);
                let (unicast, ideal) = match delivery {
                    DeliveryMode::DenseMode => {
                        let pair = pairs[k];
                        (pair.unicast, pair.tree)
                    }
                    DeliveryMode::SparseMode { .. } => {
                        let (rp_view, pub_to_rp) = sparse.expect("bound for sparse mode");
                        let unicast = unicast_cost_flat(pub_view, nodes, cost);
                        let ideal = if degraded && !pub_to_rp.is_finite() {
                            // No shared tree exists at all: unicast is
                            // the only scheme left and the reference
                            // collapses onto it.
                            unicast
                        } else {
                            sparse_mode_cost_flat(rp_view, pub_to_rp, nodes, cost)
                        };
                        (unicast, ideal)
                    }
                    DeliveryMode::ApplicationLevel => {
                        let unicast = unicast_cost_flat(pub_view, nodes, cost);
                        let ideal = Broker::alm_cost(
                            alm_dist.expect("ALM mode precomputes this"),
                            publisher,
                            nodes,
                        );
                        (unicast, ideal)
                    }
                };
                meta.push(EventMeta {
                    unicast,
                    ideal,
                    group: group.map_or(NO_GROUP, |q| q as u32),
                });
            }
        }
    }
}

/// The overlay view over a broker's churn state, free of `&Broker` so
/// the batch pipeline can build it while `pipeline_states` is mutably
/// borrowed. `None` when the compiled matcher alone is current.
fn churn_view_of<'a>(
    churn: &'a Option<ChurnState>,
    snapshot: &EngineSnapshot,
) -> Option<MatchOverlay<'a>> {
    let churn = churn.as_ref()?;
    if churn.overlay.is_empty() && churn.tombstones.is_empty() {
        return None;
    }
    Some(MatchOverlay {
        overlay: &churn.overlay,
        owners: &churn.overlay_owners,
        tombstones: &churn.tombstones,
        base_count: snapshot.compiled_count() as u32,
        max_node: churn.overlay_max_node,
    })
}

/// Derives per-(group, node) incidence refcounts from the clusterer's
/// per-cell membership counts under `partition`. Each group's counts are
/// dense, indexed by node id (the clusterer's subscriber index).
fn rebuild_group_rc(clusterer: &IncrementalClusterer, partition: &SpacePartition) -> Vec<Vec<u32>> {
    let width = clusterer.subscriber_count();
    let mut rc: Vec<Vec<u32>> = vec![vec![0; width]; partition.group_count()];
    for (q, counts) in rc.iter_mut().enumerate() {
        for cell in partition.cells_of_group(q) {
            for (subscriber, count) in clusterer.cell_refcounts(cell) {
                counts[subscriber] += count;
            }
        }
    }
    rc
}

/// Materializes sorted member lists from group refcounts (dense node
/// indexing means ascending iteration is already sorted).
fn rc_members(group_rc: &[Vec<u32>]) -> Vec<Vec<NodeId>> {
    group_rc
        .iter()
        .map(|counts| dense_members(counts))
        .collect()
}

/// The nodes with a positive refcount, ascending.
fn dense_members(counts: &[u32]) -> Vec<NodeId> {
    counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(n, _)| NodeId(n as u32))
        .collect()
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnicastReason;
    use pubsub_netsim::TransitStubConfig;

    fn space_2d() -> Space {
        Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap()
    }

    fn tiny_topo() -> Topology {
        TransitStubConfig::tiny().generate(5).unwrap()
    }

    fn rect(lo: &[f64], hi: &[f64]) -> Rect {
        Rect::from_corners(lo, hi).unwrap()
    }

    /// Stub nodes subscribing to opposite halves of the space.
    fn build_two_camp_broker(threshold: f64, mode: DeliveryMode) -> Broker {
        two_camp_builder(threshold, mode).build().unwrap()
    }

    /// The dense two-camp broker at t = 0.15 with an injected
    /// `WorkerPool::new(threads)`, so batches fan out even on a
    /// single-core host, where the broker never spawns a pool of its own.
    fn pooled_two_camp_broker(threads: usize) -> Broker {
        two_camp_builder(0.15, DeliveryMode::DenseMode)
            .worker_pool(Arc::new(WorkerPool::new(threads)))
            .build()
            .unwrap()
    }

    fn two_camp_builder(threshold: f64, mode: DeliveryMode) -> BrokerBuilder {
        let topo = tiny_topo();
        let nodes = topo.stub_nodes().to_vec();
        assert!(nodes.len() >= 8);
        let mut b = Broker::builder(topo, space_2d())
            .threshold(threshold)
            .delivery_mode(mode)
            .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2))
            .grid_cells(4);
        for (i, &n) in nodes.iter().enumerate().take(8) {
            let r = if i % 2 == 0 {
                rect(&[0.0, 0.0], &[5.0, 10.0])
            } else {
                rect(&[5.0, 0.0], &[10.0, 10.0])
            };
            b = b.subscription(n, r);
        }
        b
    }

    #[test]
    fn end_to_end_publish_accounts_costs() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let out = broker
            .publish(&Point::new(vec![2.0, 5.0]).unwrap())
            .unwrap();
        // Half the nodes are interested.
        assert_eq!(out.interested.len(), 4);
        assert!(out.costs.unicast > 0.0);
        assert!(out.costs.ideal <= out.costs.unicast);
        assert!(out.costs.scheme > 0.0);
        let report = broker.report();
        assert_eq!(report.messages, 1);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn event_nobody_wants_is_dropped() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        // Outside the space: no matches.
        let out = broker
            .publish(&Point::new(vec![-5.0, -5.0]).unwrap())
            .unwrap();
        assert_eq!(out.decision, Decision::Drop);
        assert_eq!(out.costs.scheme, 0.0);
        assert_eq!(broker.report().dropped, 1);
    }

    #[test]
    fn broker_without_subscriptions_drops_every_event() {
        let event = Point::new(vec![2.0, 5.0]).unwrap();
        let mut empty = Broker::builder(tiny_topo(), space_2d())
            .covering(CoveringConfig::default())
            .build()
            .unwrap();
        assert_eq!(empty.covering_stats().unwrap().representatives, 0);
        assert_eq!(empty.publish(&event).unwrap().decision, Decision::Drop);
        let batch = empty.publish_batch(&[event.clone(), event.clone()], Some(1));
        assert!(batch.unwrap().iter().all(|o| o.decision == Decision::Drop));
        assert_eq!(empty.report().dropped, 3);

        // A broker recompiled down to zero subscriptions is the same.
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let handles: Vec<_> = broker.registry().live().map(|(h, _, _)| h).collect();
        for h in handles {
            broker.unsubscribe(h).unwrap();
        }
        broker.recompile().unwrap();
        assert_eq!(broker.publish(&event).unwrap().decision, Decision::Drop);
        let batch = broker.publish_batch(std::slice::from_ref(&event), None);
        assert_eq!(batch.unwrap()[0].decision, Decision::Drop);
    }

    #[test]
    fn threshold_one_forces_unicast_for_partial_interest() {
        let mut broker = build_two_camp_broker(1.0, DeliveryMode::DenseMode);
        let out = broker
            .publish(&Point::new(vec![2.0, 5.0]).unwrap())
            .unwrap();
        match out.decision {
            Decision::Unicast { .. } => {
                assert_eq!(out.costs.scheme, out.costs.unicast);
            }
            Decision::Multicast { group } => {
                // Full-group interest is legitimately multicast even at t=1.
                assert_eq!(broker.groups().members(group).len(), out.interested.len());
            }
            Decision::Drop => panic!("subscribers exist"),
            Decision::PartialMulticast { .. } => panic!("no faults installed"),
        }
    }

    #[test]
    fn threshold_zero_is_static_multicast_when_group_hit() {
        let mut broker = build_two_camp_broker(0.0, DeliveryMode::DenseMode);
        let out = broker
            .publish(&Point::new(vec![2.0, 5.0]).unwrap())
            .unwrap();
        match out.decision {
            Decision::Multicast { .. } => {}
            Decision::Unicast {
                reason: UnicastReason::CatchAll,
            } => {} // event may fall in S0 depending on clustering
            other => panic!("static scheme should not threshold-unicast: {other:?}"),
        }
    }

    #[test]
    fn scheme_cost_never_below_ideal() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        for i in 0..50 {
            let x = f64::from(i % 10) + 0.5;
            let y = f64::from(i / 5) % 10.0 + 0.3;
            let out = broker.publish(&Point::new(vec![x, y]).unwrap()).unwrap();
            assert!(
                out.costs.scheme >= out.costs.ideal - 1e-9,
                "scheme {} < ideal {}",
                out.costs.scheme,
                out.costs.ideal
            );
        }
        let r = broker.report();
        assert_eq!(r.messages, 50);
        assert!(r.improvement_percent() <= 100.0 + 1e-9);
    }

    #[test]
    fn sparse_mode_pays_the_rendezvous_detour() {
        let topo = tiny_topo();
        let rp = topo.transit_nodes()[1];
        let mut dense = build_two_camp_broker(0.0, DeliveryMode::DenseMode);
        // Same broker but sparse via a rendezvous point that is not the
        // publisher.
        let nodes = tiny_topo().stub_nodes().to_vec();
        let mut builder = Broker::builder(tiny_topo(), space_2d())
            .threshold(0.0)
            .delivery_mode(DeliveryMode::SparseMode { rendezvous: rp })
            .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2))
            .grid_cells(4);
        for (i, &n) in nodes.iter().enumerate().take(8) {
            let r = if i % 2 == 0 {
                rect(&[0.0, 0.0], &[5.0, 10.0])
            } else {
                rect(&[5.0, 0.0], &[10.0, 10.0])
            };
            builder = builder.subscription(n, r);
        }
        let mut sparse = builder.build().unwrap();
        assert_eq!(
            sparse.delivery_mode(),
            DeliveryMode::SparseMode { rendezvous: rp }
        );

        let event = Point::new(vec![2.0, 5.0]).unwrap();
        let d = dense.publish(&event).unwrap();
        let s = sparse.publish(&event).unwrap();
        assert_eq!(d.interested, s.interested);
        assert!(s.costs.scheme.is_finite());
        // Both multicast (t = 0); sparse additionally pays publisher->RP.
        if let (Decision::Multicast { .. }, Decision::Multicast { .. }) = (&d.decision, &s.decision)
        {
            assert!(s.costs.scheme >= d.costs.scheme - 1e-9 || s.costs.scheme > 0.0);
        }
        // Unknown rendezvous rejected at build time.
        let err = Broker::builder(tiny_topo(), space_2d())
            .delivery_mode(DeliveryMode::SparseMode {
                rendezvous: NodeId(40_000),
            })
            .build();
        assert!(matches!(err, Err(BrokerError::UnknownNode { .. })));
    }

    #[test]
    fn alm_mode_produces_finite_costs() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::ApplicationLevel);
        assert_eq!(broker.delivery_mode(), DeliveryMode::ApplicationLevel);
        let out = broker
            .publish(&Point::new(vec![2.0, 5.0]).unwrap())
            .unwrap();
        assert!(out.costs.scheme.is_finite());
        assert!(out.costs.ideal.is_finite());
        assert!(out.costs.ideal <= out.costs.unicast + 1e-9);
    }

    #[test]
    fn builder_validation() {
        let topo = tiny_topo();
        // Unknown subscriber node.
        let err = Broker::builder(topo.clone(), space_2d())
            .subscription(NodeId(9999), rect(&[0.0, 0.0], &[1.0, 1.0]))
            .build();
        assert!(matches!(err, Err(BrokerError::UnknownNode { node: 9999 })));
        // Unknown publisher.
        let err = Broker::builder(topo.clone(), space_2d())
            .publisher(NodeId(9999))
            .build();
        assert!(matches!(err, Err(BrokerError::UnknownNode { .. })));
        // Bad threshold.
        let err = Broker::builder(topo.clone(), space_2d())
            .threshold(2.0)
            .build();
        assert!(matches!(err, Err(BrokerError::InvalidConfig { .. })));
        // Wrong-dimension subscription.
        let err = Broker::builder(topo, space_2d())
            .subscription(NodeId(0), Rect::from_corners(&[0.0], &[1.0]).unwrap())
            .build();
        assert!(matches!(err, Err(BrokerError::DimensionMismatch { .. })));
    }

    #[test]
    fn publish_rejects_wrong_dimension_events() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let err = broker.publish(&Point::new(vec![1.0]).unwrap());
        assert!(matches!(err, Err(BrokerError::DimensionMismatch { .. })));
    }

    #[test]
    fn reports_reset() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        broker
            .publish(&Point::new(vec![2.0, 5.0]).unwrap())
            .unwrap();
        assert_eq!(broker.report().messages, 1);
        broker.reset_report();
        assert_eq!(broker.report().messages, 0);
    }

    #[test]
    fn accessors_are_consistent() {
        let broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        assert_eq!(broker.matcher().subscription_count(), 8);
        assert!(broker.groups().len() <= 2);
        assert_eq!(broker.policy().threshold(), 0.15);
        assert_eq!(broker.space().dims(), 2);
        let publisher = broker.publisher();
        assert!(matches!(
            broker.topology().role(publisher),
            pubsub_netsim::NodeRole::Transit { .. }
        ));
    }

    #[test]
    fn publish_from_alternate_publishers() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let event = Point::new(vec![2.0, 5.0]).unwrap();
        let default_out = broker.publish(&event).unwrap();
        // Matching is publisher-independent.
        let near = default_out.interested[0];
        let near_out = broker.publish_from(near, &event).unwrap();
        assert_eq!(near_out.interested, default_out.interested);
        assert!(near_out.costs.unicast.is_finite());
        // Publishing from a receiver: that receiver costs nothing, so the
        // unicast bill covers one fewer hop-path and the cost invariants
        // still hold.
        assert!(near_out.costs.ideal <= near_out.costs.unicast + 1e-9);
        // Cached SPTs make the repeat identical.
        let again = broker.publish_from(near, &event).unwrap();
        assert_eq!(again.costs, near_out.costs);
        // Unknown publisher rejected.
        assert!(matches!(
            broker.publish_from(NodeId(60_000), &event),
            Err(BrokerError::UnknownNode { .. })
        ));
    }

    #[test]
    fn adaptive_controller_end_to_end() {
        use crate::{AdaptiveConfig, AdaptiveController};
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let mut controller = AdaptiveController::for_broker(
            &broker,
            AdaptiveConfig {
                min_hits: 1,
                margin: 1.0,
            },
        );
        for i in 0..100 {
            let x = f64::from(i % 10) + 0.5;
            let y = f64::from(i % 7) + 0.5;
            let out = broker.publish(&Point::new(vec![x, y]).unwrap()).unwrap();
            controller.observe(&out);
        }
        assert!(controller.tracker().observed() > 0);
        let summaries = controller.tracker().summarize(&broker);
        assert_eq!(summaries.len(), broker.groups().len());
        for s in &summaries {
            assert!(s.break_even_ratio >= 0.0 && s.break_even_ratio <= 1.0);
            assert!(s.group_multicast_cost >= 0.0);
        }
        let applied = controller.apply(&mut broker).unwrap();
        assert!(applied >= 1);
        // The policy now carries overrides.
        let t0 = broker.policy().threshold_for(0);
        assert!((0.0..=1.0).contains(&t0));
    }

    #[test]
    fn match_only_does_not_touch_the_report() {
        let broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let event = Point::new(vec![2.0, 5.0]).unwrap();
        let (subs, nodes) = broker.match_only(&event).unwrap();
        assert!(!subs.is_empty());
        assert_eq!(nodes.len(), 4);
        assert_eq!(broker.report().messages, 0);
        assert!(broker.grid_model().subscriber_count() > 0);
    }

    #[test]
    fn match_only_rejects_wrong_dimensional_events() {
        let topo = tiny_topo();
        let nodes = topo.stub_nodes().to_vec();
        let broker = Broker::builder(topo, space_2d())
            .subscriptions(vec![
                (nodes[0], rect(&[0.0, 0.0], &[2.0, 2.0])),
                (nodes[1], rect(&[0.0, 8.0], &[2.0, 10.0])),
            ])
            .build()
            .unwrap();
        // A 1-D event would test only the first coordinate and match
        // both; a 3-D one would index past the space's dimensions.
        for coords in [vec![1.0], vec![1.0, 1.0, 1.0]] {
            let got = coords.len();
            assert!(matches!(
                broker.match_only(&Point::new(coords).unwrap()),
                Err(BrokerError::DimensionMismatch { expected: 2, got: g }) if g == got
            ));
        }
        let (subs, _) = broker
            .match_only(&Point::new(vec![1.0, 1.0]).unwrap())
            .unwrap();
        assert_eq!(subs, vec![SubscriptionId(0)]);
    }

    #[test]
    fn publish_batch_is_identical_to_sequential_publish() {
        let events: Vec<Point> = (0..120)
            .map(|i| Point::new(vec![f64::from(i % 11), f64::from(i % 13) * 0.8]).unwrap())
            .collect();
        let mut sequential = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let expected: Vec<PublishOutcome> = events
            .iter()
            .map(|e| sequential.publish(e).unwrap())
            .collect();
        let expected_report = *sequential.report();

        for threads in [Some(1), Some(3), None] {
            let mut batched = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
            let outcomes = batched.publish_batch(&events, threads).unwrap();
            assert_eq!(outcomes, expected, "threads={threads:?}");
            assert_eq!(batched.report(), &expected_report, "threads={threads:?}");
        }
    }

    #[test]
    fn scheme_memo_survives_publisher_switches() {
        // t = 0 forces multicast on group hits, exercising the memo; the
        // costs must be identical whether the walk was fresh or cached,
        // and switching publishers must not leak another publisher's
        // group costs.
        let mut broker = build_two_camp_broker(0.0, DeliveryMode::DenseMode);
        let event = Point::new(vec![2.0, 5.0]).unwrap();
        let first = broker.publish(&event).unwrap();
        let other = first.interested[0];
        let via_other = broker.publish_from(other, &event).unwrap();
        let back = broker.publish(&event).unwrap();
        assert_eq!(first.costs, back.costs);
        if first.decision == via_other.decision {
            // Same group, different root: the walk really re-ran.
            assert!(via_other.costs.scheme.is_finite());
        }
        // Repeating the other publisher hits its memo and agrees with the
        // fresh walk.
        let first_other = broker.publish_from(other, &event).unwrap();
        assert_eq!(via_other.costs, first_other.costs);
    }

    #[test]
    fn flat_costs_are_byte_identical_to_node_based_walks() {
        // Acceptance gate for the compiled engine: every cost the broker
        // reports must equal the legacy node-based SPT walk bit for bit.
        use pubsub_netsim::{dijkstra, multicast_tree_cost, unicast_cost};
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let spt = dijkstra(broker.topology().graph(), broker.publisher());
        let events: Vec<Point> = (0..60)
            .map(|i| Point::new(vec![f64::from(i % 10) + 0.5, f64::from(i % 7) + 0.5]).unwrap())
            .collect();
        let outcomes = broker.publish_batch(&events, None).unwrap();
        for out in &outcomes {
            assert_eq!(
                out.costs.unicast.to_bits(),
                unicast_cost(&spt, &out.interested).to_bits()
            );
            assert_eq!(
                out.costs.ideal.to_bits(),
                multicast_tree_cost(&spt, &out.interested).to_bits()
            );
            if let Decision::Multicast { group } = out.decision {
                assert_eq!(
                    out.costs.scheme.to_bits(),
                    multicast_tree_cost(&spt, broker.groups().members(group)).to_bits()
                );
            }
        }
    }

    #[test]
    fn publish_batch_rejects_bad_events_without_recording() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let events = vec![
            Point::new(vec![2.0, 5.0]).unwrap(),
            Point::new(vec![1.0]).unwrap(),
        ];
        assert!(matches!(
            broker.publish_batch(&events, None),
            Err(BrokerError::DimensionMismatch { .. })
        ));
        assert_eq!(broker.report().messages, 0);
    }

    #[test]
    fn default_publisher_is_first_transit_node() {
        let topo = tiny_topo();
        let first_transit = topo.transit_nodes()[0];
        let broker = Broker::builder(topo, space_2d()).build().unwrap();
        assert_eq!(broker.publisher(), first_transit);
    }

    /// Publishes a probe sweep on both brokers and asserts bit-identical
    /// interested sets and costs.
    fn assert_publish_parity(live: &mut Broker, fresh: &mut Broker) {
        for i in 0..40 {
            let event = Point::new(vec![f64::from(i % 10) + 0.5, f64::from(i % 7) + 0.7]).unwrap();
            let a = live.publish(&event).unwrap();
            let b = fresh.publish(&event).unwrap();
            assert_eq!(a.interested, b.interested, "event {i}");
            assert_eq!(a.decision, b.decision, "event {i}");
            assert_eq!(
                a.costs.scheme.to_bits(),
                b.costs.scheme.to_bits(),
                "event {i}"
            );
            assert_eq!(a.costs.unicast.to_bits(), b.costs.unicast.to_bits());
            assert_eq!(a.costs.ideal.to_bits(), b.costs.ideal.to_bits());
        }
    }

    #[test]
    fn live_churn_then_recompile_matches_fresh_build() {
        let mut live = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let nodes = live.topology().stub_nodes().to_vec();

        // Churn: two of the compiled camp members leave, three newcomers
        // subscribe to fresh regions.
        let compiled_ids = [SubscriptionId(1), SubscriptionId(4)];
        for id in compiled_ids {
            let handle = live.handle_of(id).unwrap();
            live.unsubscribe(handle).unwrap();
        }
        let h_a = live
            .subscribe(nodes[0], rect(&[0.0, 0.0], &[3.0, 3.0]))
            .unwrap();
        let _h_b = live
            .subscribe(nodes[5], rect(&[6.0, 6.0], &[10.0, 10.0]))
            .unwrap();
        let h_c = live
            .subscribe(nodes[2], rect(&[4.0, 4.0], &[6.0, 6.0]))
            .unwrap();
        live.unsubscribe(h_c).unwrap();

        let counters = live.metrics_snapshot().churn;
        assert_eq!(counters.subscribes, 3);
        assert_eq!(counters.unsubscribes, 3);
        assert!(counters.epoch > 0 || counters.recompiles > 0);

        // An overlay handle resolves back through a live match.
        let (subs, _) = live
            .match_only(&Point::new(vec![1.0, 1.0]).unwrap())
            .unwrap();
        assert!(subs.iter().any(|&s| live.handle_of(s) == Some(h_a)));

        // A fresh broker over the surviving subscriptions, in registry
        // order.
        let survivors: Vec<(NodeId, Rect)> = live
            .registry()
            .live()
            .map(|(_, n, r)| (n, r.clone()))
            .collect();
        let fresh_builder = Broker::builder(tiny_topo(), space_2d())
            .threshold(0.15)
            .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2))
            .grid_cells(4)
            .subscriptions(survivors.clone());

        // Before the recompile the overlay handles matching; interested
        // sets already agree with the fresh build.
        let mut fresh = fresh_builder.build().unwrap();
        for i in 0..20 {
            let event = Point::new(vec![f64::from(i % 10) + 0.5, f64::from(i % 7) + 0.7]).unwrap();
            let (_, live_nodes) = live.match_only(&event).unwrap();
            let (_, fresh_nodes) = fresh.match_only(&event).unwrap();
            assert_eq!(live_nodes, fresh_nodes, "pre-recompile event {i}");
        }

        // After the recompile everything is bit-identical.
        let epoch_before = live.epoch();
        live.recompile().unwrap();
        assert!(live.epoch() > epoch_before);
        assert_eq!(live.metrics_snapshot().churn.overlay_len, 0);
        assert_eq!(live.metrics_snapshot().churn.tombstone_len, 0);
        live.reset_report();
        assert_publish_parity(&mut live, &mut fresh);
        assert_eq!(live.matcher().subscription_count(), survivors.len());

        // Handles survive the recompile and keep working.
        assert!(live.unsubscribe(h_a).is_ok());
        assert!(matches!(
            live.unsubscribe(h_a),
            Err(BrokerError::UnknownHandle { .. })
        ));
    }

    #[test]
    fn drift_threshold_triggers_automatic_recompile() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let nodes = broker.topology().stub_nodes().to_vec();
        // 8 compiled subscriptions, recluster fraction 0.5 (default): the
        // population grows with the churn, so the 9th operation is the
        // first with churn > 0.5 × live.
        let mut handles = Vec::new();
        for i in 0..9 {
            handles.push(
                broker
                    .subscribe(nodes[i % nodes.len()], rect(&[1.0, 1.0], &[4.0, 4.0]))
                    .unwrap(),
            );
        }
        let counters = broker.metrics_snapshot().churn;
        assert!(
            counters.recompiles >= 1,
            "9 subscribes over 8 compiled subscriptions should trip the 0.5 drift threshold: {counters:?}"
        );
        // Post-recompile the overlay is drained into the compiled index.
        assert_eq!(broker.matcher().subscription_count(), 17);
        for h in handles {
            broker.unsubscribe(h).unwrap();
        }
        assert_eq!(broker.registry().len(), 8);
    }

    #[test]
    fn unsubscribe_rejects_stale_and_foreign_handles() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let node = broker.topology().stub_nodes()[0];
        let h = broker
            .subscribe(node, rect(&[0.0, 0.0], &[1.0, 1.0]))
            .unwrap();
        broker.unsubscribe(h).unwrap();
        assert!(matches!(
            broker.unsubscribe(h),
            Err(BrokerError::UnknownHandle { .. })
        ));
        // Validation errors leave the registry untouched.
        assert!(matches!(
            broker.subscribe(NodeId(60_000), rect(&[0.0, 0.0], &[1.0, 1.0])),
            Err(BrokerError::UnknownNode { .. })
        ));
        assert!(matches!(
            broker.subscribe(node, Rect::from_corners(&[0.0], &[1.0]).unwrap()),
            Err(BrokerError::DimensionMismatch { .. })
        ));
        assert_eq!(broker.registry().len(), 8);
    }

    #[test]
    fn scheme_memo_is_epoch_keyed_and_per_publisher() {
        // Satellite: alternating publishers must not thrash the memo —
        // each (publisher, group) pair is walked exactly once per epoch.
        let mut broker = build_two_camp_broker(0.0, DeliveryMode::DenseMode);
        let event = Point::new(vec![2.0, 5.0]).unwrap();
        let first = broker.publish(&event).unwrap();
        assert!(matches!(first.decision, Decision::Multicast { .. }));
        let other = first.interested[0];
        let base = broker.metrics_snapshot().scheme_cost_walks;
        assert_eq!(base, 1);
        // A-B-A-B-A-B on the same group: exactly one more walk (B's
        // first), regardless of the alternation.
        for _ in 0..3 {
            broker.publish_from(other, &event).unwrap();
            broker.publish(&event).unwrap();
        }
        assert_eq!(broker.metrics_snapshot().scheme_cost_walks, 2);
        // An epoch bump (recompile) invalidates the memo lazily.
        broker.recompile().unwrap();
        broker.publish(&event).unwrap();
        assert_eq!(broker.metrics_snapshot().scheme_cost_walks, 3);
    }

    #[test]
    fn snapshot_clones_stay_consistent_across_churn() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let before = broker.snapshot();
        let node = broker.topology().stub_nodes()[3];
        let h = broker
            .subscribe(node, rect(&[0.0, 0.0], &[10.0, 10.0]))
            .unwrap();
        broker.recompile().unwrap();
        // The old snapshot is untouched by the swap.
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.compiled_count(), 8);
        assert_eq!(broker.snapshot().compiled_count(), 9);
        assert!(broker.epoch() > 0);
        // id -> handle round-trip through the new snapshot.
        let id = broker
            .registry()
            .live()
            .position(|(hh, _, _)| hh == h)
            .unwrap();
        assert_eq!(
            broker.snapshot().handle_of(SubscriptionId(id as u32)),
            Some(h)
        );
        broker.unsubscribe(h).unwrap();
    }

    // --------------------------------------------------------------
    // Fault injection
    // --------------------------------------------------------------

    #[test]
    fn fault_plan_rejected_for_alm_and_double_install() {
        let mut alm = build_two_camp_broker(0.15, DeliveryMode::ApplicationLevel);
        assert!(matches!(
            alm.install_fault_plan(FaultPlan::new()),
            Err(BrokerError::InvalidConfig {
                parameter: "delivery",
                ..
            })
        ));
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        broker.install_fault_plan(FaultPlan::new()).unwrap();
        assert!(broker.faults_active());
        assert!(matches!(
            broker.install_fault_plan(FaultPlan::new()),
            Err(BrokerError::InvalidConfig {
                parameter: "fault_plan",
                ..
            })
        ));
    }

    #[test]
    fn fault_events_are_validated() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let mut plan = FaultPlan::new();
        plan.push(0, FaultEvent::NodeDown { node: NodeId(9999) });
        assert!(matches!(
            broker.install_fault_plan(plan),
            Err(BrokerError::UnknownNode { node: 9999 })
        ));
        assert!(!broker.faults_active());
        assert!(matches!(
            broker.inject_fault(&FaultEvent::LinkDegrade {
                a: NodeId(0),
                b: NodeId(1),
                factor: 0.5,
            }),
            Err(BrokerError::InvalidConfig {
                parameter: "factor",
                ..
            })
        ));
    }

    #[test]
    fn downed_publisher_is_unreachable() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let publisher = broker.publisher();
        broker
            .inject_fault(&FaultEvent::NodeDown { node: publisher })
            .unwrap();
        let err = broker
            .publish(&Point::new(vec![2.0, 5.0]).unwrap())
            .unwrap_err();
        assert!(
            matches!(err, BrokerError::Net(NetError::Unreachable { node }) if node == publisher.0)
        );
        // Repair brings the publisher back.
        broker
            .inject_fault(&FaultEvent::NodeUp { node: publisher })
            .unwrap();
        broker
            .publish(&Point::new(vec![2.0, 5.0]).unwrap())
            .unwrap();
    }

    #[test]
    fn downed_subscriber_is_masked_not_delivered() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let event = Point::new(vec![2.0, 5.0]).unwrap();
        let pristine = broker.publish(&event).unwrap();
        assert!(pristine.unreachable.is_empty());
        let victim = pristine.interested[0];
        broker
            .inject_fault(&FaultEvent::NodeDown { node: victim })
            .unwrap();
        let out = broker.publish(&event).unwrap();
        assert!(out.unreachable.contains(&victim));
        assert!(!out.interested.contains(&victim));
        // interested ∪ unreachable is exactly the pristine matched set.
        let mut union: Vec<NodeId> = out
            .interested
            .iter()
            .chain(out.unreachable.iter())
            .copied()
            .collect();
        union.sort_by_key(|n| n.0);
        let mut matched = pristine.interested.clone();
        matched.sort_by_key(|n| n.0);
        assert_eq!(union, matched);
        assert_eq!(
            broker.report().unreachable_skipped,
            out.unreachable.len() as u64
        );
        assert!(out.costs.scheme.is_finite());
        assert!(out.costs.ideal.is_finite());
    }

    #[test]
    fn empty_plan_outcomes_are_bit_identical() {
        let mut plain = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let mut faulty = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        faulty.install_fault_plan(FaultPlan::new()).unwrap();
        let events = [
            Point::new(vec![2.0, 5.0]).unwrap(),
            Point::new(vec![8.0, 5.0]).unwrap(),
            Point::new(vec![5.0, 5.0]).unwrap(),
        ];
        for event in &events {
            let a = plain.publish(event).unwrap();
            let b = faulty.publish(event).unwrap();
            assert_eq!(a.decision, b.decision);
            assert_eq!(a.interested, b.interested);
            assert_eq!(a.unreachable, b.unreachable);
            assert_eq!(a.costs.scheme.to_bits(), b.costs.scheme.to_bits());
            assert_eq!(a.costs.unicast.to_bits(), b.costs.unicast.to_bits());
            assert_eq!(a.costs.ideal.to_bits(), b.costs.ideal.to_bits());
        }
        assert_eq!(plain.report(), faulty.report());
    }

    #[test]
    fn scheduled_fault_fires_on_its_step() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let event = Point::new(vec![2.0, 5.0]).unwrap();
        let victim = broker.publish(&event).unwrap().interested[0];
        let mut plan = FaultPlan::new();
        plan.push(2, FaultEvent::NodeDown { node: victim });
        broker.install_fault_plan(plan).unwrap();
        assert_eq!(broker.fault_epoch(), 0);
        // Steps 0 and 1: the fault is not due yet.
        assert!(broker.publish(&event).unwrap().unreachable.is_empty());
        assert!(broker.publish(&event).unwrap().unreachable.is_empty());
        // Step 2: fires before the event publishes.
        let out = broker.publish(&event).unwrap();
        assert!(out.unreachable.contains(&victim));
        assert!(broker.fault_epoch() > 0);
    }

    #[test]
    fn degraded_group_walks_the_fallback_ladder() {
        let mut broker = build_two_camp_broker(0.0, DeliveryMode::DenseMode);
        let publisher = broker.publisher();
        let event = Point::new(vec![2.0, 5.0]).unwrap();
        let pristine = broker.publish(&event).unwrap();
        let q = match pristine.decision {
            Decision::Multicast { group } => group,
            other => panic!("expected multicast at threshold 0, got {other:?}"),
        };
        let members = broker.groups().members(q).to_vec();
        assert!(members.len() >= 2);
        // Down every member except one interested node (and never the
        // publisher itself), then derive the expected classification.
        let keep = pristine.interested[0];
        for &m in &members {
            if m != keep && m != publisher {
                broker
                    .inject_fault(&FaultEvent::NodeDown { node: m })
                    .unwrap();
            }
        }
        let reachable = members
            .iter()
            .filter(|&&m| m == keep || m == publisher)
            .count();
        let expected = if reachable == members.len() {
            GroupHealth::Healthy
        } else if reachable * 2 >= members.len() {
            GroupHealth::Degraded
        } else {
            GroupHealth::Severed
        };
        assert_ne!(expected, GroupHealth::Healthy, "test needs a real fault");
        // Hysteresis: the committed health needs HEALTH_HYSTERESIS
        // consecutive raw evaluations to move.
        let mut last = broker.publish(&event).unwrap();
        for _ in 0..HEALTH_HYSTERESIS {
            last = broker.publish(&event).unwrap();
        }
        assert_eq!(broker.group_health(publisher, q), expected);
        match expected {
            GroupHealth::Severed => {
                assert!(matches!(
                    last.decision,
                    Decision::Unicast {
                        reason: UnicastReason::GroupSevered,
                    }
                ));
                assert_eq!(last.costs.scheme.to_bits(), last.costs.unicast.to_bits());
            }
            GroupHealth::Degraded => {
                assert!(matches!(last.decision, Decision::PartialMulticast { .. }));
                assert!(last.costs.scheme.is_finite());
            }
            GroupHealth::Healthy => unreachable!(),
        }
        assert!(!last.unreachable.is_empty());
    }

    #[test]
    fn quarantined_worker_batch_stays_bit_identical() {
        // Real 2-thread pools, so the batch fans out even on a
        // single-core host (the broker never spawns its own pool there).
        let mut clean = pooled_two_camp_broker(2);
        let mut trapped = pooled_two_camp_broker(2);
        // At least 2 * BLOCK events so the batch actually fans out on
        // the pool (shorter batches run inline and bypass quarantine).
        let events: Vec<Point> = (0..160)
            .map(|i| Point::new(vec![(i % 10) as f64, 5.0]).unwrap())
            .collect();
        trapped.arm_worker_panic(1);
        let clean_out = clean.publish_batch(&events, Some(2)).unwrap();
        let trapped_out = trapped.publish_batch(&events, Some(2)).unwrap();
        assert_eq!(trapped.metrics_snapshot().pipeline.pooled_batches, 1);
        assert_eq!(clean_out.len(), trapped_out.len());
        for (a, b) in clean_out.iter().zip(&trapped_out) {
            assert_eq!(a.decision, b.decision);
            assert_eq!(a.interested, b.interested);
            assert_eq!(a.costs.scheme.to_bits(), b.costs.scheme.to_bits());
        }
        assert_eq!(clean.report(), trapped.report());
        let counters = trapped.metrics_snapshot().pipeline;
        assert_eq!(counters.quarantined_workers, 1);
        assert_eq!(counters.retried_batches, 1);
        // The trap disarms after firing once: the next batch is clean.
        let again = trapped.publish_batch(&events, Some(2)).unwrap();
        assert_eq!(again.len(), events.len());
        assert_eq!(trapped.metrics_snapshot().pipeline.quarantined_workers, 1);
    }

    #[test]
    fn single_thread_pool_batches_run_inline() {
        // A 1-thread pool can only add dispatch overhead: the batch must
        // degenerate to the fused inline path even when the caller asks
        // for more workers.
        let mut broker = pooled_two_camp_broker(1);
        let events: Vec<Point> = (0..200)
            .map(|i| Point::new(vec![(i % 10) as f64, 5.0]).unwrap())
            .collect();
        broker.publish_batch(&events, Some(4)).unwrap();
        let counters = broker.metrics_snapshot().pipeline;
        assert_eq!(counters.pooled_batches, 0);
        assert_eq!(counters.inline_batches, 1);

        // A deferred thread choice on a single-core host must never spawn
        // a pool either (host-gated: only observable on 1-core runners).
        if pubsub_parallel::effective_threads(None) == 1 {
            let mut deferred = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
            deferred.publish_batch(&events, None).unwrap();
            deferred.publish_batch(&events, Some(8)).unwrap();
            let counters = deferred.metrics_snapshot().pipeline;
            assert_eq!(counters.pooled_batches, 0);
            assert_eq!(counters.inline_batches, 2);
        }
    }

    #[test]
    fn batches_never_dispatch_more_workers_than_blocks() {
        let block = pubsub_parallel::BLOCK;
        let events: Vec<Point> = (0..2 * block + block / 2)
            .map(|i| Point::new(vec![(i % 10) as f64, 5.0]).unwrap())
            .collect();
        let mut seq = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let want: Vec<PublishOutcome> = events.iter().map(|e| seq.publish(e).unwrap()).collect();

        // One block of events: nothing for a second worker to do, so the
        // 2-thread pool is never woken.
        let mut broker = pooled_two_camp_broker(2);
        let got = broker.publish_batch(&events[..block], Some(2)).unwrap();
        assert_eq!(got, want[..block]);
        let counters = broker.metrics_snapshot().pipeline;
        assert_eq!((counters.inline_batches, counters.pooled_batches), (1, 0));

        // The boundary: one event short of two full blocks still runs
        // inline; two full blocks are pooled.
        let mut broker = pooled_two_camp_broker(2);
        let got = broker
            .publish_batch(&events[..2 * block - 1], Some(2))
            .unwrap();
        assert_eq!(got, want[..2 * block - 1]);
        let counters = broker.metrics_snapshot().pipeline;
        assert_eq!((counters.inline_batches, counters.pooled_batches), (1, 0));
        let got = broker.publish_batch(&events[..2 * block], Some(2)).unwrap();
        assert_eq!(got, want[..2 * block]);
        let counters = broker.metrics_snapshot().pipeline;
        assert_eq!((counters.inline_batches, counters.pooled_batches), (1, 1));
        assert_eq!(counters.max_workers, 2);

        // Two and a half blocks on a 3-thread pool: two workers, not
        // three — a half block never gets a worker of its own.
        let mut broker = pooled_two_camp_broker(3);
        let got = broker.publish_batch(&events, Some(3)).unwrap();
        assert_eq!(got, want);
        let counters = broker.metrics_snapshot().pipeline;
        assert_eq!((counters.inline_batches, counters.pooled_batches), (0, 1));
        assert_eq!(counters.max_workers, 2);
        assert_eq!(broker.report(), seq.report());
    }

    #[test]
    fn pipeline_counts_kernel_blocks() {
        let mut broker = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let events: Vec<Point> = (0..100)
            .map(|i| Point::new(vec![(i % 10) as f64, 5.0]).unwrap())
            .collect();
        broker.publish_batch(&events, None).unwrap();
        let counters = broker.metrics_snapshot().pipeline;
        // 100 events in 8-lane blocks: 32-event ranges cut into 4 full
        // blocks, the 4-event tail into 1 — 13 blocks however the
        // block-cyclic ranges fall.
        assert_eq!(counters.match_blocks, 13);
        assert_eq!(counters.match_lanes, 100);
        assert_eq!(
            counters.simd_blocks + counters.scalar_blocks,
            counters.match_blocks
        );
        // Fault-free batches dispatch no fault segments.
        assert_eq!(counters.fault_segments, 0);
        assert_eq!(counters.degraded_segments, 0);
    }

    #[test]
    fn batch_under_faults_matches_sequential_loop() {
        let mut seq = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let mut batch = build_two_camp_broker(0.15, DeliveryMode::DenseMode);
        let victim = seq
            .publish(&Point::new(vec![2.0, 5.0]).unwrap())
            .unwrap()
            .interested[0];
        seq.reset_report();
        let mut plan = FaultPlan::new();
        plan.push(1, FaultEvent::NodeDown { node: victim });
        plan.push(3, FaultEvent::NodeUp { node: victim });
        seq.install_fault_plan(plan.clone()).unwrap();
        batch.install_fault_plan(plan).unwrap();
        let events: Vec<Point> = (0..6)
            .map(|i| Point::new(vec![(2 * i % 10) as f64, 5.0]).unwrap())
            .collect();
        let mut seq_outs = Vec::new();
        for event in &events {
            seq_outs.push(seq.publish(event).unwrap());
        }
        let batch_outs = batch.publish_batch(&events, Some(4)).unwrap();
        assert_eq!(seq_outs.len(), batch_outs.len());
        for (a, b) in seq_outs.iter().zip(&batch_outs) {
            assert_eq!(a.decision, b.decision);
            assert_eq!(a.interested, b.interested);
            assert_eq!(a.unreachable, b.unreachable);
            assert_eq!(a.costs.scheme.to_bits(), b.costs.scheme.to_bits());
        }
    }

    #[test]
    fn sparse_mode_survives_rendezvous_loss() {
        let topo = tiny_topo();
        let transit = topo.transit_nodes().to_vec();
        assert!(transit.len() >= 2);
        let mut broker = build_two_camp_broker(
            0.0,
            DeliveryMode::SparseMode {
                rendezvous: transit[1],
            },
        );
        // Downing the rendezvous must not down the publisher with it.
        let rendezvous = transit[1];
        assert_ne!(broker.publisher(), rendezvous);
        let event = Point::new(vec![2.0, 5.0]).unwrap();
        let pristine = broker.publish(&event).unwrap();
        assert!(matches!(pristine.decision, Decision::Multicast { .. }));
        broker
            .inject_fault(&FaultEvent::NodeDown { node: rendezvous })
            .unwrap();
        let out = broker.publish(&event).unwrap();
        // No shared tree without the rendezvous point: forced unicast.
        if !out.interested.is_empty() {
            assert!(matches!(
                out.decision,
                Decision::Unicast {
                    reason: UnicastReason::GroupSevered,
                }
            ));
            assert!(out.costs.scheme.is_finite());
        }
    }
}
