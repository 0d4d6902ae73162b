//! Engine runtimes: deployment of a logical graph onto simulated nodes and
//! the public monitoring API Lachesis' drivers consume.
//!
//! Three engine personalities reproduce the paper's SPEs (§6.1):
//!
//! * [`EngineConfig::storm`] — thread-per-operator, **unbounded** queues;
//! * [`EngineConfig::flink`] — thread-per-operator, **bounded** queues with
//!   producer blocking (credit-based backpressure), optional chaining;
//! * [`EngineConfig::liebre`] — like Storm, plus blocking-I/O injection and
//!   first-class support for worker-pool execution (the UL-SS substrate).
//!
//! Each running query periodically reports its *exposed* raw metrics to a
//! Graphite-like store — and different SPEs expose different metric sets,
//! which is what forces Lachesis' metric provider to derive the rest
//! (paper Fig. 4).

use std::cell::RefCell;
use std::rc::Rc;

use lachesis_metrics::{names, MetricName, SeriesId, TimeSeriesStore};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simos::{Kernel, NodeId, SimDuration, ThreadId};

use crate::body::OpBody;
use crate::graph::{LogicalGraph, LogicalOpId};
use crate::opcell::{BacklogPenalty, BlockingSpec, OpCell, OpCellRef, OpCellSpec, OutEdge, Stage};
use crate::physical::{PhysOpId, PhysicalGraph};
use crate::pool::{PoolScheduler, PoolShared, WorkerBody};
use crate::queue::Queue;
use crate::sink::SinkCollector;
use crate::source::{install_source, SourceState};
use crate::stats::LogHistogram;

/// Which SPE personality a deployment emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpeKind {
    /// Apache-Storm-like: unbounded queues, no intra-query backpressure.
    Storm,
    /// Apache-Flink-like: bounded queues, credit-based backpressure.
    Flink,
    /// Liebre-like: lightweight research SPE, UL-SS capable.
    Liebre,
}

impl SpeKind {
    /// Lower-case name used in metric paths.
    pub fn name(self) -> &'static str {
        match self {
            SpeKind::Storm => "storm",
            SpeKind::Flink => "flink",
            SpeKind::Liebre => "liebre",
        }
    }

    /// The raw metrics this SPE exposes through its public APIs.
    ///
    /// Storm and Flink expose counters and CPU time but not cost or
    /// selectivity (Lachesis derives them); Liebre exposes cost and
    /// selectivity directly but no CPU time — the Fig. 4 situation.
    pub fn exposed_metrics(self) -> &'static [MetricName] {
        match self {
            SpeKind::Storm => &[
                names::QUEUE_SIZE,
                names::HEAD_WAIT,
                names::TUPLES_IN,
                names::TUPLES_OUT,
                names::CPU_TIME,
            ],
            SpeKind::Flink => &[
                names::QUEUE_SIZE,
                names::TUPLES_IN,
                names::TUPLES_OUT,
                names::CPU_TIME,
            ],
            SpeKind::Liebre => &[
                names::QUEUE_SIZE,
                names::HEAD_WAIT,
                names::TUPLES_IN,
                names::TUPLES_OUT,
                names::COST,
                names::SELECTIVITY,
            ],
        }
    }
}

/// How operators are executed.
pub enum Execution {
    /// One dedicated kernel thread per physical operator (the default of
    /// Storm, Flink and Liebre).
    ThreadPerOp,
    /// A user-level streaming scheduler's worker pool (EdgeWise, Haren).
    WorkerPool {
        /// Number of worker threads (UL-SS typically use one per core).
        workers: usize,
        /// The scheduling strategy.
        scheduler: Box<dyn PoolScheduler>,
        /// CPU cost per scheduling decision.
        pick_cost: SimDuration,
    },
}

impl std::fmt::Debug for Execution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Execution::ThreadPerOp => f.write_str("ThreadPerOp"),
            Execution::WorkerPool { workers, .. } => f
                .debug_struct("WorkerPool")
                .field("workers", workers)
                .finish_non_exhaustive(),
        }
    }
}

/// Per-deployment overload protection (robustness extension, not in the
/// paper): what a query does when demand exceeds what its operators can
/// drain. Requires bounded queues ([`EngineConfig::queue_capacity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadMode {
    /// Personality defaults: ingress queues stay unbounded (they model the
    /// external source buffer) and internal queues behave per `kind`.
    #[default]
    Disabled,
    /// Every queue — including ingress — is bounded and blocking; a full
    /// ingress queue throttles the data source, propagating backpressure
    /// all the way upstream. No tuple is ever dropped.
    Backpressure,
    /// Every queue is bounded and sheds from the head when full; producers
    /// (and sources) never block. Drops are counted per operator in the
    /// [`names::SHED`] metric.
    Shed,
}

/// Blocking-I/O injection over a random subset of operators (paper §6.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingConfig {
    /// Fraction of physical operators affected (e.g. 0.1).
    pub fraction: f64,
    /// Per-tuple blocking probability (e.g. 0.001).
    pub probability: f64,
    /// Maximum block duration (e.g. 200 ms).
    pub max_duration: SimDuration,
}

/// Full deployment configuration of one engine instance.
#[derive(Debug)]
pub struct EngineConfig {
    /// SPE personality.
    pub kind: SpeKind,
    /// Capacity of non-ingress queues (`None` = unbounded).
    pub queue_capacity: Option<usize>,
    /// Whether to fuse chainable operators.
    pub chaining: bool,
    /// Execution model.
    pub execution: Execution,
    /// Delay for tuple transfers between nodes.
    pub net_delay: SimDuration,
    /// Period of the metric reporter (Graphite resolution).
    pub report_period: SimDuration,
    /// Granularity of the data source pacer.
    pub source_tick: SimDuration,
    /// Optional blocking-I/O injection.
    pub blocking: Option<BlockingConfig>,
    /// Backlog-dependent operator slowdown (see [`BacklogPenalty`]).
    pub backlog_penalty: Option<BacklogPenalty>,
    /// Spout flow control: maximum total internal backlog (tuples) before
    /// ingress operators pause (Storm's `max.spout.pending` with acking).
    pub max_pending: Option<usize>,
    /// Overload protection mode (requires `queue_capacity` when enabled).
    pub overload: OverloadMode,
    /// Seed for deterministic per-deployment randomness.
    pub seed: u64,
    /// Largest chunk one scheduling quantum may drain from an operator's
    /// input queue (push-based batch execution). `1` forces the scalar
    /// tuple-at-a-time path everywhere; batching engages only where it is
    /// observationally exact, so any value yields identical results (see
    /// `OpCell::begin`). The `LACHESIS_BATCH_MAX` environment variable
    /// overrides the constructors' default, which CI uses to prove
    /// batched and scalar runs byte-identical.
    pub batch_max: usize,
}

/// Default chunk capacity for batched execution.
pub const DEFAULT_BATCH_MAX: usize = 64;

fn default_batch_max() -> usize {
    // CI's scalar-equivalence step relies on this variable being honored;
    // a silent fallback would run the batched path while claiming to
    // verify the scalar one, so anything unparseable is a hard error.
    match std::env::var("LACHESIS_BATCH_MAX") {
        Err(std::env::VarError::NotPresent) => DEFAULT_BATCH_MAX,
        Err(e) => panic!("invalid LACHESIS_BATCH_MAX: {e}"),
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(0) => 1, // explicit scalar, same as 1
            Ok(n) => n,
            Err(_) => panic!(
                "invalid LACHESIS_BATCH_MAX {v:?}: expected a non-negative integer"
            ),
        },
    }
}

impl EngineConfig {
    /// Storm-like defaults.
    pub fn storm() -> Self {
        EngineConfig {
            kind: SpeKind::Storm,
            queue_capacity: None,
            chaining: false,
            execution: Execution::ThreadPerOp,
            net_delay: SimDuration::from_micros(300),
            report_period: SimDuration::from_secs(1),
            source_tick: SimDuration::from_millis(1),
            blocking: None,
            backlog_penalty: None,
            max_pending: Some(4_000),
            overload: OverloadMode::Disabled,
            seed: 1,
            batch_max: default_batch_max(),
        }
    }

    /// Flink-like defaults (chaining disabled like the paper's §6.3 setup).
    /// Backpressure comes from bounded queues, not spout pending caps.
    pub fn flink() -> Self {
        EngineConfig {
            kind: SpeKind::Flink,
            queue_capacity: Some(128),
            max_pending: None,
            ..EngineConfig::storm()
        }
    }

    /// Liebre-like defaults: a research SPE without acking — no spout flow
    /// control, queues grow without bound under overload.
    pub fn liebre() -> Self {
        EngineConfig {
            kind: SpeKind::Liebre,
            max_pending: None,
            ..EngineConfig::storm()
        }
    }
}

/// Where physical operators run: replica `r` goes to `nodes[r % len]`.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Candidate nodes.
    pub nodes: Vec<NodeId>,
}

impl Placement {
    /// Places everything on one node.
    pub fn single(node: NodeId) -> Self {
        Placement { nodes: vec![node] }
    }

    /// Spreads replicas round-robin over several nodes (scale-out, §6.5).
    pub fn spread(nodes: Vec<NodeId>) -> Self {
        assert!(!nodes.is_empty(), "placement needs at least one node");
        Placement { nodes }
    }

    fn node_for(&self, replica: usize) -> NodeId {
        self.nodes[replica % self.nodes.len()]
    }
}

struct QueryShared {
    name: String,
    kind: SpeKind,
    cells: Vec<OpCellRef>,
    phys: PhysicalGraph,
    logical_names: Vec<String>,
    sinks: Vec<(LogicalOpId, Rc<RefCell<SinkCollector>>)>,
    sources: Vec<Rc<RefCell<SourceState>>>,
    /// Grows when the restart supervisor re-deploys a crashed operator.
    threads: RefCell<Vec<ThreadId>>,
    pool: Option<Rc<PoolShared>>,
    /// Current overload mode (graceful degradation can flip it at runtime).
    overload: std::cell::Cell<OverloadMode>,
}

/// Handle to a deployed query: the "public monitoring API" of the SPE,
/// which Lachesis' drivers (and the experiment harness) read.
#[derive(Clone)]
pub struct RunningQuery {
    shared: Rc<QueryShared>,
}

impl std::fmt::Debug for RunningQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningQuery")
            .field("name", &self.shared.name)
            .field("kind", &self.shared.kind)
            .field("ops", &self.shared.cells.len())
            .finish_non_exhaustive()
    }
}

impl RunningQuery {
    /// The query's name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// The engine personality running the query.
    pub fn kind(&self) -> SpeKind {
        self.shared.kind
    }

    /// Number of physical operators.
    pub fn op_count(&self) -> usize {
        self.shared.cells.len()
    }

    /// The physical operator cells, indexed by [`PhysOpId`].
    pub fn cells(&self) -> &[OpCellRef] {
        &self.shared.cells
    }

    /// One physical operator cell.
    pub fn cell(&self, op: PhysOpId) -> &OpCellRef {
        &self.shared.cells[op]
    }

    /// The physical DAG (with the logical↔physical mapping).
    pub fn physical(&self) -> &PhysicalGraph {
        &self.shared.phys
    }

    /// Logical operator names, by [`LogicalOpId`].
    pub fn logical_names(&self) -> &[String] {
        &self.shared.logical_names
    }

    /// Threads executing the query: per-operator threads in
    /// thread-per-operator mode, worker threads in pool mode. Includes
    /// threads re-spawned by the restart supervisor after operator
    /// crashes (exited threads are not removed — consult
    /// [`OpCell::thread`](crate::OpCell::thread) for the live binding).
    pub fn threads(&self) -> Vec<ThreadId> {
        self.shared.threads.borrow().clone()
    }

    /// Registers a thread re-spawned for this query (restart supervisor).
    pub(crate) fn push_thread(&self, tid: ThreadId) {
        self.shared.threads.borrow_mut().push(tid);
    }

    /// Number of operators currently down (crashed, not restarted).
    pub fn crashed_ops(&self) -> usize {
        self.shared.cells.iter().filter(|c| c.is_crashed()).count()
    }

    /// Total injected operator crashes across the query.
    pub fn total_crashes(&self) -> u64 {
        self.shared.cells.iter().map(|c| c.crash_count()).sum()
    }

    /// Total successful operator restarts across the query.
    pub fn total_restarts(&self) -> u64 {
        self.shared.cells.iter().map(|c| c.restart_count()).sum()
    }

    /// The worker-pool state, if the query runs under a UL-SS.
    pub fn pool(&self) -> Option<&Rc<PoolShared>> {
        self.shared.pool.as_ref()
    }

    /// Egress latency collectors, one per logical egress operator.
    pub fn sinks(&self) -> &[(LogicalOpId, Rc<RefCell<SinkCollector>>)] {
        &self.shared.sinks
    }

    /// Data source states.
    pub fn sources(&self) -> &[Rc<RefCell<SourceState>>] {
        &self.shared.sources
    }

    /// Total tuples emitted by all data sources.
    pub fn source_emitted(&self) -> u64 {
        self.shared.sources.iter().map(|s| s.borrow().emitted()).sum()
    }

    /// Total tuples ingested by ingress operators — the paper's throughput
    /// numerator (§3.2).
    pub fn ingress_total(&self) -> u64 {
        self.shared
            .cells
            .iter()
            .filter(|c| c.is_ingress())
            .map(|c| c.tuples_in())
            .sum()
    }

    /// Total egress tuples over all sinks.
    pub fn egress_total(&self) -> u64 {
        self.shared.sinks.iter().map(|(_, s)| s.borrow().count()).sum()
    }

    /// Merged processing-latency distribution over all sinks.
    pub fn latency_histogram(&self) -> LogHistogram {
        let mut h = LogHistogram::new();
        for (_, s) in &self.shared.sinks {
            h.merge(s.borrow().latency());
        }
        h
    }

    /// Merged end-to-end latency distribution over all sinks.
    pub fn e2e_histogram(&self) -> LogHistogram {
        let mut h = LogHistogram::new();
        for (_, s) in &self.shared.sinks {
            h.merge(s.borrow().e2e());
        }
        h
    }

    /// Current input queue lengths by physical operator.
    pub fn queue_sizes(&self) -> Vec<usize> {
        self.shared.cells.iter().map(|c| c.in_queue().len()).collect()
    }

    /// The query's current overload mode.
    pub fn overload_mode(&self) -> OverloadMode {
        self.shared.overload.get()
    }

    /// Total tuples shed from input queues by overload protection.
    pub fn total_shed(&self) -> u64 {
        self.shared.cells.iter().map(|c| c.in_queue().shed()).sum()
    }

    /// Shed counts by physical operator.
    pub fn shed_by_op(&self) -> Vec<u64> {
        self.shared.cells.iter().map(|c| c.in_queue().shed()).collect()
    }

    /// Flips every input queue to the shed-from-head discipline (graceful
    /// degradation of a backpressured query under persistent starvation).
    /// Producers blocked on full queues are woken so they can retry —
    /// their pending push now sheds instead of stalling. No-op when the
    /// query has unbounded queues (nothing to flip) or already sheds.
    pub fn set_shed_mode(&self, kernel: &mut Kernel) {
        if self.shared.overload.get() == OverloadMode::Shed {
            return;
        }
        for c in &self.shared.cells {
            let q = c.in_queue();
            q.set_discipline(crate::queue::QueueDiscipline::Shed);
            kernel.wake(q.producer_wait());
        }
        self.shared.overload.set(OverloadMode::Shed);
    }

    /// Resets all statistics (operators, queues, sinks, sources) — called
    /// at the end of the warm-up phase.
    pub fn reset_stats(&self) {
        for c in &self.shared.cells {
            c.reset_stats();
        }
        for (_, s) in &self.shared.sinks {
            s.borrow_mut().reset();
        }
        for s in &self.shared.sources {
            s.borrow_mut().reset();
        }
    }
}

/// Deploys a logical graph onto the simulated cluster.
///
/// Returns the query handle; the query keeps running inside `kernel` until
/// the simulation ends (stream queries are continuous).
///
/// # Examples
///
/// ```
/// use simos::{Kernel, SimDuration};
/// use spe::{deploy, Consume, CostModel, EngineConfig, LogicalGraph, Partitioning,
///           PassThrough, Placement, Role, Tuple};
///
/// let mut b = LogicalGraph::builder("demo");
/// let src = b.op("src", Role::Ingress, CostModel::micros(20), 1, || Box::new(PassThrough));
/// let sink = b.op("sink", Role::Egress, CostModel::micros(20), 1, || Box::new(Consume));
/// b.edge(src, sink, Partitioning::Forward);
/// b.source("gen", src, 500.0, |seq, now| Tuple::new(now, seq, vec![]));
///
/// let mut kernel = Kernel::default();
/// let node = kernel.add_node("edge", 2);
/// let query = deploy(&mut kernel, b.build()?, EngineConfig::storm(),
///                    &Placement::single(node), None)?;
/// kernel.run_for(SimDuration::from_secs(2));
/// assert!(query.egress_total() > 900);
/// # Ok::<(), String>(())
/// ```
///
/// # Errors
///
/// Returns a description of the problem for invalid graphs or unsupported
/// combinations (worker pools with multi-node placements).
///
/// # Panics
///
/// Panics if placement references nodes not present in `kernel`.
pub fn deploy(
    kernel: &mut Kernel,
    graph: LogicalGraph,
    config: EngineConfig,
    placement: &Placement,
    store: Option<Rc<RefCell<TimeSeriesStore>>>,
) -> Result<RunningQuery, String> {
    graph.validate()?;
    if config.overload != OverloadMode::Disabled && config.queue_capacity.is_none() {
        return Err("overload protection requires bounded queues (queue_capacity)".into());
    }
    if matches!(config.execution, Execution::WorkerPool { .. }) {
        if placement.nodes.len() > 1 {
            return Err("worker-pool execution requires a single-node placement".into());
        }
        if config.queue_capacity.is_some() && config.overload != OverloadMode::Shed {
            // A worker stalled on a full queue may be the only thread that
            // could drain it: guaranteed deadlock potential. Shedding
            // queues never stall producers, so they are safe in a pool.
            return Err("worker-pool execution requires unbounded or shedding queues".into());
        }
    }

    let phys = PhysicalGraph::build(&graph, config.chaining);
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // Blocking injection: sample the affected subset of physical operators.
    let blocking_of: Vec<Option<BlockingSpec>> = phys
        .ops
        .iter()
        .map(|_| {
            config.blocking.and_then(|bc| {
                rng.gen_bool(bc.fraction.clamp(0.0, 1.0)).then_some(BlockingSpec {
                    probability: bc.probability,
                    max_duration: bc.max_duration,
                })
            })
        })
        .collect();

    // Queues. With overload protection off, ingress queues are unbounded
    // (they model the source buffer); with it on, they are bounded too so
    // overload surfaces as source throttling (Backpressure) or head drops
    // (Shed) instead of an unbounded buffer.
    let queues: Vec<Queue> = phys
        .ops
        .iter()
        .map(|spec| {
            let node = placement.node_for(spec.replica);
            let cap = if spec.is_ingress && config.overload == OverloadMode::Disabled {
                None
            } else {
                config.queue_capacity
            };
            let q = Queue::new(
                kernel,
                &format!("{}.{}", graph.name, spec.name),
                node,
                cap,
            );
            if config.overload == OverloadMode::Shed {
                q.set_discipline(crate::queue::QueueDiscipline::Shed);
            }
            q
        })
        .collect();

    // Sink collectors, one per logical egress operator.
    let mut sinks: Vec<(LogicalOpId, Rc<RefCell<SinkCollector>>)> = Vec::new();
    let mut sink_of = |logical: LogicalOpId, name: &str| -> Rc<RefCell<SinkCollector>> {
        if let Some((_, s)) = sinks.iter().find(|(l, _)| *l == logical) {
            return Rc::clone(s);
        }
        let s = Rc::new(RefCell::new(SinkCollector::new(name)));
        sinks.push((logical, Rc::clone(&s)));
        s
    };

    // Operator cells.
    let cells: Vec<OpCellRef> = phys
        .ops
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let stages: Vec<Stage> = spec
                .chain
                .iter()
                .map(|&l| Stage {
                    logical: l,
                    name: graph.ops[l].name.clone(),
                    logic: (graph.ops[l].factory)(),
                    cost: graph.ops[l].cost,
                })
                .collect();
            let sink = spec
                .egress
                .map(|l| sink_of(l, &graph.ops[l].name));
            OpCell::new(
                OpCellSpec {
                    id: i,
                    name: spec.name.clone(),
                    query: graph.name.clone(),
                    node: placement.node_for(spec.replica),
                    is_ingress: spec.is_ingress,
                    in_queue: queues[i].clone(),
                    sink,
                    blocking: blocking_of[i],
                    backlog_penalty: config.backlog_penalty,
                    net_delay: config.net_delay,
                    seed: config.seed.wrapping_add(i as u64).wrapping_mul(0x9E37),
                    batch_max: config.batch_max,
                },
                stages,
            )
        })
        .collect();

    // Spout flow control: ingress ops pause while internal queues exceed
    // the pending cap. Every internal queue feeds one shared backlog
    // counter so the per-tuple spout check is O(1).
    if let Some(cap) = config.max_pending {
        let pending = Rc::new(std::cell::Cell::new(0u64));
        for (i, spec) in phys.ops.iter().enumerate() {
            if !spec.is_ingress {
                queues[i].track_backlog(Rc::clone(&pending));
            }
        }
        for (i, spec) in phys.ops.iter().enumerate() {
            if spec.is_ingress {
                cells[i].set_throttle(crate::opcell::Throttle {
                    pending: Rc::clone(&pending),
                    cap,
                });
            }
        }
    }

    // Wire output edges.
    for (i, spec) in phys.ops.iter().enumerate() {
        let edges: Vec<OutEdge> = spec
            .out_edges
            .iter()
            .map(|e| {
                OutEdge::new(
                    e.port,
                    e.partitioning,
                    e.targets.iter().map(|&t| queues[t].clone()).collect(),
                )
            })
            .collect();
        cells[i].set_out_edges(edges);
    }

    // Execution: threads or a worker pool.
    let mut threads = Vec::new();
    let mut pool_shared = None;
    match config.execution {
        Execution::ThreadPerOp => {
            // With a trace sink on the kernel at deploy time, operator
            // bodies emit batch lifecycle spans into the same stream as
            // the kernel's scheduling events.
            let trace = kernel.trace_sink().cloned();
            for (i, cell) in cells.iter().enumerate() {
                let node = placement.node_for(phys.ops[i].replica);
                let tid = kernel
                    .spawn(
                        node,
                        &format!("{}.{}", graph.name, phys.ops[i].name),
                        OpBody::traced(Rc::clone(cell), trace.clone()),
                    )
                    .build();
                cell.set_thread(tid);
                threads.push(tid);
            }
        }
        Execution::WorkerPool {
            workers,
            scheduler,
            pick_cost,
        } => {
            let node = placement.nodes[0];
            let pool_wait = kernel.new_wait_channel();
            for q in &queues {
                q.set_consumer_wait(pool_wait);
            }
            let pool = Rc::new(PoolShared {
                ops: cells.clone(),
                in_flight: RefCell::new(vec![false; cells.len()]),
                wait: pool_wait,
                scheduler: RefCell::new(scheduler),
                pick_cost,
                // The cache-reload part of a context switch, paid in user
                // space when a worker changes operator.
                op_switch_cost: SimDuration::from_micros(40),
            });
            for w in 0..workers.max(1) {
                let tid = kernel
                    .spawn(
                        node,
                        &format!("{}.worker{}", graph.name, w),
                        WorkerBody::new(Rc::clone(&pool), w),
                    )
                    .build();
                threads.push(tid);
            }
            pool_shared = Some(pool);
        }
    }

    // Data sources.
    let mut sources = Vec::new();
    for src in graph.sources {
        let targets: Vec<Queue> = phys
            .physical_of(src.target)
            .iter()
            .map(|&p| queues[p].clone())
            .collect();
        sources.push(install_source(
            kernel,
            &src.name,
            src.rate_tps,
            src.generator,
            targets,
            config.source_tick,
        ));
    }

    let shared = Rc::new(QueryShared {
        name: graph.name.clone(),
        kind: config.kind,
        cells,
        phys,
        logical_names: graph.ops.iter().map(|o| o.name.clone()).collect(),
        sinks,
        sources,
        threads: RefCell::new(threads),
        pool: pool_shared,
        overload: std::cell::Cell::new(config.overload),
    });

    // Metric reporter: writes the SPE's exposed metrics to the store.
    if let Some(store) = store {
        let shared_cb = Rc::clone(&shared);
        let period = config.report_period;
        let mut handles = Vec::new();
        kernel.schedule_periodic(period, period, move |k| {
            report_metrics(&shared_cb, &store, &mut handles, k);
        });
    }

    Ok(RunningQuery { shared })
}

/// Metric path for one operator metric: `{spe}.{query}.{op_id}.{metric}`.
pub fn metric_path(kind: SpeKind, query: &str, op: PhysOpId, metric: MetricName) -> String {
    format!("{}.{}.{}.{}", kind.name(), query, op, metric)
}

/// Records `value` into the series of `slot`, resolving the slot from
/// `path` on its first write. A slot is only resolved when it is written,
/// so an unreported metric never leaves an empty series behind.
fn record_into(
    store: &mut TimeSeriesStore,
    slot: &mut Option<SeriesId>,
    path: impl FnOnce() -> String,
    now: simos::SimTime,
    value: f64,
) {
    let id = *slot.get_or_insert_with(|| store.id_or_insert(&path()));
    store.record_id(id, now, value);
}

/// Writes one report of the query's metrics. `handles` caches the store
/// handle of every series the reporter writes: per operator its exposed
/// metrics, then health, then shed count; then one per sink.
fn report_metrics(
    shared: &Rc<QueryShared>,
    store: &Rc<RefCell<TimeSeriesStore>>,
    handles: &mut Vec<Option<SeriesId>>,
    k: &Kernel,
) {
    let now = k.now();
    let mut store = store.borrow_mut();
    let kind = shared.kind;
    let per_op = kind.exposed_metrics().len() + 2;
    handles.resize(shared.cells.len() * per_op + shared.sinks.len(), None);
    let (op_handles, sink_handles) = handles.split_at_mut(shared.cells.len() * per_op);
    for ((i, cell), slots) in shared.cells.iter().enumerate().zip(op_handles.chunks_mut(per_op)) {
        let (metric_slots, extra) = slots.split_at_mut(per_op - 2);
        for (&metric, slot) in kind.exposed_metrics().iter().zip(metric_slots) {
            // Ingress operators pull from the external Data Source (e.g. a
            // Kafka consumer); they have no SPE-visible input queue, so the
            // SPE reports zero for their queue metrics.
            let value = if metric == names::QUEUE_SIZE {
                Some(if cell.is_ingress() {
                    0.0
                } else {
                    cell.in_queue().len() as f64
                })
            } else if metric == names::HEAD_WAIT {
                Some(if cell.is_ingress() {
                    0.0
                } else {
                    cell.in_queue().head_age(now).unwrap_or(0.0)
                })
            } else if metric == names::TUPLES_IN {
                Some(cell.tuples_in() as f64)
            } else if metric == names::TUPLES_OUT {
                Some(cell.tuples_out() as f64)
            } else if metric == names::CPU_TIME {
                Some(cell.cpu_cost().as_secs_f64())
            } else if metric == names::COST {
                cell.avg_cost()
            } else if metric == names::SELECTIVITY {
                cell.avg_selectivity()
            } else {
                None
            };
            if let Some(v) = value {
                record_into(&mut store, slot, || metric_path(kind, &shared.name, i, metric), now, v);
            }
        }
        // Operator health is the simulator's own observability signal
        // (every real SPE exposes liveness through its supervisor API),
        // so it is reported for every engine personality.
        record_into(
            &mut store,
            &mut extra[0],
            || metric_path(kind, &shared.name, i, names::HEALTH),
            now,
            if cell.is_crashed() { 0.0 } else { 1.0 },
        );
        // Same for shed counts: overload protection is a runtime feature
        // of this simulator, visible regardless of SPE personality.
        if shared.overload.get() == OverloadMode::Shed {
            record_into(
                &mut store,
                &mut extra[1],
                || metric_path(kind, &shared.name, i, names::SHED),
                now,
                cell.in_queue().shed() as f64,
            );
        }
    }
    for ((l, sink), slot) in shared.sinks.iter().zip(sink_handles) {
        if let Some(mean) = sink.borrow().latency().mean() {
            record_into(
                &mut store,
                slot,
                || format!("{}.{}.sink{}.{}", kind.name(), shared.name, l, names::LATENCY),
                now,
                mean,
            );
        }
    }
}
