//! Multi-node entity addressing over the modeled network (rack-scale
//! deployments).
//!
//! The paper runs one Lachesis instance per server; the rack experiment
//! (figd1) goes further: a single controller instance on rack node 0
//! schedules operators on *every* node. Three pieces make that work, all of
//! them built strictly on SPE-public information (G2):
//!
//! * [`MirrorDriver`] — the controller-side driver for one remote node. It
//!   derives the topology from the same deterministic [`LogicalGraph`]s the
//!   remote node deployed (deployment is config-driven, so the controller
//!   can rebuild the physical plan bit-for-bit without talking to the
//!   node), and reads metrics from the controller's store, which a metric
//!   relay fills with the remote node's samples after the modeled network
//!   latency — the exact staleness a Graphite-backed deployment sees.
//! * [`RemoteNiceTranslator`] — translates schedules with the same
//!   normalization as the local nice translator, but emits [`RemoteCmd`]
//!   messages into an outbox instead of touching a kernel: the commands
//!   cross the modeled network and take effect one link latency later.
//! * [`CmdApplier`] — the remote node's side: maps an arriving command's
//!   `(query, op)` address back to the locally bound kernel thread and
//!   applies the nice value.
//!
//! Query indices are the address space: the controller's `MirrorDriver` and
//! the remote node's `CmdApplier` must list the same queries in the same
//! order (both are built from the same deployment config, so this is a
//! deterministic contract, asserted by name at applier construction).
//!
//! [`LogicalGraph`]: spe::LogicalGraph

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use lachesis_metrics::{EntityValues, FaultPlan, FetchError, MetricName, MetricSource, TimeSeriesStore};
use simos::{
    CallbackId, Kernel, Nice, SimDuration, SimTime, ThreadId, TraceEvent, TraceTrack,
};
use spe::{LogicalGraph, LogicalOpId, PhysOpId, PhysicalGraph, RunningQuery, SpeKind};

use crate::driver::{SeriesReader, SpeDriver};
use crate::entity::OpRef;
use crate::normalize::{to_nice_in_range, PriorityKind};
use crate::schedule::Schedule;
use crate::translate::{TranslateError, Translator};

/// A scheduling command addressed to an operator on a remote rack node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteCmd {
    /// Query index in the destination node's deployment order.
    pub query: usize,
    /// Physical operator within the query.
    pub op: PhysOpId,
    /// The nice value to apply to the operator's thread.
    pub nice: Nice,
}

/// One outgoing command: destination rack node, send time, payload.
#[derive(Debug, Clone, Copy)]
pub struct RemoteSend {
    /// Destination rack node index.
    pub dst: usize,
    /// Simulated time the controller issued the command.
    pub at: SimTime,
    /// The command itself.
    pub cmd: RemoteCmd,
}

/// Shared outbox the cluster fabric drains at each epoch barrier.
pub type CmdOutbox = Rc<RefCell<Vec<RemoteSend>>>;

/// The controller-side mirror of one remote node's deployment: query names
/// plus physical plans rebuilt from the deployment config.
#[derive(Debug)]
pub struct MirrorQuery {
    name: String,
    phys: PhysicalGraph,
}

impl MirrorQuery {
    /// Mirrors a query from its logical graph, applying the same chaining
    /// flag the remote deployment used (the physical plan is a pure
    /// function of both).
    pub fn new(graph: &LogicalGraph, chaining: bool) -> MirrorQuery {
        MirrorQuery {
            name: graph.name.clone(),
            phys: PhysicalGraph::build(graph, chaining),
        }
    }

    /// The query's name (metric-path namespace).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Physical operator count.
    pub fn op_count(&self) -> usize {
        self.phys.ops.len()
    }
}

/// A driver for queries running on a **remote** rack node.
///
/// Topology answers come from the mirrored physical plans; metric answers
/// come from the controller-local store (filled by the metric relay).
/// [`SpeDriver::thread_of`] is always `None` — the threads live in another
/// kernel — so this driver must be paired with a translator that addresses
/// operators by `(query, op)` instead, i.e. [`RemoteNiceTranslator`].
/// [`SpeDriver::queries`] is empty for the same reason; bind policies with
/// [`Scope::AllQueries`](crate::Scope::AllQueries) or
/// [`Scope::Query`](crate::Scope::Query), not `Scope::Node`.
pub struct MirrorDriver {
    label: String,
    kind: SpeKind,
    queries: Vec<MirrorQuery>,
    reader: SeriesReader,
    fence: Option<RefCell<FenceState>>,
}

/// Controller-side lease over one remote worker: fenced when the worker's
/// freshest relayed sample is older than the lease.
#[derive(Debug)]
struct FenceState {
    lease: SimDuration,
    fenced: bool,
    fences: u64,
    unfences: u64,
}

impl std::fmt::Debug for MirrorDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MirrorDriver")
            .field("label", &self.label)
            .field("kind", &self.kind)
            .field("queries", &self.queries.len())
            .finish_non_exhaustive()
    }
}

impl MirrorDriver {
    /// Creates the driver. `label` names the remote node in logs and
    /// supervisor messages (e.g. `"liebre@node3"`); `queries` must list the
    /// remote node's queries in deployment order.
    pub fn new(
        label: &str,
        kind: SpeKind,
        queries: Vec<MirrorQuery>,
        store: Rc<RefCell<TimeSeriesStore>>,
    ) -> MirrorDriver {
        MirrorDriver {
            label: label.to_owned(),
            kind,
            queries,
            reader: SeriesReader::new(kind, store),
            fence: None,
        }
    }

    /// Attaches a [`FaultPlan`] consulted on every metric fetch, exactly
    /// like [`StoreDriver::with_faults`](crate::StoreDriver::with_faults):
    /// `FetchFailure` rules error the fetch, cutoff rules shift the read
    /// cursor back in time, and point rules drop or NaN individual values.
    /// Rules match this driver's [`source_name`](MetricSource::source_name)
    /// (the `label`).
    pub fn with_faults(mut self, faults: Rc<RefCell<FaultPlan>>) -> Self {
        self.reader.set_faults(faults);
        self
    }

    /// Arms the staleness fence: once the freshest sample relayed from the
    /// worker is older than `lease`, the driver reports **no entities** —
    /// the partitioned worker leaves normalization scope, so its stale
    /// metrics cannot skew cluster-wide priorities. The fence lifts on the
    /// first fresh sample after heal; the middleware then re-applies the
    /// last schedule through the snapshot reapply path.
    pub fn with_fence(mut self, lease: SimDuration) -> Self {
        assert!(!lease.is_zero(), "a zero lease would fence immediately");
        self.fence = Some(RefCell::new(FenceState {
            lease,
            fenced: false,
            fences: 0,
            unfences: 0,
        }));
        self
    }

    /// Whether the fence is currently engaged (always `false` without
    /// [`with_fence`](MirrorDriver::with_fence)).
    pub fn fenced(&self) -> bool {
        self.fence.as_ref().is_some_and(|f| f.borrow().fenced)
    }

    /// `(fence, unfence)` transition counts.
    pub fn fence_transitions(&self) -> (u64, u64) {
        self.fence
            .as_ref()
            .map(|f| {
                let st = f.borrow();
                (st.fences, st.unfences)
            })
            .unwrap_or((0, 0))
    }

    /// The newest sample timestamp over every mirrored metric path, i.e.
    /// the last time the worker was provably alive from this side.
    fn freshest_sample(&self) -> Option<SimTime> {
        self.reader.freshest(self.address_space())
    }

    /// `(name, op_count)` of every mirrored query, in address order.
    fn address_space(&self) -> impl Iterator<Item = (&str, usize)> + Clone {
        self.queries.iter().map(|q| (q.name(), q.op_count()))
    }

    /// The mirrored queries, in address order.
    pub fn mirrored(&self) -> &[MirrorQuery] {
        &self.queries
    }
}

impl MetricSource<OpRef> for MirrorDriver {
    fn source_name(&self) -> &str {
        &self.label
    }

    fn provides(&self, metric: MetricName) -> bool {
        self.kind.exposed_metrics().contains(&metric)
    }

    fn fetch(&self, metric: MetricName) -> EntityValues<OpRef> {
        self.reader.fetch(self.address_space(), metric)
    }

    fn try_fetch(
        &self,
        metric: MetricName,
        now: SimTime,
    ) -> Result<EntityValues<OpRef>, FetchError> {
        self.reader
            .try_fetch(&self.label, self.address_space(), metric, now)
    }
}

impl SpeDriver for MirrorDriver {
    fn name(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> SpeKind {
        self.kind
    }

    fn queries(&self) -> Vec<RunningQuery> {
        // No local handles exist for remote queries; `Scope::Node` (the
        // only caller) is not meaningful across the network.
        Vec::new()
    }

    fn entities(&self) -> Vec<OpRef> {
        // A fenced worker has no schedulable entities: its operators drop
        // out of every binding's scope (and out of normalization) until
        // fresh metrics prove it is reachable again.
        if self.fenced() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (qi, q) in self.queries.iter().enumerate() {
            for op in 0..q.op_count() {
                out.push(OpRef::new(qi, op));
            }
        }
        out
    }

    fn thread_of(&self, _op: OpRef) -> Option<ThreadId> {
        None
    }

    fn refresh_fence(&self, now: SimTime) -> Option<bool> {
        let cell = self.fence.as_ref()?;
        let mut st = cell.borrow_mut();
        // No sample yet counts as "fresh at time zero": a worker gets one
        // lease of grace at startup before it can be fenced.
        let freshest = self.freshest_sample().unwrap_or(SimTime::ZERO);
        let stale = now > freshest + st.lease;
        if stale == st.fenced {
            return None;
        }
        st.fenced = stale;
        if stale {
            st.fences += 1;
        } else {
            st.unfences += 1;
        }
        Some(stale)
    }

    fn downstream(&self, op: OpRef) -> Vec<OpRef> {
        let Some(q) = self.queries.get(op.query) else {
            return Vec::new();
        };
        let mut out: Vec<OpRef> = q.phys.ops[op.op]
            .out_edges
            .iter()
            .flat_map(|e| e.targets.iter().map(|&t| OpRef::new(op.query, t)))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn physical_of(&self, query: usize, logical: LogicalOpId) -> Vec<OpRef> {
        let Some(q) = self.queries.get(query) else {
            return Vec::new();
        };
        q.phys
            .physical_of(logical)
            .iter()
            .map(|&p| OpRef::new(query, p))
            .collect()
    }

    fn logical_of(&self, op: OpRef) -> Vec<LogicalOpId> {
        self.queries
            .get(op.query)
            .map(|q| q.phys.ops[op.op].chain.clone())
            .unwrap_or_default()
    }

    fn is_egress(&self, op: OpRef) -> bool {
        self.queries
            .get(op.query)
            .is_some_and(|q| q.phys.ops[op.op].egress.is_some())
    }
}

/// Applies single-priority schedules to a remote node by emitting nice
/// commands onto the modeled network.
///
/// Normalization is identical to the local
/// [`NiceTranslator`](crate::NiceTranslator) (same default `[-5, 5]`
/// range), so a rack node managed remotely converges to the same nice
/// assignment it would get from a node-local Lachesis instance — just one
/// link latency later.
#[derive(Debug)]
pub struct RemoteNiceTranslator {
    dst: usize,
    lo: i32,
    hi: i32,
    outbox: CmdOutbox,
}

impl RemoteNiceTranslator {
    /// Creates a translator addressing rack node `dst`, emitting into the
    /// cluster's shared `outbox`.
    pub fn new(dst: usize, outbox: CmdOutbox) -> RemoteNiceTranslator {
        RemoteNiceTranslator {
            dst,
            lo: -5,
            hi: 5,
            outbox,
        }
    }

    /// Overrides the target nice range.
    ///
    /// # Panics
    ///
    /// Panics unless `-20 <= lo < hi <= 19`.
    pub fn with_range(mut self, lo: i32, hi: i32) -> Self {
        assert!((-20..=19).contains(&lo) && (-20..=19).contains(&hi) && lo < hi);
        self.lo = lo;
        self.hi = hi;
        self
    }
}

impl Translator for RemoteNiceTranslator {
    fn name(&self) -> &str {
        "remote-nice"
    }

    fn apply(
        &mut self,
        kernel: &mut Kernel,
        _driver: &dyn SpeDriver,
        schedule: &Schedule,
        kind: PriorityKind,
    ) -> Result<(), TranslateError> {
        let Schedule::Single(s) = schedule else {
            return Err(TranslateError::WrongFormat {
                translator: "remote-nice",
                expected: "single-priority",
            });
        };
        if s.is_empty() {
            return Ok(());
        }
        let values = s.values();
        let nices = to_nice_in_range(&values, kind, self.lo, self.hi);
        let now = kernel.now();
        let mut outbox = self.outbox.borrow_mut();
        for ((op, _), nice) in s.iter().zip(nices) {
            outbox.push(RemoteSend {
                dst: self.dst,
                at: now,
                cmd: RemoteCmd {
                    query: op.query,
                    op: op.op,
                    nice,
                },
            });
        }
        Ok(())
    }
}

/// Emits a supervisor-track instant for a lease transition, so every
/// engage/expire is reconstructible from the trace alone.
fn emit_lease(kernel: &mut Kernel, name: &'static str, node: usize) {
    if let Some(t) = kernel.trace_sink() {
        let now = kernel.now();
        t.borrow_mut().push(
            now,
            TraceEvent::Instant {
                track: TraceTrack::Supervisor,
                name,
                args: vec![("node", node as f64)],
            },
        );
    }
}

/// Worker-side view of the controller lease: every arriving command is a
/// heartbeat; silence longer than the interval means the controller (or
/// the network to it) is gone and the worker must stop trusting its last
/// schedule.
#[derive(Debug)]
struct LeaseState {
    rack_id: usize,
    interval: SimDuration,
    last_heard: SimTime,
    engaged: bool,
    expirations: u64,
    engagements: u64,
}

/// The receiving side: resolves arriving [`RemoteCmd`]s against the node's
/// locally deployed queries and applies them to the bound kernel threads.
#[derive(Debug)]
pub struct CmdApplier {
    queries: Vec<RunningQuery>,
    applied: u64,
    skipped: u64,
    lease: Option<LeaseState>,
}

impl CmdApplier {
    /// Creates an applier over the node's queries **in deployment order** —
    /// the same order the controller's [`MirrorDriver`] lists them.
    pub fn new(queries: Vec<RunningQuery>) -> CmdApplier {
        CmdApplier {
            queries,
            applied: 0,
            skipped: 0,
            lease: None,
        }
    }

    /// Arms the controller lease for this worker (`rack_id` labels trace
    /// instants). Every arriving command renews the lease; when
    /// [`check_lease`](CmdApplier::check_lease) finds it expired — no
    /// command for longer than `interval` — the worker reverts all of its
    /// query threads to CFS defaults (`nice` 0, `cpu.shares` 1024): a
    /// partitioned worker runs the schedule the SPE would have without
    /// Lachesis rather than a frozen, increasingly wrong one. The lease
    /// starts **disengaged** (the worker is born at CFS defaults) and
    /// engages on the first command.
    pub fn with_lease(mut self, rack_id: usize, interval: SimDuration) -> Self {
        self.arm_lease(rack_id, interval);
        self
    }

    /// In-place form of [`with_lease`](CmdApplier::with_lease), for
    /// appliers already shared behind an `Rc<RefCell<..>>` (cluster
    /// harnesses arm the lease after the node's queries deploy).
    pub fn arm_lease(&mut self, rack_id: usize, interval: SimDuration) {
        assert!(!interval.is_zero(), "a zero lease would expire immediately");
        self.lease = Some(LeaseState {
            rack_id,
            interval,
            last_heard: SimTime::ZERO,
            engaged: false,
            expirations: 0,
            engagements: 0,
        });
    }

    /// The lease interval, if a lease is armed.
    pub fn lease_interval(&self) -> Option<SimDuration> {
        self.lease.as_ref().map(|l| l.interval)
    }

    /// Whether the lease is currently engaged (commands are flowing).
    pub fn lease_engaged(&self) -> bool {
        self.lease.as_ref().is_some_and(|l| l.engaged)
    }

    /// `(engagements, expirations)` of the lease so far.
    pub fn lease_transitions(&self) -> (u64, u64) {
        self.lease
            .as_ref()
            .map(|l| (l.engagements, l.expirations))
            .unwrap_or((0, 0))
    }

    /// Checks the lease against the kernel clock and, on expiry, reverts
    /// every query thread to CFS defaults. Called periodically by
    /// [`install_lease_guard`]; a no-op without an armed lease or while
    /// commands keep arriving.
    pub fn check_lease(&mut self, kernel: &mut Kernel) {
        let now = kernel.now();
        let expired = self
            .lease
            .as_ref()
            .is_some_and(|l| l.engaged && now > l.last_heard + l.interval);
        if !expired {
            return;
        }
        let rack_id = {
            let l = self.lease.as_mut().expect("expired lease exists");
            l.engaged = false;
            l.expirations += 1;
            l.rack_id
        };
        emit_lease(kernel, "lease_expire", rack_id);
        self.revert_to_cfs(kernel);
    }

    /// Resets every query thread to `nice` 0 and every non-root cgroup the
    /// threads run in to the default 1024 `cpu.shares` — the schedule the
    /// SPE would have without Lachesis. Best-effort, like the controller's
    /// own CFS fallback.
    pub fn revert_to_cfs(&mut self, kernel: &mut Kernel) {
        let nice0 = Nice::new(0).expect("nice 0 is always valid");
        let mut reset_groups: HashSet<simos::CgroupId> = HashSet::new();
        for q in &self.queries {
            for c in q.cells() {
                let Some(tid) = c.thread() else { continue };
                let _ = kernel.set_nice(tid, nice0);
                let (Ok(node), Ok(cgroup)) = (kernel.thread_node(tid), kernel.thread_cgroup(tid))
                else {
                    continue;
                };
                let node_root = kernel.node_root(node).ok();
                if Some(cgroup) != node_root && reset_groups.insert(cgroup) {
                    let _ = kernel.set_cpu_shares(cgroup, simos::DEFAULT_CPU_SHARES);
                }
            }
        }
    }

    /// Asserts the address space matches a mirror's (names, positions and
    /// operator counts) — catches deployment-order drift at startup rather
    /// than as silently misdirected commands.
    pub fn check_against(&self, mirrored: &[MirrorQuery]) {
        assert_eq!(self.queries.len(), mirrored.len(), "query count mismatch");
        for (local, mirror) in self.queries.iter().zip(mirrored) {
            assert_eq!(local.name(), mirror.name(), "query order mismatch");
            assert_eq!(
                local.op_count(),
                mirror.op_count(),
                "physical plan mismatch for {}",
                local.name()
            );
        }
    }

    /// Applies one arriving command. Commands for unknown addresses or
    /// unbound threads (an operator mid-restart after a crash) are counted
    /// in [`skipped`](CmdApplier::skipped) and dropped — the controller
    /// resends a fresh schedule every period anyway.
    pub fn apply(&mut self, kernel: &mut Kernel, cmd: RemoteCmd) {
        // Any command — even one for a dead address — is a heartbeat from
        // the controller: renew the lease, and re-engage if it had expired
        // (the controller resends its full schedule every period, so the
        // commands arriving now rebuild the schedule the partition wiped).
        let engage = if let Some(l) = &mut self.lease {
            l.last_heard = kernel.now();
            let engage = !l.engaged;
            if engage {
                l.engaged = true;
                l.engagements += 1;
            }
            engage
        } else {
            false
        };
        if engage {
            let rack_id = self.lease.as_ref().expect("lease exists").rack_id;
            emit_lease(kernel, "lease_engage", rack_id);
        }
        let tid = self
            .queries
            .get(cmd.query)
            .filter(|q| cmd.op < q.op_count())
            .and_then(|q| q.cell(cmd.op).thread());
        match tid {
            Some(tid) if kernel.set_nice(tid, cmd.nice).is_ok() => self.applied += 1,
            _ => self.skipped += 1,
        }
    }

    /// Commands successfully applied.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Commands dropped (unknown address or unbound thread).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}

/// Installs the periodic lease check for a worker's [`CmdApplier`]: every
/// half lease interval, [`CmdApplier::check_lease`] runs against the
/// worker's kernel clock, so an expiry is detected at most 1.5 intervals
/// after the last command was heard (expiry itself happens at one
/// interval; the probe period bounds the detection lag).
///
/// # Panics
///
/// Panics if the applier has no lease armed (see
/// [`CmdApplier::with_lease`]).
pub fn install_lease_guard(
    kernel: &mut Kernel,
    applier: Rc<RefCell<CmdApplier>>,
) -> CallbackId {
    let interval = applier
        .borrow()
        .lease_interval()
        .expect("install_lease_guard needs an armed lease");
    let period = SimDuration::from_nanos((interval.as_nanos() / 2).max(1));
    kernel.schedule_periodic(period, period, move |k| {
        applier.borrow_mut().check_lease(k);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SinglePrioritySchedule;
    use simos::SimDuration;
    use spe::{metric_path, CostModel, EngineConfig, Partitioning, Placement, Role};

    fn graph(name: &str) -> LogicalGraph {
        let mut b = LogicalGraph::builder(name);
        let src = b.op("src", Role::Ingress, CostModel::micros(50), 1, || {
            Box::new(spe::PassThrough)
        });
        let sink = b.op("sink", Role::Egress, CostModel::micros(50), 1, || {
            Box::new(spe::Consume)
        });
        b.edge(src, sink, Partitioning::Forward);
        b.source("gen", src, 100.0, |seq, now| spe::Tuple::new(now, seq, vec![]));
        b.build().unwrap()
    }

    #[test]
    fn mirror_matches_local_topology() {
        let g = graph("q0");
        let mirror = MirrorQuery::new(&g, true);
        let store = Rc::new(RefCell::new(TimeSeriesStore::new(SimDuration::from_secs(1))));
        let driver = MirrorDriver::new("liebre@node1", SpeKind::Liebre, vec![mirror], store);
        let ents = driver.entities();
        assert!(!ents.is_empty());
        assert!(driver.thread_of(ents[0]).is_none());
        assert!(driver.is_egress(*ents.last().unwrap()));
    }

    #[test]
    fn mirror_reads_relayed_metrics() {
        let g = graph("q0");
        let store = Rc::new(RefCell::new(TimeSeriesStore::new(SimDuration::from_secs(1))));
        let t = SimTime::ZERO + SimDuration::from_secs(2);
        store.borrow_mut().record(
            &metric_path(SpeKind::Liebre, "q0", 0, lachesis_metrics::names::QUEUE_SIZE),
            t,
            17.0,
        );
        let driver =
            MirrorDriver::new("liebre@node1", SpeKind::Liebre, vec![MirrorQuery::new(&g, true)], store);
        let vals = driver.fetch(lachesis_metrics::names::QUEUE_SIZE);
        assert_eq!(vals.get(&OpRef::new(0, 0)), Some(17.0));
    }

    #[test]
    fn remote_translator_emits_commands() {
        let outbox: CmdOutbox = Rc::new(RefCell::new(Vec::new()));
        let mut tr = RemoteNiceTranslator::new(3, Rc::clone(&outbox));
        let g = graph("q0");
        let store = Rc::new(RefCell::new(TimeSeriesStore::new(SimDuration::from_secs(1))));
        let driver =
            MirrorDriver::new("liebre@node3", SpeKind::Liebre, vec![MirrorQuery::new(&g, true)], store);
        let mut s = SinglePrioritySchedule::new();
        s.set(OpRef::new(0, 0), 10.0);
        s.set(OpRef::new(0, 1), 1.0);
        let mut kernel = Kernel::default();
        tr.apply(&mut kernel, &driver, &Schedule::Single(s), PriorityKind::Linear)
            .unwrap();
        let sent = outbox.borrow();
        assert_eq!(sent.len(), 2);
        assert!(sent.iter().all(|s| s.dst == 3));
        // Higher priority → lower (better) nice.
        let by_op: std::collections::HashMap<_, _> =
            sent.iter().map(|s| (s.cmd.op, s.cmd.nice.value())).collect();
        assert!(by_op[&0] < by_op[&1]);
    }

    #[test]
    fn applier_applies_and_skips() {
        let mut kernel = Kernel::default();
        let node = kernel.add_node("n", 2);
        let g = graph("q0");
        let mirror = MirrorQuery::new(&g, EngineConfig::liebre().chaining);
        let query = spe::deploy(
            &mut kernel,
            g,
            EngineConfig::liebre(),
            &Placement::single(node),
            None,
        )
        .unwrap();
        let mut applier = CmdApplier::new(vec![query.clone()]);
        applier.check_against(std::slice::from_ref(&mirror));
        let nice = Nice::new(-3).unwrap();
        applier.apply(&mut kernel, RemoteCmd { query: 0, op: 0, nice });
        assert_eq!(applier.applied(), 1);
        let tid = query.cell(0).thread().unwrap();
        assert_eq!(kernel.thread_info(tid).unwrap().nice, nice);
        // Unknown address: counted, not fatal.
        applier.apply(&mut kernel, RemoteCmd { query: 9, op: 0, nice });
        assert_eq!(applier.skipped(), 1);
    }

    #[test]
    fn lease_expires_to_cfs_and_reengages_on_next_command() {
        let mut kernel = Kernel::default();
        let node = kernel.add_node("n", 2);
        let query = spe::deploy(
            &mut kernel,
            graph("q0"),
            EngineConfig::liebre(),
            &Placement::single(node),
            None,
        )
        .unwrap();
        let applier = Rc::new(RefCell::new(
            CmdApplier::new(vec![query.clone()]).with_lease(1, SimDuration::from_secs(2)),
        ));
        install_lease_guard(&mut kernel, Rc::clone(&applier));

        // First command engages the lease and applies its nice.
        let boost = Nice::new(-4).unwrap();
        applier
            .borrow_mut()
            .apply(&mut kernel, RemoteCmd { query: 0, op: 0, nice: boost });
        assert!(applier.borrow().lease_engaged());
        assert_eq!(applier.borrow().lease_transitions(), (1, 0));
        let tid = query.cell(0).thread().unwrap();
        assert_eq!(kernel.thread_info(tid).unwrap().nice, boost);

        // Silence past the interval: the guard reverts to CFS defaults.
        kernel.run_for(SimDuration::from_secs(4));
        assert!(!applier.borrow().lease_engaged());
        assert_eq!(applier.borrow().lease_transitions(), (1, 1));
        assert_eq!(kernel.thread_info(tid).unwrap().nice.value(), 0);

        // The controller comes back: the next command re-engages.
        applier
            .borrow_mut()
            .apply(&mut kernel, RemoteCmd { query: 0, op: 0, nice: boost });
        assert!(applier.borrow().lease_engaged());
        assert_eq!(applier.borrow().lease_transitions(), (2, 1));
        assert_eq!(kernel.thread_info(tid).unwrap().nice, boost);
    }

    #[test]
    fn fence_trips_on_stale_metrics_and_lifts_on_fresh_ones() {
        let g = graph("q0");
        let store = Rc::new(RefCell::new(TimeSeriesStore::new(SimDuration::from_secs(1))));
        let path = metric_path(SpeKind::Liebre, "q0", 0, lachesis_metrics::names::QUEUE_SIZE);
        let driver = MirrorDriver::new(
            "liebre@node1",
            SpeKind::Liebre,
            vec![MirrorQuery::new(&g, true)],
            Rc::clone(&store),
        )
        .with_fence(SimDuration::from_secs(3));
        let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);

        // Startup grace: no sample yet, within one lease of t=0.
        assert_eq!(driver.refresh_fence(at(2)), None);
        assert!(!driver.fenced());
        assert!(!driver.entities().is_empty());

        // A sample at t=2 keeps the fence open at t=4...
        store.borrow_mut().record(&path, at(2), 5.0);
        assert_eq!(driver.refresh_fence(at(4)), None);
        // ...but by t=6 the sample is older than the lease: fenced, and
        // the driver's entities vanish from scheduling scope.
        assert_eq!(driver.refresh_fence(at(6)), Some(true));
        assert!(driver.fenced());
        assert!(driver.entities().is_empty());
        // No repeated transition while still stale.
        assert_eq!(driver.refresh_fence(at(7)), None);

        // Heal: a fresh sample lifts the fence exactly once.
        store.borrow_mut().record(&path, at(8), 6.0);
        assert_eq!(driver.refresh_fence(at(9)), Some(false));
        assert!(!driver.fenced());
        assert!(!driver.entities().is_empty());
        assert_eq!(driver.fence_transitions(), (1, 1));
    }
}
