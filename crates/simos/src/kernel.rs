//! The simulated kernel: nodes, CPUs, threads, cgroups, timers and the
//! discrete-event CFS scheduling loop.
//!
//! One [`Kernel`] simulates one or more machines (*nodes*) sharing a single
//! simulated clock. Each node has its own CPUs and its own cgroup tree;
//! scheduling never crosses nodes (matching the paper's scale-out setup of
//! independent devices, §6.5).
//!
//! # Scheduling model
//!
//! Per node, ready entities wait in per-cgroup runqueues ordered by virtual
//! runtime. Idle CPUs repeatedly pick the hierarchically minimum-vruntime
//! thread. A running thread is charged `Δt · 1024 / weight` vruntime at the
//! thread level and `Δt · 1024 / cpu.shares` at every enclosing group level,
//! so CPU time divides by nice weights within groups and by `cpu.shares`
//! across groups — the two mechanisms Lachesis' translators drive. Dispatches
//! of a different thread than the CPU ran before pay a context-switch cost,
//! wake-ups receive a bounded vruntime bonus, and time slices shrink as load
//! grows, all mirroring CFS behaviour that matters for the paper's results.

use std::collections::VecDeque;
use std::fmt;

use crate::body::{Action, SimCtx, ThreadBody};
use crate::calendar::EventCalendar;
use crate::cgroup::{clamp_shares, CgroupData, CgroupInfo, DEFAULT_CPU_SHARES};
use crate::ids::{CallbackId, CgroupId, CpuId, DeferCallId, NodeId, ThreadId, WaitId};
use crate::nice::{Nice, NICE_0_WEIGHT};
use crate::runqueue::Entity;
use crate::thread::{ThreadData, ThreadInfo, ThreadState};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceBuffer, TraceEvent, TraceHandle};

/// Tunable scheduler parameters (defaults approximate Linux CFS).
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// CPU cost charged when a CPU switches to a different thread.
    pub ctx_switch_cost: SimDuration,
    /// Target latency: every ready thread should run within this span.
    pub sched_latency: SimDuration,
    /// Minimum timeslice regardless of load.
    pub min_granularity: SimDuration,
    /// Maximum vruntime credit granted to a waking thread.
    pub wakeup_bonus: SimDuration,
    /// A woken thread preempts a running same-group thread whose vruntime
    /// exceeds the woken thread's by more than this (CFS
    /// `sched_wakeup_granularity`).
    pub wakeup_granularity: SimDuration,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            ctx_switch_cost: SimDuration::from_micros(5),
            sched_latency: SimDuration::from_millis(6),
            min_granularity: SimDuration::from_micros(750),
            wakeup_bonus: SimDuration::from_millis(3),
            wakeup_granularity: SimDuration::from_millis(1),
        }
    }
}

/// Errors returned by kernel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The thread id is unknown.
    UnknownThread(ThreadId),
    /// The cgroup id is unknown.
    UnknownCgroup(CgroupId),
    /// The node id is unknown.
    UnknownNode(NodeId),
    /// The operation would move a thread across nodes.
    CrossNode {
        /// The thread that was to be moved.
        thread: ThreadId,
        /// The target cgroup, which lives on a different node.
        cgroup: CgroupId,
    },
    /// The target thread has exited.
    ThreadExited(ThreadId),
    /// The CPU index is out of range for the node (hotplug).
    UnknownCpu {
        /// The node the CPU was looked up on.
        node: NodeId,
        /// The out-of-range CPU index.
        cpu: usize,
    },
    /// Taking this CPU offline would leave its node with no online CPU.
    LastOnlineCpu(NodeId),
    /// A fault hook injected a failure into this operation (fault testing;
    /// see [`Kernel::set_fault_hook`]). Models transient syscall / cgroupfs
    /// write errors, so callers should treat it as retryable.
    InjectedFault {
        /// The kernel operation that failed (e.g. `"set_nice"`).
        op: &'static str,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::UnknownThread(t) => write!(f, "unknown thread {t}"),
            KernelError::UnknownCgroup(c) => write!(f, "unknown cgroup {c}"),
            KernelError::UnknownNode(n) => write!(f, "unknown node {n}"),
            KernelError::CrossNode { thread, cgroup } => {
                write!(f, "thread {thread} and cgroup {cgroup} are on different nodes")
            }
            KernelError::ThreadExited(t) => write!(f, "thread {t} has exited"),
            KernelError::UnknownCpu { node, cpu } => {
                write!(f, "node {node} has no cpu {cpu}")
            }
            KernelError::LastOnlineCpu(n) => {
                write!(f, "cannot offline the last online cpu of node {n}")
            }
            KernelError::InjectedFault { op } => write!(f, "injected fault in {op}"),
        }
    }
}

impl std::error::Error for KernelError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TimerKind {
    Wake(ThreadId),
    Callback(CallbackId),
    /// A deferred internal effect ([`SimCtx::defer`], e.g. a network
    /// delivery). Fires like a one-shot callback but skips the
    /// accounting sync user callbacks get: deferred effects move tuples
    /// and wake threads, they do not observe scheduler statistics.
    Defer(CallbackId),
    Unthrottle(CgroupId),
}

/// A timer-like event due at the current instant, from either the calendar
/// or the defer FIFO, tagged with its tie-break sequence number.
enum DueTimer {
    Kind(TimerKind),
    Defer(DeferOp),
}

/// A deferred internal effect: either a one-shot boxed closure, or one
/// firing of a persistent [`Kernel::register_defer_call`] handler. The
/// `Call` form exists for the hot path — a remote tuple delivery happens
/// millions of times per run, and a per-event `Box` allocation (plus the
/// captured payload move) dwarfs the work the closure actually does.
pub(crate) enum DeferOp {
    Boxed(Box<dyn FnOnce(&mut Kernel)>),
    Call(DeferCallId),
}

/// A queued deferred effect: (due instant, calendar tie-break seq, effect).
type DeferEntry = (SimTime, u64, DeferOp);

/// A persistent deferred-effect handler ([`Kernel::register_defer_call`]).
type DeferCall = Box<dyn FnMut(&mut Kernel)>;

// Per-CPU slice/completion expiries are NOT calendar entries: each CPU
// stores its own `due` instant and the main loop takes the minimum over
// the (at most a few dozen) CPUs directly. Dispatch re-arms a CPU every
// block/wake cycle, so routing those through the heap would double the
// heap traffic with entries that mostly go stale before firing; a field
// write plus a linear scan is cheaper and leaves the calendar holding
// only timers.

/// A callback's code. One-shots are stored unboxed-by-wrapper (`FnOnce`
/// directly) so the per-tuple network-transfer path pays a single
/// allocation, and their slot is recycled after firing.
enum CallbackFn {
    Recurring(Box<dyn FnMut(&mut Kernel)>),
    Once(Box<dyn FnOnce(&mut Kernel)>),
}

struct CallbackEntry {
    f: Option<CallbackFn>,
    period: Option<SimDuration>,
    cancelled: bool,
    /// Incremented each time the slot is recycled; a [`CallbackId`] whose
    /// generation no longer matches refers to an already-finished one-shot
    /// and is ignored.
    gen: u32,
}

/// Packs a callback slot index and its generation into a raw id.
fn callback_id(slot: usize, gen: u32) -> CallbackId {
    CallbackId::from_u64((gen as u64) << 32 | slot as u64)
}

/// Splits a raw callback id into `(slot, generation)`.
fn callback_slot(id: CallbackId) -> (usize, u32) {
    let raw = id.as_u64();
    ((raw & 0xFFFF_FFFF) as usize, (raw >> 32) as u32)
}

#[derive(Debug, Clone, Copy)]
struct Cpu {
    current: Option<ThreadId>,
    slice_end: SimTime,
    last_thread: Option<ThreadId>,
    busy: SimDuration,
    /// Whether the CPU participates in dispatch (CPU hotplug). Offline
    /// CPUs never receive threads and count as neither busy nor idle.
    online: bool,
    /// Instant up to which the running thread has been charged. CPU time
    /// is charged lazily, only when this CPU's own event fires (or an
    /// observer needs consistent state), not on every global advance.
    last_charged: SimTime,
    /// Bumped whenever the CPU is freed or re-armed; a same-instant event
    /// batch records the generation each due CPU was collected under and
    /// skips it if an earlier settle or throttle changed it since.
    gen: u64,
    /// Instant the running thread's compute finishes or its slice expires,
    /// whichever is earlier ([`SimTime::MAX`] when idle / unarmed).
    due: SimTime,
}

#[derive(Debug)]
struct NodeData {
    #[allow(dead_code)]
    id: NodeId,
    name: String,
    cpus: Vec<Cpu>,
    root: CgroupId,
    /// Ready real-time threads: key = (255 - rt_priority, fifo seq, tid),
    /// so `first()` is the highest-priority, longest-waiting RT thread.
    rt_queue: std::collections::BTreeSet<(u8, u64, ThreadId)>,
    /// Ready + running threads on this node.
    nr_active: u64,
    ctx_switches: u64,
    overhead: SimDuration,
    busy: SimDuration,
    idle: SimDuration,
    /// Time during which at least one runnable thread was waiting for a
    /// CPU (the kernel's PSI "some" CPU pressure — §8 future work 4).
    stalled: SimDuration,
    /// Thread-weighted runqueue waiting time: each accounting interval
    /// contributes `Δt · waiting_threads`, so dividing by wall time gives
    /// the average runqueue depth.
    rq_wait: SimDuration,
    /// Instant up to which busy/idle/stalled have been accumulated; the
    /// interval since is accounted lazily before any state change.
    last_accounted: SimTime,
    /// CPUs currently running a thread (kept incrementally so lazy
    /// accounting is O(1) per node).
    occupied: u64,
    /// Whether the node is already on the dispatch worklist.
    dirty: bool,
}

/// Cumulative per-node scheduling statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStats {
    /// Node name.
    pub name: String,
    /// Number of CPUs.
    pub cpus: usize,
    /// Total CPU-busy time summed over CPUs.
    pub busy: SimDuration,
    /// Total CPU-idle time summed over CPUs.
    pub idle: SimDuration,
    /// Number of context switches (dispatches of a different thread).
    pub ctx_switches: u64,
    /// CPU time lost to context-switch overhead.
    pub overhead: SimDuration,
    /// Currently ready + running threads.
    pub nr_active: u64,
    /// Wall time during which at least one runnable thread waited for a
    /// CPU — Linux's pressure stall information, `cpu some` (PSI).
    pub stalled: SimDuration,
    /// Thread-weighted runqueue waiting time (`Σ Δt · waiting_threads`);
    /// see [`NodeStats::avg_runqueue_depth`].
    pub rq_wait: SimDuration,
}

impl NodeStats {
    /// Fraction of total CPU capacity spent busy, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let total = self.busy.as_nanos() + self.idle.as_nanos();
        if total == 0 {
            0.0
        } else {
            self.busy.as_nanos() as f64 / total as f64
        }
    }

    /// Fraction of wall time with CPU pressure (PSI `cpu some`): at least
    /// one runnable thread was stalled waiting for a processor. A direct
    /// bottleneck indicator, per the paper's future-work item 4 (§8).
    pub fn cpu_pressure_some(&self) -> f64 {
        let cpus = self.cpus.max(1) as u64;
        let wall = (self.busy.as_nanos() + self.idle.as_nanos()) / cpus;
        if wall == 0 {
            0.0
        } else {
            self.stalled.as_nanos() as f64 / wall as f64
        }
    }

    /// Average number of runnable threads waiting for a CPU over the
    /// node's lifetime (time-weighted runqueue depth).
    pub fn avg_runqueue_depth(&self) -> f64 {
        let cpus = self.cpus.max(1) as u64;
        let wall = (self.busy.as_nanos() + self.idle.as_nanos()) / cpus;
        if wall == 0 {
            0.0
        } else {
            self.rq_wait.as_nanos() as f64 / wall as f64
        }
    }
}

/// The simulated kernel. See the crate docs for the scheduling model.
///
/// # Examples
///
/// ```
/// use simos::{FixedWork, Kernel, SimDuration};
///
/// let mut kernel = Kernel::default();
/// let node = kernel.add_node("n0", 1);
/// let tid = kernel
///     .spawn(node, "worker", FixedWork::new(SimDuration::from_millis(1), 3))
///     .build();
/// kernel.run_for(SimDuration::from_millis(10));
/// // 3ms of work plus the context-switch cost of the first dispatch.
/// let cputime = kernel.thread_info(tid).unwrap().cputime;
/// assert!(cputime >= SimDuration::from_millis(3));
/// assert!(cputime < SimDuration::from_millis(4));
/// ```
pub struct Kernel {
    now: SimTime,
    config: KernelConfig,
    threads: Vec<ThreadData>,
    cgroups: Vec<CgroupData>,
    nodes: Vec<NodeData>,
    /// Blocked threads by wait channel, indexed by the (dense) [`WaitId`].
    /// Buffers are kept and reused so the block/wake cycle every tuple
    /// transfer goes through never allocates.
    waiters: Vec<Vec<ThreadId>>,
    calendar: EventCalendar<TimerKind>,
    callbacks: Vec<CallbackEntry>,
    /// Recycled one-shot callback slots.
    free_callbacks: Vec<usize>,
    /// Persistent deferred-effect handlers ([`Kernel::register_defer_call`]),
    /// indexed by [`DeferCallId`]. `None` while a handler is on the call
    /// stack (taken out to fire, put back after).
    defer_calls: Vec<Option<DeferCall>>,
    next_wait: u64,
    next_seq: u64,
    invoke_guard: Vec<(SimTime, u32)>,
    fault_hook: Option<FaultHook>,
    /// Installed trace sink, if any. Every emission site is guarded by a
    /// single `is_some` check, so tracing costs one branch when disabled.
    tracer: Option<TraceHandle>,
    /// FIFO worklist of node indexes whose runqueues or CPUs changed and
    /// need a dispatch pass.
    dispatch_worklist: VecDeque<usize>,
    /// Scratch buffers for same-instant event batches (reused to avoid
    /// allocating in the hot loop).
    due_cpus: Vec<(usize, usize, u64)>,
    due_timers: Vec<(u64, DueTimer)>,
    /// In-flight deferred effects ([`SimCtx::defer`]), FIFO-ordered.
    /// Defer delays are almost always one constant (the network delay), so
    /// due times are nondecreasing and a plain queue replaces per-event
    /// heap churn; each entry carries a sequence number from the
    /// calendar's tie-break space so same-instant ordering against real
    /// calendar events is preserved. An out-of-order defer (shorter delay
    /// while longer ones are pending) falls back to the calendar.
    defer_fifo: VecDeque<DeferEntry>,
    /// Per-node minimum over the CPUs' `due` instants, maintained at every
    /// `due` mutation. Stored contiguously (not in `NodeData`) so the main
    /// loop's next-event lookup and due-CPU collection read one small array
    /// instead of touching every node's cache lines each iteration.
    node_min_due: Vec<SimTime>,
    /// Thread whose settle (body invocation) is on the call stack right
    /// now. Lazy charging lets a quota throttle fire mid-settle; the
    /// throttle must not enqueue this thread out from under the settle.
    settling: Option<ThreadId>,
    /// CPUs chosen by in-flight [`place_thread`](Kernel::place_thread)
    /// frames whose occupants are still running their bodies (so
    /// `current` is `None` but the CPU is spoken for). A re-entrant
    /// fast-path wake must not grab any of them — wake chains nest
    /// placements (A's body wakes B, B's delivery wakes C), and every
    /// frame on the stack still holds its reservation, so this is a
    /// stack, pushed/popped around each placement.
    reserving: Vec<(usize, usize)>,
    /// Nesting depth of fast-path wake placements on the call stack. Each
    /// level runs a body inside `wake`, so a same-instant wake chain
    /// recurses; past the cap we fall back to the worklist to bound stack
    /// growth.
    fast_wake_depth: u32,
    /// True once any cgroup ever had a CPU quota: wake-time preemption
    /// checks must then commit charges eagerly (a charge may throttle a
    /// group mid-wake). Without quotas they run on speculative vruntimes.
    quota_in_use: bool,
    /// Instant `sync_accounting` last ran; repeat syncs at the same instant
    /// (several callbacks firing together) are no-ops and skipped.
    synced_at: SimTime,
    loop_iters: u64,
    /// Recycled effect buffers handed to each body invocation.
    ctx_wakes: Vec<WaitId>,
    ctx_deferred: Vec<crate::body::Deferred>,
}

/// Decides whether a mutating kernel operation fails at the given instant
/// (`true` = inject [`KernelError::InjectedFault`]).
pub type FaultHook = Box<dyn FnMut(&'static str, SimTime) -> bool>;

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new(KernelConfig::default())
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("threads", &self.threads.len())
            .field("cgroups", &self.cgroups.len())
            .field("nodes", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

/// Builder returned by [`Kernel::spawn`]; finish with [`build`](SpawnBuilder::build).
pub struct SpawnBuilder<'k> {
    kernel: &'k mut Kernel,
    node: NodeId,
    name: String,
    body: Box<dyn ThreadBody>,
    cgroup: Option<CgroupId>,
    nice: Nice,
}

impl fmt::Debug for SpawnBuilder<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpawnBuilder")
            .field("node", &self.node)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl SpawnBuilder<'_> {
    /// Places the thread in `cgroup` instead of the node's root group.
    pub fn cgroup(mut self, cgroup: CgroupId) -> Self {
        self.cgroup = Some(cgroup);
        self
    }

    /// Starts the thread with the given nice level.
    pub fn nice(mut self, nice: Nice) -> Self {
        self.nice = nice;
        self
    }

    /// Creates the thread in the `Ready` state and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the chosen cgroup belongs to a different node.
    pub fn build(self) -> ThreadId {
        let SpawnBuilder {
            kernel,
            node,
            name,
            body,
            cgroup,
            nice,
        } = self;
        let cgroup = cgroup.unwrap_or(kernel.nodes[node.0 as usize].root);
        assert_eq!(
            kernel.cgroups[cgroup.0 as usize].node, node,
            "spawn: cgroup {cgroup} is not on node {node}"
        );
        let id = ThreadId(kernel.threads.len() as u64);
        let seq = kernel.alloc_seq();
        let start_vr = kernel.cgroups[cgroup.0 as usize].min_vruntime;
        kernel.threads.push(ThreadData {
            id,
            name,
            node,
            cgroup,
            nice,
            rt_priority: None,
            state: ThreadState::Ready,
            vruntime: start_vr,
            seq,
            body: Some(body),
            remaining: SimDuration::ZERO,
            cputime: SimDuration::ZERO,
            dispatches: 0,
            last_ran: kernel.now,
        });
        kernel.invoke_guard.push((SimTime::MAX, 0));
        kernel.nodes[node.0 as usize].nr_active += 1;
        kernel.enqueue_thread(id, false);
        id
    }
}

#[allow(missing_docs)]
impl Kernel {
    /// Creates an empty kernel with the given scheduler configuration.
    pub fn new(config: KernelConfig) -> Self {
        Kernel {
            now: SimTime::ZERO,
            config,
            threads: Vec::new(),
            cgroups: Vec::new(),
            nodes: Vec::new(),
            waiters: Vec::new(),
            calendar: EventCalendar::new(),
            callbacks: Vec::new(),
            free_callbacks: Vec::new(),
            next_wait: 0,
            next_seq: 0,
            invoke_guard: Vec::new(),
            fault_hook: None,
            tracer: None,
            dispatch_worklist: VecDeque::new(),
            defer_calls: Vec::new(),
            due_cpus: Vec::new(),
            due_timers: Vec::new(),
            defer_fifo: VecDeque::new(),
            node_min_due: Vec::new(),
            settling: None,
            reserving: Vec::new(),
            fast_wake_depth: 0,
            quota_in_use: false,
            synced_at: SimTime::MAX,
            loop_iters: 0,
            ctx_wakes: Vec::new(),
            ctx_deferred: Vec::new(),
        }
    }

    /// Installs a fault hook consulted by the mutating scheduler-control
    /// operations (`set_nice`, `set_cpu_shares`, `create_cgroup`,
    /// `move_to_cgroup`, `set_rt_priority`, `set_cpu_quota`). When the hook
    /// returns `true` for `(operation, now)`, the call fails with
    /// [`KernelError::InjectedFault`] without mutating any state. Replaces
    /// any previously installed hook.
    pub fn set_fault_hook(&mut self, hook: impl FnMut(&'static str, SimTime) -> bool + 'static) {
        self.fault_hook = Some(Box::new(hook));
    }

    /// Removes the installed fault hook, if any.
    pub fn clear_fault_hook(&mut self) {
        self.fault_hook = None;
    }

    /// Installs a trace sink: from now on every scheduling decision
    /// (dispatches, wake-ups, blocks, preemptions, slice expiries, nice /
    /// shares / cgroup changes) is appended to the buffer as a structured
    /// [`TraceEvent`]. Upper layers (SPE runtime, middleware) clone the
    /// handle via [`trace_sink`](Kernel::trace_sink) so all layers share
    /// one totally ordered stream. Replaces any previous sink.
    pub fn set_trace_sink(&mut self, sink: TraceHandle) {
        self.tracer = Some(sink);
    }

    /// Creates and installs a trace buffer (`capacity = None` for
    /// unbounded, `Some(n)` for a ring keeping the most recent `n`
    /// records) and returns a handle to it.
    pub fn install_tracing(&mut self, capacity: Option<usize>) -> TraceHandle {
        let buffer = match capacity {
            Some(n) => TraceBuffer::ring(n),
            None => TraceBuffer::unbounded(),
        };
        let handle = buffer.into_handle();
        self.tracer = Some(handle.clone());
        handle
    }

    /// Removes the installed trace sink, if any.
    pub fn clear_trace_sink(&mut self) {
        self.tracer = None;
    }

    /// The installed trace sink, if any.
    pub fn trace_sink(&self) -> Option<&TraceHandle> {
        self.tracer.as_ref()
    }

    /// Appends an event to the trace sink, if one is installed. The
    /// closure only runs when tracing is on, so disabled-path cost is the
    /// `is_some` branch.
    #[inline]
    fn emit(&self, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.tracer {
            sink.borrow_mut().push(self.now, event());
        }
    }

    /// Consults the fault hook before a mutating control operation.
    fn fault_check(&mut self, op: &'static str) -> Result<(), KernelError> {
        let now = self.now;
        if let Some(hook) = self.fault_hook.as_mut() {
            if hook(op, now) {
                return Err(KernelError::InjectedFault { op });
            }
        }
        Ok(())
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The active scheduler configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    // ------------------------------------------------------------------
    // Topology
    // ------------------------------------------------------------------

    /// Adds a machine with `cpus` processors and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn add_node(&mut self, name: &str, cpus: usize) -> NodeId {
        assert!(cpus > 0, "a node needs at least one CPU");
        let node = NodeId(self.nodes.len() as u64);
        let root = CgroupId(self.cgroups.len() as u64);
        let seq = self.alloc_seq();
        self.cgroups.push(CgroupData::new(
            root,
            format!("{name}/"),
            node,
            None,
            DEFAULT_CPU_SHARES,
            seq,
        ));
        let now = self.now;
        self.node_min_due.push(SimTime::MAX);
        self.nodes.push(NodeData {
            id: node,
            name: name.to_owned(),
            cpus: vec![
                Cpu {
                    current: None,
                    slice_end: SimTime::MAX,
                    last_thread: None,
                    busy: SimDuration::ZERO,
                    online: true,
                    last_charged: now,
                    gen: 0,
                    due: SimTime::MAX,
                };
                cpus
            ],
            root,
            rt_queue: std::collections::BTreeSet::new(),
            nr_active: 0,
            ctx_switches: 0,
            overhead: SimDuration::ZERO,
            busy: SimDuration::ZERO,
            idle: SimDuration::ZERO,
            stalled: SimDuration::ZERO,
            rq_wait: SimDuration::ZERO,
            last_accounted: now,
            occupied: 0,
            dirty: false,
        });
        node
    }

    /// Returns the root cgroup of a node.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownNode`] for an id not handed out by
    /// [`add_node`](Kernel::add_node).
    pub fn node_root(&self, node: NodeId) -> Result<CgroupId, KernelError> {
        self.nodes
            .get(node.0 as usize)
            .map(|n| n.root)
            .ok_or(KernelError::UnknownNode(node))
    }

    /// Number of nodes in this simulation.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Cumulative scheduling statistics for a node.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownNode`] for an unknown id.
    pub fn node_stats(&self, node: NodeId) -> Result<NodeStats, KernelError> {
        let n = self
            .nodes
            .get(node.0 as usize)
            .ok_or(KernelError::UnknownNode(node))?;
        Ok(NodeStats {
            name: n.name.clone(),
            cpus: n.cpus.len(),
            busy: n.busy,
            idle: n.idle,
            ctx_switches: n.ctx_switches,
            overhead: n.overhead,
            nr_active: n.nr_active,
            stalled: n.stalled,
            rq_wait: n.rq_wait,
        })
    }

    /// Cumulative per-CPU busy time for a node, indexed by CPU.
    ///
    /// Reflects charges up to the last accounting sweep; inside a user
    /// callback (which runs after the kernel's accounting sync) it is
    /// exact.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownNode`] for an unknown id.
    pub fn cpu_busy(&self, node: NodeId) -> Result<Vec<SimDuration>, KernelError> {
        let n = self
            .nodes
            .get(node.0 as usize)
            .ok_or(KernelError::UnknownNode(node))?;
        Ok(n.cpus.iter().map(|c| c.busy).collect())
    }

    /// Number of runnable threads currently waiting for a CPU on a node.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownNode`] for an unknown id.
    pub fn runqueue_depth(&self, node: NodeId) -> Result<u64, KernelError> {
        let n = self
            .nodes
            .get(node.0 as usize)
            .ok_or(KernelError::UnknownNode(node))?;
        Ok(n.nr_active.saturating_sub(n.occupied))
    }

    // ------------------------------------------------------------------
    // CPU hotplug
    // ------------------------------------------------------------------

    /// Takes a CPU offline (hotplug), migrating its occupant — if any —
    /// back onto the node's shared runqueue, where it keeps its vruntime
    /// and cgroup membership and any surviving CPU picks it up at the next
    /// dispatch. Emits [`TraceEvent::Preempt`] + [`TraceEvent::Migration`]
    /// for the displaced thread and [`TraceEvent::CpuOffline`] for the CPU.
    ///
    /// Idempotent: offlining an already-offline CPU is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownNode`] / [`KernelError::UnknownCpu`]
    /// for bad ids and [`KernelError::LastOnlineCpu`] when the CPU is the
    /// node's last online one (a node must keep at least one processor).
    pub fn offline_cpu(&mut self, node: NodeId, cpu: usize) -> Result<(), KernelError> {
        let node_idx = node.0 as usize;
        let n = self
            .nodes
            .get(node_idx)
            .ok_or(KernelError::UnknownNode(node))?;
        if cpu >= n.cpus.len() {
            return Err(KernelError::UnknownCpu { node, cpu });
        }
        if !n.cpus[cpu].online {
            return Ok(());
        }
        let survivors = n
            .cpus
            .iter()
            .enumerate()
            .filter(|&(i, c)| i != cpu && c.online)
            .count();
        if survivors == 0 {
            return Err(KernelError::LastOnlineCpu(node));
        }
        self.account_node(node_idx);
        // Preempting charges the occupant up to now and re-enqueues it on
        // its cgroup's runqueue — relative vruntime order and group
        // membership survive because runqueues are per-node, not per-CPU.
        let migrated = self.nodes[node_idx].cpus[cpu].current;
        if migrated.is_some() {
            self.preempt_running(node_idx, cpu);
        }
        {
            let c = &mut self.nodes[node_idx].cpus[cpu];
            c.online = false;
            c.last_thread = None;
            c.slice_end = SimTime::MAX;
            c.gen += 1; // invalidates any collected due batch
            c.due = SimTime::MAX;
        }
        self.refresh_min_due(node_idx);
        if let Some(tid) = migrated {
            let cgroup = self.threads[tid.0 as usize].cgroup;
            self.emit(|| TraceEvent::Migration { tid, cgroup });
        }
        self.emit(|| TraceEvent::CpuOffline { node: node.0, cpu });
        self.mark_dirty(node_idx);
        Ok(())
    }

    /// Brings a previously offline CPU back into dispatch. Idempotent;
    /// emits [`TraceEvent::CpuOnline`].
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownNode`] / [`KernelError::UnknownCpu`]
    /// for bad ids.
    pub fn online_cpu(&mut self, node: NodeId, cpu: usize) -> Result<(), KernelError> {
        let node_idx = node.0 as usize;
        let n = self
            .nodes
            .get(node_idx)
            .ok_or(KernelError::UnknownNode(node))?;
        if cpu >= n.cpus.len() {
            return Err(KernelError::UnknownCpu { node, cpu });
        }
        if n.cpus[cpu].online {
            return Ok(());
        }
        self.account_node(node_idx);
        let now = self.now;
        {
            let c = &mut self.nodes[node_idx].cpus[cpu];
            debug_assert!(c.current.is_none(), "offline cpu had an occupant");
            c.online = true;
            c.last_charged = now;
            c.gen += 1;
        }
        self.emit(|| TraceEvent::CpuOnline { node: node.0, cpu });
        self.mark_dirty(node_idx);
        Ok(())
    }

    /// Whether a CPU is currently online.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownNode`] / [`KernelError::UnknownCpu`]
    /// for bad ids.
    pub fn cpu_online(&self, node: NodeId, cpu: usize) -> Result<bool, KernelError> {
        let n = self
            .nodes
            .get(node.0 as usize)
            .ok_or(KernelError::UnknownNode(node))?;
        n.cpus
            .get(cpu)
            .map(|c| c.online)
            .ok_or(KernelError::UnknownCpu { node, cpu })
    }

    /// Number of online CPUs on a node.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownNode`] for an unknown id.
    pub fn online_cpus(&self, node: NodeId) -> Result<usize, KernelError> {
        let n = self
            .nodes
            .get(node.0 as usize)
            .ok_or(KernelError::UnknownNode(node))?;
        Ok(n.cpus.iter().filter(|c| c.online).count())
    }

    /// Schedules a CPU-offline event on the calendar, `delay` from now
    /// (the deterministic way to script hotplug into an experiment).
    /// Failures at fire time (bad ids, last online CPU) are ignored — the
    /// fault simply does not happen, mirroring a hotplug request the
    /// kernel refused.
    pub fn schedule_cpu_offline(&mut self, delay: SimDuration, node: NodeId, cpu: usize) {
        self.schedule_once(delay, move |k| {
            let _ = k.offline_cpu(node, cpu);
        });
    }

    /// Schedules a CPU-online event on the calendar, `delay` from now.
    /// Failures at fire time are ignored, like
    /// [`schedule_cpu_offline`](Kernel::schedule_cpu_offline).
    pub fn schedule_cpu_online(&mut self, delay: SimDuration, node: NodeId, cpu: usize) {
        self.schedule_once(delay, move |k| {
            let _ = k.online_cpu(node, cpu);
        });
    }

    // ------------------------------------------------------------------
    // Cgroups
    // ------------------------------------------------------------------

    /// Creates a child cgroup of `parent` with the given `cpu.shares`.
    ///
    /// Shares are clamped into `[MIN_CPU_SHARES, MAX_CPU_SHARES]`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownCgroup`] if `parent` is unknown.
    pub fn create_cgroup(
        &mut self,
        parent: CgroupId,
        name: &str,
        shares: u64,
    ) -> Result<CgroupId, KernelError> {
        self.fault_check("create_cgroup")?;
        let (node, full_name, start_vr) = {
            let parent_data = self
                .cgroups
                .get(parent.0 as usize)
                .ok_or(KernelError::UnknownCgroup(parent))?;
            (
                parent_data.node,
                format!("{}{}/", parent_data.name, name),
                parent_data.min_vruntime,
            )
        };
        let id = CgroupId(self.cgroups.len() as u64);
        let seq = self.alloc_seq();
        let mut data = CgroupData::new(id, full_name, node, Some(parent), clamp_shares(shares), seq);
        data.vruntime = start_vr;
        self.cgroups.push(data);
        self.cgroups[parent.0 as usize].children.push(id);
        Ok(id)
    }

    /// Updates a cgroup's `cpu.shares` (clamped into the accepted range).
    ///
    /// Takes effect from the current instant onward.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownCgroup`] for an unknown id.
    pub fn set_cpu_shares(&mut self, cgroup: CgroupId, shares: u64) -> Result<(), KernelError> {
        self.fault_check("set_cpu_shares")?;
        let cg = self
            .cgroups
            .get_mut(cgroup.0 as usize)
            .ok_or(KernelError::UnknownCgroup(cgroup))?;
        let clamped = clamp_shares(shares);
        cg.shares = clamped;
        self.emit(|| TraceEvent::SharesChange {
            cgroup,
            shares: clamped,
        });
        Ok(())
    }

    /// Read-only view of a cgroup.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownCgroup`] for an unknown id.
    pub fn cgroup_info(&self, cgroup: CgroupId) -> Result<CgroupInfo, KernelError> {
        let cg = self
            .cgroups
            .get(cgroup.0 as usize)
            .ok_or(KernelError::UnknownCgroup(cgroup))?;
        Ok(CgroupInfo {
            id: cg.id,
            name: cg.name.clone(),
            node: cg.node,
            parent: cg.parent,
            children: cg.children.clone(),
            shares: cg.shares,
            cputime: cg.cputime,
            quota: cg.quota.map(|q| (q.quota, q.period)),
            throttled: cg.throttled,
        })
    }

    /// Moves a thread into `cgroup`, re-normalizing its vruntime.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown ids, exited threads, or a cgroup on a
    /// different node than the thread.
    pub fn move_to_cgroup(&mut self, tid: ThreadId, cgroup: CgroupId) -> Result<(), KernelError> {
        self.fault_check("move_to_cgroup")?;
        let t = self
            .threads
            .get(tid.0 as usize)
            .ok_or(KernelError::UnknownThread(tid))?;
        let cg = self
            .cgroups
            .get(cgroup.0 as usize)
            .ok_or(KernelError::UnknownCgroup(cgroup))?;
        if t.state == ThreadState::Exited {
            return Err(KernelError::ThreadExited(tid));
        }
        if t.node != cg.node {
            return Err(KernelError::CrossNode {
                thread: tid,
                cgroup,
            });
        }
        let old = t.cgroup;
        if old == cgroup {
            return Ok(());
        }
        let was_ready = t.state == ThreadState::Ready;
        if was_ready {
            self.dequeue_ready_thread(tid);
        }
        // Re-base the vruntime: keep the thread's lag relative to its old
        // group and re-apply it in the new group (what Linux does on
        // migration between cfs_rqs). The lag is clamped to one scheduling
        // period in either direction — EEVDF-style bounded lag. Unbounded
        // carry-over compounds across repeated moves through groups whose
        // min_vruntime floors drifted apart (a zero-share group inflates
        // its floor at NICE_0_WEIGHT/shares times wall rate), and a thread
        // arriving with seconds of banked negative lag starves its new
        // siblings until the bank drains.
        let period = self.config.sched_latency.as_nanos() as i128;
        let old_min = self.cgroups[old.0 as usize].min_vruntime;
        let new_min = self.cgroups[cgroup.0 as usize].min_vruntime;
        let t = &mut self.threads[tid.0 as usize];
        let lag = (t.vruntime as i128 - old_min as i128).clamp(-period, period);
        t.vruntime = (new_min as i128 + lag).max(0) as u64;
        t.cgroup = cgroup;
        self.emit(|| TraceEvent::Migration { tid, cgroup });
        if was_ready {
            self.enqueue_thread(tid, false);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Threads
    // ------------------------------------------------------------------

    /// Starts building a thread on `node`; finish with
    /// [`SpawnBuilder::build`].
    ///
    /// # Panics
    ///
    /// `build` panics if `node` is unknown or the chosen cgroup is on a
    /// different node.
    pub fn spawn(
        &mut self,
        node: NodeId,
        name: &str,
        body: impl ThreadBody + 'static,
    ) -> SpawnBuilder<'_> {
        assert!(
            (node.0 as usize) < self.nodes.len(),
            "spawn: unknown node {node}"
        );
        SpawnBuilder {
            kernel: self,
            node,
            name: name.to_owned(),
            body: Box::new(body),
            cgroup: None,
            nice: Nice::DEFAULT,
        }
    }

    /// Changes a thread's nice level; takes effect from now onward.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown or exited threads.
    pub fn set_nice(&mut self, tid: ThreadId, nice: Nice) -> Result<(), KernelError> {
        self.fault_check("set_nice")?;
        let t = self
            .threads
            .get_mut(tid.0 as usize)
            .ok_or(KernelError::UnknownThread(tid))?;
        if t.state == ThreadState::Exited {
            return Err(KernelError::ThreadExited(tid));
        }
        t.nice = nice;
        self.emit(|| TraceEvent::NiceChange {
            tid,
            nice: nice.value(),
        });
        Ok(())
    }

    /// Moves a thread into or out of the real-time (SCHED_FIFO-like) band.
    ///
    /// RT threads always run before any CFS thread of their node, ordered
    /// by priority (higher first) then FIFO, and are never timesliced —
    /// a CPU-bound RT thread starves CFS threads, exactly like on Linux.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown or exited threads.
    pub fn set_rt_priority(
        &mut self,
        tid: ThreadId,
        priority: Option<u8>,
    ) -> Result<(), KernelError> {
        self.fault_check("set_rt_priority")?;
        let t = self
            .threads
            .get(tid.0 as usize)
            .ok_or(KernelError::UnknownThread(tid))?;
        if t.state == ThreadState::Exited {
            return Err(KernelError::ThreadExited(tid));
        }
        if t.rt_priority == priority {
            return Ok(());
        }
        let state = t.state;
        if state == ThreadState::Ready {
            self.dequeue_ready_thread(tid);
        }
        let leaving_rt = self.threads[tid.0 as usize].rt_priority.is_some() && priority.is_none();
        self.threads[tid.0 as usize].rt_priority = priority;
        if leaving_rt {
            // The vruntime went stale while in the RT band; rejoin CFS at
            // the group's current floor so the thread neither hogs nor
            // starves.
            let g = self.threads[tid.0 as usize].cgroup;
            let floor = self.cgroups[g.0 as usize].min_vruntime;
            let t = &mut self.threads[tid.0 as usize];
            if t.vruntime < floor {
                t.vruntime = floor;
            }
        }
        match state {
            ThreadState::Ready => self.enqueue_thread(tid, false),
            ThreadState::Running(_) => {
                // Force a re-dispatch under the new class.
                for node_idx in 0..self.nodes.len() {
                    for cpu_idx in 0..self.nodes[node_idx].cpus.len() {
                        if self.nodes[node_idx].cpus[cpu_idx].current == Some(tid) {
                            self.preempt_running(node_idx, cpu_idx);
                        }
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Sets (or clears) a cgroup CPU quota: the group's threads may consume
    /// at most `quota` of CPU time per `period`; once exhausted, the whole
    /// group is throttled until the window ends (CFS bandwidth control).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownCgroup`] for an unknown id.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero when setting a quota.
    pub fn set_cpu_quota(
        &mut self,
        cgroup: CgroupId,
        quota: Option<(SimDuration, SimDuration)>,
    ) -> Result<(), KernelError> {
        self.fault_check("set_cpu_quota")?;
        let now = self.now;
        let cg = self
            .cgroups
            .get_mut(cgroup.0 as usize)
            .ok_or(KernelError::UnknownCgroup(cgroup))?;
        match quota {
            Some((q, period)) => {
                assert!(!period.is_zero(), "quota period must be > 0");
                cg.quota = Some(crate::cgroup::QuotaState {
                    quota: q,
                    period,
                    window_start: now,
                    usage: SimDuration::ZERO,
                });
                self.quota_in_use = true;
            }
            None => {
                cg.quota = None;
                if cg.throttled {
                    self.unthrottle(cgroup);
                }
            }
        }
        Ok(())
    }

    /// Adds `delta` to a group's quota window, throttling on overrun.
    fn account_quota(&mut self, cgroup: CgroupId, delta: SimDuration) {
        let now = self.now;
        let resume = {
            let Some(q) = self.cgroups[cgroup.0 as usize].quota.as_mut() else {
                return;
            };
            while now >= q.window_start + q.period {
                q.window_start += q.period;
                q.usage = SimDuration::ZERO;
            }
            q.usage += delta;
            if q.usage >= q.quota {
                Some(q.window_start + q.period)
            } else {
                None
            }
        };
        if let Some(resume) = resume {
            if !self.cgroups[cgroup.0 as usize].throttled {
                self.throttle(cgroup, resume);
            }
        }
    }

    /// Throttles a group: removes its entity from the parent runqueue,
    /// preempts its running threads, and schedules the unthrottle timer.
    fn throttle(&mut self, cgroup: CgroupId, resume: SimTime) {
        let node_idx = self.cgroups[cgroup.0 as usize].node.0 as usize;
        self.account_node(node_idx);
        self.cgroups[cgroup.0 as usize].throttled = true;
        // Preempt running descendants (they re-queue inside the subtree,
        // unreachable until unthrottled).
        for node_idx in 0..self.nodes.len() {
            for cpu_idx in 0..self.nodes[node_idx].cpus.len() {
                let Some(cur) = self.nodes[node_idx].cpus[cpu_idx].current else {
                    continue;
                };
                if self.settling == Some(cur) {
                    // Lazy charging lets a throttle trigger while this
                    // thread's settle (body invocation) is on the stack;
                    // enqueueing it here would leave it both queued and
                    // mid-settle. It is parked at its next slice boundary
                    // instead.
                    continue;
                }
                if self.is_descendant(self.threads[cur.0 as usize].cgroup, cgroup) {
                    self.preempt_running(node_idx, cpu_idx);
                }
            }
        }
        // Hide the subtree from the scheduler.
        if self.cgroups[cgroup.0 as usize].queued {
            let parent = self.cgroups[cgroup.0 as usize]
                .parent
                .expect("queued group has a parent");
            let (vr, seq, ent) = self.group_entity_key(cgroup);
            self.cgroups[parent.0 as usize].rq.remove(vr, seq, ent);
            self.cgroups[cgroup.0 as usize].queued = false;
            self.cascade_dequeue(parent);
        }
        self.calendar
            .insert(resume, TimerKind::Unthrottle(cgroup));
    }

    /// Lifts a throttle: re-links the group into the runqueue tree.
    fn unthrottle(&mut self, cgroup: CgroupId) {
        let node_idx = self.cgroups[cgroup.0 as usize].node.0 as usize;
        self.account_node(node_idx);
        self.cgroups[cgroup.0 as usize].throttled = false;
        if let Some(q) = self.cgroups[cgroup.0 as usize].quota.as_mut() {
            let now = self.now;
            while now >= q.window_start + q.period {
                q.window_start += q.period;
                q.usage = SimDuration::ZERO;
            }
        }
        if !self.cgroups[cgroup.0 as usize].rq.is_empty()
            && !self.cgroups[cgroup.0 as usize].queued
        {
            // Re-enter the parent runqueue (and cascade upward).
            let mut child = cgroup;
            while let Some(parent) = self.cgroups[child.0 as usize].parent {
                if self.cgroups[child.0 as usize].queued
                    || self.cgroups[child.0 as usize].throttled
                {
                    break;
                }
                let floor = self.cgroups[parent.0 as usize].min_vruntime;
                let c = &mut self.cgroups[child.0 as usize];
                if c.vruntime < floor {
                    c.vruntime = floor;
                }
                let (vr, seq, ent) = self.group_entity_key(child);
                self.cgroups[parent.0 as usize].rq.insert(vr, seq, ent);
                self.cgroups[child.0 as usize].queued = true;
                child = parent;
            }
        }
        self.mark_dirty(node_idx);
    }

    /// Whether `cgroup` is `ancestor` or nested below it.
    fn is_descendant(&self, mut cgroup: CgroupId, ancestor: CgroupId) -> bool {
        loop {
            if cgroup == ancestor {
                return true;
            }
            match self.cgroups[cgroup.0 as usize].parent {
                Some(p) => cgroup = p,
                None => return false,
            }
        }
    }

    /// Read-only view of a thread.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownThread`] for an unknown id.
    pub fn thread_info(&self, tid: ThreadId) -> Result<ThreadInfo, KernelError> {
        let t = self
            .threads
            .get(tid.0 as usize)
            .ok_or(KernelError::UnknownThread(tid))?;
        Ok(ThreadInfo {
            id: t.id,
            name: t.name.clone(),
            node: t.node,
            cgroup: t.cgroup,
            nice: t.nice,
            rt_priority: t.rt_priority,
            state: t.state,
            cputime: t.cputime,
            dispatches: t.dispatches,
        })
    }

    /// The node a thread runs on: [`thread_info`](Kernel::thread_info)'s
    /// `node` without copying the thread's name.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownThread`] for an unknown id.
    pub fn thread_node(&self, tid: ThreadId) -> Result<NodeId, KernelError> {
        self.threads
            .get(tid.0 as usize)
            .map(|t| t.node)
            .ok_or(KernelError::UnknownThread(tid))
    }

    /// The cgroup enclosing a thread: [`thread_info`](Kernel::thread_info)'s
    /// `cgroup` without copying the thread's name.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownThread`] for an unknown id.
    pub fn thread_cgroup(&self, tid: ThreadId) -> Result<CgroupId, KernelError> {
        self.threads
            .get(tid.0 as usize)
            .map(|t| t.cgroup)
            .ok_or(KernelError::UnknownThread(tid))
    }

    /// Ids of all threads ever spawned (including exited ones).
    pub fn thread_ids(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.threads.iter().map(|t| t.id)
    }

    // ------------------------------------------------------------------
    // Wait channels & timers
    // ------------------------------------------------------------------

    /// Allocates a new wait channel.
    pub fn new_wait_channel(&mut self) -> WaitId {
        let id = WaitId(self.next_wait);
        self.next_wait += 1;
        if self.waiters.len() < self.next_wait as usize {
            self.waiters.resize_with(self.next_wait as usize, Vec::new);
        }
        id
    }

    /// Wakes every thread currently blocked on `channel`.
    pub fn wake(&mut self, channel: WaitId) {
        let ch = channel.0 as usize;
        if ch >= self.waiters.len() || self.waiters[ch].is_empty() {
            return;
        }
        let mut list = std::mem::take(&mut self.waiters[ch]);
        list.retain(|&tid| self.threads[tid.0 as usize].state == ThreadState::Blocked(channel));
        // Single-waiter wake onto an idle CPU skips the runqueue entirely.
        // The fast path runs the woken body, which may re-block threads on
        // this very channel — recycle the buffer only if none did.
        if list.len() == 1 && self.try_fast_wake(list[0]) {
            if self.waiters[ch].is_empty() {
                list.clear();
                self.waiters[ch] = list;
            }
            return;
        }
        for &tid in &list {
            let node = self.threads[tid.0 as usize].node;
            self.nodes[node.0 as usize].nr_active += 1;
            self.enqueue_thread(tid, true);
        }
        // Preemption checks are batched after all enqueues, with at most
        // one preemption per node per wake batch: once a node yields a
        // CPU it has an idle processor, so any further check there would
        // see it and no-op anyway.
        let mut preempted: Vec<usize> = Vec::new();
        for &tid in &list {
            let node_idx = self.threads[tid.0 as usize].node.0 as usize;
            if preempted.contains(&node_idx) {
                continue;
            }
            if self.maybe_preempt(tid) {
                preempted.push(node_idx);
            }
        }
        // Nothing above runs thread bodies, so no one can have re-blocked
        // on the channel meanwhile; give the buffer back for reuse.
        debug_assert!(self.waiters[ch].is_empty());
        list.clear();
        self.waiters[ch] = list;
    }

    /// CFS wake-up preemption: if a running thread of the *same* cgroup is
    /// far enough ahead in vruntime, it is put back on the runqueue so the
    /// woken thread can take the CPU at the next dispatch. This is the
    /// mechanism through which nice priorities shape batching: a heavily
    /// weighted producer accrues vruntime slowly and resists preemption by
    /// the light consumers it wakes, so it runs in long efficient bursts.
    ///
    /// Returns `true` when a running thread was preempted.
    fn maybe_preempt(&mut self, woken: ThreadId) -> bool {
        // A woken RT thread preempts any CFS thread (or a lower-priority RT
        // thread) immediately when no CPU is idle.
        if let Some(prio) = self.threads[woken.0 as usize].rt_priority {
            let node = self.threads[woken.0 as usize].node;
            if self.nodes[node.0 as usize]
                .cpus
                .iter()
                .any(|c| c.online && c.current.is_none())
            {
                return false;
            }
            let victim = (0..self.nodes[node.0 as usize].cpus.len()).find(|&i| {
                // Offline CPUs have no occupant and are no dispatch target.
                let Some(cur) = self.nodes[node.0 as usize].cpus[i].current else {
                    return false;
                };
                // A thread at a completion boundary (remaining == 0) is
                // being settled right now; preempting it here would leave
                // it both queued and mid-settle.
                if self.threads[cur.0 as usize].remaining.is_zero() {
                    return false;
                }
                match self.threads[cur.0 as usize].rt_priority {
                    None => true,
                    Some(p) => p < prio,
                }
            });
            if let Some(cpu_idx) = victim {
                self.preempt_running(node.0 as usize, cpu_idx);
                return true;
            }
            return false;
        }
        let (group, node, wvr, weight) = {
            let w = &self.threads[woken.0 as usize];
            if w.state != ThreadState::Ready {
                return false;
            }
            (w.cgroup, w.node, w.vruntime, w.nice.weight())
        };
        let node_idx = node.0 as usize;
        // Like Linux's select_idle_sibling: a woken thread starts on an
        // idle CPU when one exists; preemption only matters under load.
        if self.nodes[node_idx]
            .cpus
            .iter()
            .any(|c| c.online && c.current.is_none())
        {
            return false;
        }
        if self.quota_in_use {
            // Eager path: bring same-group running threads' charges up to
            // date, because a charge may throttle their group and free its
            // CPUs — the woken thread then starts on one of those instead
            // of preempting.
            for cpu_idx in 0..self.nodes[node_idx].cpus.len() {
                let Some(cur) = self.nodes[node_idx].cpus[cpu_idx].current else {
                    continue;
                };
                if self.threads[cur.0 as usize].cgroup == group {
                    self.charge_cpu(node_idx, cpu_idx);
                }
            }
            if self.nodes[node_idx]
                .cpus
                .iter()
                .any(|c| c.online && c.current.is_none())
            {
                return false;
            }
        }
        // The granularity is scaled by the woken thread's weight (CFS
        // `wakeup_gran`): light threads must lag further behind before
        // they may preempt, heavy threads preempt sooner.
        let gran = match self.config.wakeup_granularity.as_nanos().checked_mul(NICE_0_WEIGHT) {
            Some(p) => p / weight,
            None => (self.config.wakeup_granularity.as_nanos() as u128 * NICE_0_WEIGHT as u128
                / weight as u128) as u64,
        };
        let now = self.now;
        let mut best: Option<(usize, u64)> = None;
        for (cpu_idx, cpu) in self.nodes[node_idx].cpus.iter().enumerate() {
            let Some(cur) = cpu.current else { continue };
            let c = &self.threads[cur.0 as usize];
            if c.cgroup != group {
                continue; // vruntimes of different runqueues don't compare
            }
            // Candidates are charged lazily; evaluate them as if charged
            // up to now (same decision as an eager charge, without the
            // cgroup hierarchy walk — only the chosen victim pays one).
            let lag = now - cpu.last_charged;
            if c.remaining.saturating_sub(lag).is_zero() {
                // Completion boundary: the settle loop is driving this
                // thread right now; preempting would double-queue it.
                continue;
            }
            let mut vr = c.vruntime;
            if !lag.is_zero() && c.rt_priority.is_none() {
                vr += Kernel::weighted_vruntime(lag.as_nanos(), c.nice.weight());
            }
            if vr > wvr.saturating_add(gran) && best.is_none_or(|(_, d)| vr - wvr > d) {
                best = Some((cpu_idx, vr - wvr));
            }
        }
        if let Some((cpu_idx, _)) = best {
            self.preempt_running(node_idx, cpu_idx);
            return true;
        }
        false
    }

    /// Schedules `f` to run once after `delay`.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnMut(&mut Kernel) + 'static,
    ) -> CallbackId {
        self.schedule_internal(delay, None, CallbackFn::Recurring(Box::new(f)))
    }

    /// Schedules `f` to run after `delay` and then every `period`.
    ///
    /// # Examples
    ///
    /// ```
    /// use simos::{Kernel, SimDuration};
    /// use std::{cell::RefCell, rc::Rc};
    ///
    /// let mut kernel = Kernel::default();
    /// let ticks = Rc::new(RefCell::new(0));
    /// let t = Rc::clone(&ticks);
    /// kernel.schedule_periodic(
    ///     SimDuration::from_secs(1),
    ///     SimDuration::from_secs(1),
    ///     move |_kernel| *t.borrow_mut() += 1,
    /// );
    /// kernel.run_for(SimDuration::from_secs(5));
    /// assert_eq!(*ticks.borrow(), 5);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn schedule_periodic(
        &mut self,
        delay: SimDuration,
        period: SimDuration,
        f: impl FnMut(&mut Kernel) + 'static,
    ) -> CallbackId {
        assert!(!period.is_zero(), "periodic callback period must be > 0");
        self.schedule_internal(delay, Some(period), CallbackFn::Recurring(Box::new(f)))
    }

    fn schedule_internal(
        &mut self,
        delay: SimDuration,
        period: Option<SimDuration>,
        f: CallbackFn,
    ) -> CallbackId {
        let id = self.alloc_callback(period, f);
        self.calendar
            .insert(self.now + delay, TimerKind::Callback(id));
        id
    }

    /// Registers a persistent deferred-effect handler and returns its id.
    ///
    /// The handler fires once per [`SimCtx::defer_call`] scheduling it,
    /// after the given delay, with full kernel access — like
    /// [`SimCtx::defer`], but the closure is allocated once here instead
    /// of once per event. Callers queue the per-event payload themselves
    /// (e.g. a network queue buffers in-flight tuples in arrival order and
    /// its handler delivers exactly one per firing). Handlers live for the
    /// kernel's lifetime.
    pub fn register_defer_call(
        &mut self,
        f: impl FnMut(&mut Kernel) + 'static,
    ) -> DeferCallId {
        self.defer_calls.push(Some(Box::new(f)));
        DeferCallId((self.defer_calls.len() - 1) as u64)
    }

    /// Fires one registered deferred-effect handler. The handler is taken
    /// out of its slot for the duration of the call so it can borrow the
    /// kernel mutably; re-entrant firings of the *same* handler are a bug
    /// in the caller (a handler never defers to itself with zero delay).
    fn run_defer_call(&mut self, id: DeferCallId) {
        let slot = id.0 as usize;
        let mut f = self.defer_calls[slot]
            .take()
            .expect("defer-call handler fired re-entrantly");
        f(self);
        self.defer_calls[slot] = Some(f);
    }

    /// Schedules a deferred internal effect (see [`TimerKind::Defer`]).
    ///
    /// Fast path: appended to `defer_fifo` when its due time is no earlier
    /// than the FIFO's tail (the common case — a single constant network
    /// delay makes due times nondecreasing). Out-of-order defers go through
    /// the calendar instead, which handles arbitrary times.
    fn push_defer(&mut self, delay: SimDuration, op: DeferOp) {
        let at = self.now + delay;
        if self.defer_fifo.back().is_some_and(|&(t, _, _)| t > at) {
            let f: Box<dyn FnOnce(&mut Kernel)> = match op {
                DeferOp::Boxed(f) => f,
                DeferOp::Call(id) => Box::new(move |k: &mut Kernel| k.run_defer_call(id)),
            };
            let id = self.alloc_callback(None, CallbackFn::Once(f));
            self.calendar
                .insert(at, TimerKind::Defer(id));
        } else {
            let seq = self.calendar.reserve_seq().seq();
            self.defer_fifo.push_back((at, seq, op));
        }
    }

    fn alloc_callback(&mut self, period: Option<SimDuration>, f: CallbackFn) -> CallbackId {
        let slot = match self.free_callbacks.pop() {
            Some(slot) => {
                let e = &mut self.callbacks[slot];
                e.f = Some(f);
                e.period = period;
                e.cancelled = false;
                slot
            }
            None => {
                self.callbacks.push(CallbackEntry {
                    f: Some(f),
                    period,
                    cancelled: false,
                    gen: 0,
                });
                self.callbacks.len() - 1
            }
        };
        callback_id(slot, self.callbacks[slot].gen)
    }

    /// Cancels a scheduled callback; pending firings are skipped.
    pub fn cancel_callback(&mut self, id: CallbackId) {
        let (slot, gen) = callback_slot(id);
        if let Some(cb) = self.callbacks.get_mut(slot) {
            if cb.gen == gen {
                cb.cancelled = true;
                cb.f = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Scheduler internals
    // ------------------------------------------------------------------

    fn thread_entity_key(&self, tid: ThreadId) -> (u64, u64, Entity) {
        let t = &self.threads[tid.0 as usize];
        (t.vruntime, t.seq, Entity::Thread(tid))
    }

    fn group_entity_key(&self, cg: CgroupId) -> (u64, u64, Entity) {
        let g = &self.cgroups[cg.0 as usize];
        (g.vruntime, g.seq, Entity::Group(cg))
    }

    /// Puts a ready thread into its cgroup's runqueue, cascading group
    /// entities up to the root as needed. `wakeup` grants the bounded
    /// vruntime bonus.
    fn enqueue_thread(&mut self, tid: ThreadId, wakeup: bool) {
        // The enqueue changes runqueue emptiness (the PSI condition) and
        // creates dispatchable work: account the interval up to now first
        // and put the node on the dispatch worklist.
        let node_idx = self.threads[tid.0 as usize].node.0 as usize;
        self.account_node(node_idx);
        self.mark_dirty(node_idx);
        if wakeup {
            self.emit(|| TraceEvent::Wake { tid });
        }
        if let Some(prio) = self.threads[tid.0 as usize].rt_priority {
            let node = self.threads[tid.0 as usize].node;
            let seq = self.alloc_seq();
            self.threads[tid.0 as usize].state = ThreadState::Ready;
            self.nodes[node.0 as usize]
                .rt_queue
                .insert((255 - prio, seq, tid));
            return;
        }
        // Bounded negative lag: an entity re-enters the queue no further
        // than one margin behind the group's floor. Wakeups get the small
        // wakeup-bonus margin (sleeper credit); requeues get a full
        // scheduling period. In healthy operation a runnable entity never
        // trails `min_vruntime` (it is the monotonic min over runnables),
        // so the floor is a no-op — it binds only when a sibling running
        // on another CPU of the shared node runqueue dragged the floor
        // ahead (e.g. a minimum-shares group soaking idle CPUs inflates
        // its entity vruntime at NICE_0_WEIGHT/shares times wall rate),
        // where unbounded banked lag would starve that sibling for sim-
        // seconds once capacity shrinks. Per-CPU CFS cannot bank lag this
        // way; the flattened per-node runqueue needs the explicit bound.
        let margin = if wakeup {
            self.config.wakeup_bonus.as_nanos()
        } else {
            self.config.sched_latency.as_nanos()
        };
        let g = self.threads[tid.0 as usize].cgroup;
        {
            let floor = self.cgroups[g.0 as usize].min_vruntime.saturating_sub(margin);
            let t = &mut self.threads[tid.0 as usize];
            if t.vruntime < floor {
                t.vruntime = floor;
            }
        }
        self.threads[tid.0 as usize].state = ThreadState::Ready;
        // Fresh tie-break per enqueue: threads with equal vruntime (e.g.
        // two producers woken by the same queue slot) run in FIFO enqueue
        // order instead of a fixed spawn order, which would starve one.
        self.threads[tid.0 as usize].seq = self.alloc_seq();
        let (vr, seq, ent) = self.thread_entity_key(tid);
        self.cgroups[g.0 as usize].rq.insert(vr, seq, ent);

        let mut child = g;
        while let Some(parent) = self.cgroups[child.0 as usize].parent {
            if self.cgroups[child.0 as usize].queued
                || self.cgroups[child.0 as usize].throttled
            {
                break;
            }
            {
                // Same bounded-lag floor as the thread placement above.
                let floor = self.cgroups[parent.0 as usize]
                    .min_vruntime
                    .saturating_sub(margin);
                let c = &mut self.cgroups[child.0 as usize];
                if c.vruntime < floor {
                    c.vruntime = floor;
                }
            }
            let (vr, seq, ent) = self.group_entity_key(child);
            self.cgroups[parent.0 as usize].rq.insert(vr, seq, ent);
            self.cgroups[child.0 as usize].queued = true;
            child = parent;
        }
    }

    /// Removes a Ready (queued, not running) thread from the runqueue tree.
    fn dequeue_ready_thread(&mut self, tid: ThreadId) {
        debug_assert_eq!(self.threads[tid.0 as usize].state, ThreadState::Ready);
        let node_idx = self.threads[tid.0 as usize].node.0 as usize;
        self.account_node(node_idx);
        if self.threads[tid.0 as usize].rt_priority.is_some() {
            let node = self.threads[tid.0 as usize].node;
            self.nodes[node.0 as usize]
                .rt_queue
                .retain(|&(_, _, t)| t != tid);
            return;
        }
        let g = self.threads[tid.0 as usize].cgroup;
        let (vr, seq, ent) = self.thread_entity_key(tid);
        self.cgroups[g.0 as usize].rq.remove(vr, seq, ent);
        self.cascade_dequeue(g);
    }

    /// Removes empty group entities from their parents, walking upward.
    fn cascade_dequeue(&mut self, mut g: CgroupId) {
        while self.cgroups[g.0 as usize].rq.is_empty() && self.cgroups[g.0 as usize].queued {
            let parent = self.cgroups[g.0 as usize]
                .parent
                .expect("queued group must have a parent");
            let (vr, seq, ent) = self.group_entity_key(g);
            self.cgroups[parent.0 as usize].rq.remove(vr, seq, ent);
            self.cgroups[g.0 as usize].queued = false;
            g = parent;
        }
    }

    /// Picks and dequeues the next thread: the RT band first (highest
    /// priority, FIFO within a priority), then hierarchical CFS.
    fn pick_thread(&mut self, node_idx: usize) -> Option<ThreadId> {
        if let Some(&key) = self.nodes[node_idx].rt_queue.first() {
            self.nodes[node_idx].rt_queue.remove(&key);
            return Some(key.2);
        }
        let root = self.nodes[node_idx].root;
        let mut cg = root;
        if self.cgroups[cg.0 as usize].rq.is_empty() {
            return None;
        }
        loop {
            let Some((vr, seq, ent)) = self.cgroups[cg.0 as usize].rq.first() else {
                // Descended into a stale, empty group entity (possible when
                // an external mutation — e.g. a hotplug migration — races a
                // cascade). Repair instead of panicking: unlink the empty
                // group from its ancestors and restart from the root.
                debug_assert!(cg != root, "root runqueue emptied mid-descent");
                self.cascade_dequeue(cg);
                cg = root;
                if self.cgroups[cg.0 as usize].rq.is_empty() {
                    return None;
                }
                continue;
            };
            match ent {
                Entity::Group(g) => cg = g,
                Entity::Thread(t) => {
                    let popped = self.cgroups[cg.0 as usize].rq.pop_first();
                    debug_assert_eq!(popped, Some((vr, seq, ent)));
                    self.cascade_dequeue(cg);
                    return Some(t);
                }
            }
        }
    }

    /// `dn · 1024 / weight`, at least 1: the vruntime earned over `dn`
    /// nanoseconds at the given weight. The product fits in a `u64` for any
    /// interval under ~208 days (2⁵⁴ ns), so the hot path stays clear of
    /// 128-bit division.
    #[inline]
    fn weighted_vruntime(dn: u64, weight: u64) -> u64 {
        if dn < (1 << 54) {
            (dn * NICE_0_WEIGHT / weight).max(1)
        } else {
            ((dn as u128 * NICE_0_WEIGHT as u128 / weight as u128).max(1)) as u64
        }
    }

    /// Charges `delta` of CPU time to a running thread and its cgroup path.
    fn charge(&mut self, tid: ThreadId, delta: SimDuration) {
        if delta.is_zero() {
            return;
        }
        let dn = delta.as_nanos();
        let (weight, group, is_rt) = {
            let t = &self.threads[tid.0 as usize];
            (t.nice.weight(), t.cgroup, t.rt_priority.is_some())
        };
        if is_rt {
            // RT threads bypass CFS accounting (but still count cputime).
            let t = &mut self.threads[tid.0 as usize];
            t.remaining = t.remaining.saturating_sub(delta);
            t.cputime += delta;
            t.last_ran = self.now;
            let mut g = Some(group);
            while let Some(cg) = g {
                self.cgroups[cg.0 as usize].cputime += delta;
                g = self.cgroups[cg.0 as usize].parent;
            }
            return;
        }
        let dvr = Kernel::weighted_vruntime(dn, weight);
        {
            let t = &mut self.threads[tid.0 as usize];
            t.vruntime += dvr;
            t.remaining = t.remaining.saturating_sub(delta);
            t.cputime += delta;
            t.last_ran = self.now;
        }
        let running_vr = self.threads[tid.0 as usize].vruntime;
        self.bump_min_vruntime(group, running_vr);

        let mut child = group;
        while let Some(parent) = self.cgroups[child.0 as usize].parent {
            self.cgroups[child.0 as usize].cputime += delta;
            self.account_quota(child, delta);
            let shares = self.cgroups[child.0 as usize].shares;
            let dg = Kernel::weighted_vruntime(dn, shares);
            // If the group entity is queued in the parent (other threads of
            // the group are ready), its key must be refreshed.
            if self.cgroups[child.0 as usize].queued {
                let (vr, seq, ent) = self.group_entity_key(child);
                self.cgroups[parent.0 as usize].rq.remove(vr, seq, ent);
                self.cgroups[child.0 as usize].vruntime += dg;
                let (vr, seq, ent) = self.group_entity_key(child);
                self.cgroups[parent.0 as usize].rq.insert(vr, seq, ent);
            } else {
                self.cgroups[child.0 as usize].vruntime += dg;
            }
            let child_vr = self.cgroups[child.0 as usize].vruntime;
            self.bump_min_vruntime(parent, child_vr);
            child = parent;
        }
        self.cgroups[child.0 as usize].cputime += delta;
    }

    /// Raises a group's monotonic `min_vruntime` floor.
    fn bump_min_vruntime(&mut self, g: CgroupId, running_child_vr: u64) {
        let leftmost = self.cgroups[g.0 as usize].rq.first().map(|(vr, _, _)| vr);
        let cand = leftmost.map_or(running_child_vr, |l| l.min(running_child_vr));
        let g = &mut self.cgroups[g.0 as usize];
        if cand > g.min_vruntime {
            g.min_vruntime = cand;
        }
    }

    /// CFS-style weighted timeslice: a thread's share of the latency
    /// period is proportional to its weight, so prioritized threads run in
    /// long bursts while background threads get the minimum granularity.
    fn slice_for(&self, node_idx: usize, tid: ThreadId) -> SimDuration {
        if self.threads[tid.0 as usize].rt_priority.is_some() {
            // SCHED_FIFO: no timeslice; runs until it blocks or yields.
            return SimDuration::from_secs(3600);
        }
        let nr = self.nodes[node_idx].nr_active.max(1);
        // Hierarchical weight, as in CFS `sched_slice`: the thread's nice
        // weight scaled by each ancestor group's shares. A thread inside a
        // minimum-shares group must get a minimum-granularity slice, not a
        // full nice-weight slice — its group entity's vruntime advances at
        // NICE_0_WEIGHT/shares per ran nanosecond, so an over-long burst
        // banks sim-seconds of vruntime debt and stretches the interval
        // until the group is picked again far beyond the target latency.
        let mut weight = self.threads[tid.0 as usize].nice.weight();
        let mut g = Some(self.threads[tid.0 as usize].cgroup);
        while let Some(cg) = g {
            let data = &self.cgroups[cg.0 as usize];
            if data.parent.is_some() {
                weight = (weight * data.shares / NICE_0_WEIGHT).max(1);
            }
            g = data.parent;
        }
        let base = self.config.sched_latency.as_nanos();
        let slice = match base.checked_mul(weight) {
            Some(p) => p / (NICE_0_WEIGHT * nr),
            None => (base as u128 * weight as u128 / (NICE_0_WEIGHT as u128 * nr as u128))
                .min(u64::MAX as u128) as u64,
        };
        SimDuration::from_nanos(slice)
            .max(self.config.min_granularity)
            .min(self.config.sched_latency)
    }

    /// Invokes a thread's body, applying buffered wakes afterwards.
    ///
    /// # Panics
    ///
    /// Panics if a body performs an unbounded number of zero-time actions at
    /// one instant (a livelock that would hang the simulation).
    fn invoke_body(&mut self, tid: ThreadId) -> Action {
        let guard = &mut self.invoke_guard[tid.0 as usize];
        if guard.0 == self.now {
            guard.1 += 1;
            assert!(
                guard.1 < 1_000_000,
                "thread {} live-locked: >1e6 zero-time actions at {}",
                tid,
                self.now
            );
        } else {
            *guard = (self.now, 0);
        }
        let mut body = self.threads[tid.0 as usize]
            .body
            .take()
            .expect("invoke_body: body missing");
        let mut ctx = SimCtx::from_buffers(
            self.now,
            std::mem::take(&mut self.ctx_wakes),
            std::mem::take(&mut self.ctx_deferred),
        );
        let action = body.next_action(&mut ctx);
        self.threads[tid.0 as usize].body = Some(body);
        let (mut wakes, mut deferred) = ctx.into_effects();
        for w in wakes.drain(..) {
            self.wake(w);
        }
        for (delay, f) in deferred.drain(..) {
            self.push_defer(delay, f);
        }
        // Bodies do not nest, so nothing refilled the scratch slots while
        // the effects were applied; hand the buffers back for reuse.
        self.ctx_wakes = wakes;
        self.ctx_deferred = deferred;
        action
    }

    /// Schedules a one-shot closure (like [`schedule_in`](Kernel::schedule_in)
    /// but for `FnOnce`).
    pub fn schedule_once(&mut self, delay: SimDuration, f: impl FnOnce(&mut Kernel) + 'static) {
        self.schedule_internal(delay, None, CallbackFn::Once(Box::new(f)));
    }

    /// Returns a fired (or cancelled) callback slot to the free pool. The
    /// generation bump turns any id still held for it into a dead handle.
    fn recycle_callback(&mut self, slot: usize) {
        let e = &mut self.callbacks[slot];
        e.gen = e.gen.wrapping_add(1);
        e.f = None;
        e.period = None;
        e.cancelled = false;
        self.free_callbacks.push(slot);
    }

    /// Adds a node to the dispatch worklist unless it is already on it.
    fn mark_dirty(&mut self, node_idx: usize) {
        if !self.nodes[node_idx].dirty {
            self.nodes[node_idx].dirty = true;
            self.dispatch_worklist.push_back(node_idx);
        }
    }

    /// Accumulates busy/idle/PSI time for one node over the interval since
    /// its last accounting. Must be called *before* any mutation of CPU
    /// occupancy or runqueue emptiness; calling it again within the same
    /// instant is a no-op.
    fn account_node(&mut self, node_idx: usize) {
        let delta = self.now - self.nodes[node_idx].last_accounted;
        self.nodes[node_idx].last_accounted = self.now;
        if delta.is_zero() {
            return;
        }
        let root = self.nodes[node_idx].root;
        let stalled = !self.cgroups[root.0 as usize].rq.is_empty()
            || !self.nodes[node_idx].rt_queue.is_empty();
        let n = &mut self.nodes[node_idx];
        let busy_cpus = n.occupied;
        // Offline CPUs are neither busy nor idle: capacity shrinks.
        let online = n.cpus.iter().filter(|c| c.online).count() as u64;
        let idle_cpus = online.saturating_sub(busy_cpus);
        n.busy += delta * busy_cpus;
        n.idle += delta * idle_cpus;
        // PSI "cpu some": runnable-but-waiting threads exist.
        if stalled {
            n.stalled += delta;
        }
        // Time-weighted runqueue depth: threads ready but not on a CPU.
        let waiting = n.nr_active.saturating_sub(busy_cpus);
        if waiting > 0 {
            n.rq_wait += delta * waiting;
        }
    }

    /// Charges the thread on `(node, cpu)` for the interval since the CPU
    /// was last charged. Reentrancy-safe: `last_charged` advances *before*
    /// the charge, so a throttle triggered by it sees a zero delta.
    fn charge_cpu(&mut self, node_idx: usize, cpu_idx: usize) {
        let Some(tid) = self.nodes[node_idx].cpus[cpu_idx].current else {
            return;
        };
        let delta = self.now - self.nodes[node_idx].cpus[cpu_idx].last_charged;
        self.nodes[node_idx].cpus[cpu_idx].last_charged = self.now;
        if delta.is_zero() {
            return;
        }
        self.nodes[node_idx].cpus[cpu_idx].busy += delta;
        self.charge(tid, delta);
    }

    /// Brings every CPU charge and node account up to `now` so observers
    /// (user callbacks, stats readers) see the same state the old eager
    /// loop maintained continuously.
    fn sync_accounting(&mut self) {
        if self.synced_at == self.now {
            return; // charges and accounts since then are all zero-delta
        }
        self.synced_at = self.now;
        for node_idx in 0..self.nodes.len() {
            for cpu_idx in 0..self.nodes[node_idx].cpus.len() {
                self.charge_cpu(node_idx, cpu_idx);
            }
            self.account_node(node_idx);
        }
    }

    /// Preempts the thread running on `(node, cpu)`: charges it up to now,
    /// re-queues it and releases the CPU.
    fn preempt_running(&mut self, node_idx: usize, cpu_idx: usize) {
        self.charge_cpu(node_idx, cpu_idx);
        // The charge may throttle the thread's group, which preempts this
        // very CPU underneath us; re-check before queueing.
        if let Some(cur) = self.nodes[node_idx].cpus[cpu_idx].current {
            self.emit(|| TraceEvent::Preempt {
                node: node_idx as u64,
                cpu: cpu_idx,
                tid: cur,
            });
            self.enqueue_thread(cur, false);
            self.free_cpu(node_idx, cpu_idx);
        }
    }

    /// Arms (or re-arms) the calendar entry for an occupied CPU: the next
    /// event is the earlier of slice expiry and work completion. Bumping
    /// the generation invalidates any previously armed entry.
    ///
    /// The CPU must be charged up to `now` (its `remaining` is read as of
    /// now).
    fn rearm_cpu(&mut self, node_idx: usize, cpu_idx: usize) {
        let Some(tid) = self.nodes[node_idx].cpus[cpu_idx].current else {
            return;
        };
        debug_assert_eq!(self.nodes[node_idx].cpus[cpu_idx].last_charged, self.now);
        let due = self.nodes[node_idx].cpus[cpu_idx]
            .slice_end
            .min(self.now + self.threads[tid.0 as usize].remaining);
        let cpu = &mut self.nodes[node_idx].cpus[cpu_idx];
        cpu.gen += 1;
        let old_due = cpu.due;
        cpu.due = due;
        if due <= self.node_min_due[node_idx] {
            self.node_min_due[node_idx] = due;
        } else if old_due == self.node_min_due[node_idx] {
            // Raised the minimum holder: rescan for the new minimum.
            self.refresh_min_due(node_idx);
        }
    }

    /// Recomputes a node's cached minimum `due`; called after any mutation
    /// that may have raised the previous minimum.
    fn refresh_min_due(&mut self, node_idx: usize) {
        let mut min = SimTime::MAX;
        for c in &self.nodes[node_idx].cpus {
            if c.due < min {
                min = c.due;
            }
        }
        self.node_min_due[node_idx] = min;
    }

    /// Releases a CPU; the thread keeps whatever state the caller set.
    fn free_cpu(&mut self, node_idx: usize, cpu_idx: usize) {
        self.charge_cpu(node_idx, cpu_idx); // safety net; normally a no-op
        self.account_node(node_idx);
        let (freed, old_due) = {
            let cpu = &mut self.nodes[node_idx].cpus[cpu_idx];
            let was_occupied = cpu.current.is_some();
            cpu.last_thread = cpu.current.take();
            cpu.slice_end = SimTime::MAX;
            cpu.gen += 1; // invalidates the collected due batch, if any
            let old_due = cpu.due;
            cpu.due = SimTime::MAX;
            (was_occupied, old_due)
        };
        // Raising a CPU's `due` only moves the node minimum if this CPU
        // held it; otherwise the cached minimum (some other CPU) stands.
        if old_due == self.node_min_due[node_idx] {
            self.refresh_min_due(node_idx);
        }
        if freed {
            self.nodes[node_idx].occupied -= 1;
        }
        // A freed CPU only creates dispatchable work if something is
        // already queued; everything that *makes* a thread runnable
        // (enqueue, unthrottle, hotplug) marks the node dirty itself, so
        // an empty-runqueue release can skip the worklist round-trip.
        let root = self.nodes[node_idx].root;
        if !self.cgroups[root.0 as usize].rq.is_empty()
            || !self.nodes[node_idx].rt_queue.is_empty()
        {
            self.mark_dirty(node_idx);
        }
    }

    /// Applies a body action for a thread currently holding a CPU.
    /// Returns `true` if the thread keeps the CPU.
    fn apply_action(&mut self, node_idx: usize, cpu_idx: usize, tid: ThreadId, action: Action) -> bool {
        debug_assert!(
            matches!(self.threads[tid.0 as usize].state, ThreadState::Running(_)),
            "apply_action on non-running {} in state {:?}",
            self.threads[tid.0 as usize].name,
            self.threads[tid.0 as usize].state
        );
        match action {
            Action::Compute(cost) => {
                let cost = cost.max(SimDuration::from_nanos(1));
                self.threads[tid.0 as usize].remaining = cost;
                true
            }
            Action::Block(w) => {
                self.emit(|| TraceEvent::Block {
                    node: node_idx as u64,
                    cpu: cpu_idx,
                    tid,
                    channel: Some(w),
                });
                self.threads[tid.0 as usize].state = ThreadState::Blocked(w);
                let ch = w.0 as usize;
                if ch >= self.waiters.len() {
                    // Channel id minted by `WaitId::from_u64` rather than
                    // `new_wait_channel` (test fixtures do this).
                    self.waiters.resize_with(ch + 1, Vec::new);
                }
                self.waiters[ch].push(tid);
                self.nodes[node_idx].nr_active -= 1;
                self.free_cpu(node_idx, cpu_idx);
                false
            }
            Action::Sleep(dur) => {
                self.emit(|| TraceEvent::Block {
                    node: node_idx as u64,
                    cpu: cpu_idx,
                    tid,
                    channel: None,
                });
                let dur = dur.max(SimDuration::from_nanos(1));
                self.threads[tid.0 as usize].state = ThreadState::Sleeping;
                self.calendar
                    .insert(self.now + dur, TimerKind::Wake(tid));
                self.nodes[node_idx].nr_active -= 1;
                self.free_cpu(node_idx, cpu_idx);
                false
            }
            Action::Yield => {
                self.enqueue_thread(tid, false);
                self.free_cpu(node_idx, cpu_idx);
                false
            }
            Action::Exit => {
                self.emit(|| TraceEvent::Exit {
                    node: node_idx as u64,
                    cpu: cpu_idx,
                    tid,
                });
                self.threads[tid.0 as usize].state = ThreadState::Exited;
                self.threads[tid.0 as usize].body = None;
                self.nodes[node_idx].nr_active -= 1;
                self.free_cpu(node_idx, cpu_idx);
                false
            }
        }
    }

    /// Fills idle CPUs of one node from its runqueues.
    fn dispatch_node(&mut self, node_idx: usize) {
        // Dispatching changes occupancy and drains runqueues: settle the
        // accounting interval that ends here first.
        self.account_node(node_idx);
        'cpus: loop {
            let Some(cpu_idx) = self.nodes[node_idx]
                .cpus
                .iter()
                .position(|c| c.online && c.current.is_none())
            else {
                return;
            };
            let Some(tid) = self.pick_thread(node_idx) else {
                return;
            };
            if !self.place_thread(node_idx, cpu_idx, tid) {
                continue 'cpus;
            }
        }
    }

    /// Puts a dequeued (or fast-woken) thread on an idle CPU: context-switch
    /// accounting, body invocation until it has pending work, slice arming.
    /// Returns `false` if the body immediately blocked/yielded/exited — the
    /// CPU was released by `apply_action` and stays free.
    fn place_thread(&mut self, node_idx: usize, cpu_idx: usize, tid: ThreadId) -> bool {
        let prev = self.nodes[node_idx].cpus[cpu_idx].last_thread;
        let switch = prev != Some(tid);
        {
            let t = &mut self.threads[tid.0 as usize];
            t.state = ThreadState::Running(CpuId(cpu_idx));
            t.dispatches += 1;
        }
        if switch && !self.config.ctx_switch_cost.is_zero() {
            let cost = self.config.ctx_switch_cost;
            self.threads[tid.0 as usize].remaining += cost;
            self.nodes[node_idx].ctx_switches += 1;
            self.nodes[node_idx].overhead += cost;
        }
        // Make sure the thread has pending work; run its body if not. The
        // CPU is reserved but not yet occupied while the body runs, so a
        // re-entrant fast-path wake (triggered by this body's own pushes)
        // must be told not to place another thread on it. The reservation
        // stays live across nested placements (a wake chain inside the
        // body recurses into place_thread), hence a stack, not a slot.
        self.reserving.push((node_idx, cpu_idx));
        while self.threads[tid.0 as usize].remaining.is_zero() {
            let action = self.invoke_body(tid);
            if !self.apply_action(node_idx, cpu_idx, tid, action) {
                self.reserving.pop();
                return false;
            }
        }
        self.reserving.pop();
        let slice = self.slice_for(node_idx, tid);
        let now = self.now;
        let cpu = &mut self.nodes[node_idx].cpus[cpu_idx];
        cpu.current = Some(tid);
        cpu.last_thread = Some(tid);
        cpu.slice_end = now + slice;
        cpu.last_charged = now;
        self.nodes[node_idx].occupied += 1;
        self.emit(|| TraceEvent::Switch {
            node: node_idx as u64,
            cpu: cpu_idx,
            prev,
            next: tid,
            fresh: switch,
        });
        self.rearm_cpu(node_idx, cpu_idx);
        true
    }

    /// Wake-to-idle-CPU fast path. When a woken CFS thread's node has an
    /// idle online CPU and nothing else runnable, the dispatch outcome is
    /// forced: the regular path would enqueue the thread, mark the node
    /// dirty and — on the worklist pass — pop that same thread straight
    /// back off the runqueue onto that same CPU. This path performs the
    /// identical state transitions (accounting order, vruntime floor,
    /// trace events, context-switch cost) while skipping the runqueue
    /// insert/remove round-trip and the worklist pass. Returns `true` if
    /// the thread was placed; `false` means the caller must take the
    /// regular enqueue path.
    ///
    /// The only scalar the fast path does not replicate is the runqueue
    /// tie-break sequence number the regular path would have allocated;
    /// skipping an allocation preserves the relative order of all others,
    /// so schedules stay deterministic.
    fn try_fast_wake(&mut self, tid: ThreadId) -> bool {
        if self.fast_wake_depth >= 64 {
            return false; // bound same-instant wake-chain recursion
        }
        if self.quota_in_use || self.threads[tid.0 as usize].rt_priority.is_some() {
            return false;
        }
        let node_idx = self.threads[tid.0 as usize].node.0 as usize;
        let root = self.nodes[node_idx].root;
        // Child-cgroup placement cascades group entities; keep that on the
        // regular path (Lachesis-managed queries; the floor per level and
        // descent order are not worth replicating here).
        if self.threads[tid.0 as usize].cgroup != root {
            return false;
        }
        if !self.nodes[node_idx].rt_queue.is_empty()
            || !self.cgroups[root.0 as usize].rq.is_empty()
        {
            return false;
        }
        // Skip every CPU reserved by any in-flight place_thread frame, not
        // just the innermost: a depth-2 same-instant wake chain still has
        // the outer frame's reservation live on the stack.
        let reserved = &self.reserving;
        let cpus = &self.nodes[node_idx].cpus;
        let Some(cpu_idx) = (0..cpus.len()).find(|&i| {
            let c = &cpus[i];
            c.online && c.current.is_none() && !reserved.contains(&(node_idx, i))
        }) else {
            return false;
        };
        // Commit. Order matches wake() + enqueue_thread(wakeup=true) +
        // dispatch_node: nr_active first, then the account boundary, then
        // the Wake trace and the sleeper-credit vruntime floor.
        self.fast_wake_depth += 1;
        self.nodes[node_idx].nr_active += 1;
        self.account_node(node_idx);
        self.emit(|| TraceEvent::Wake { tid });
        let floor = self.cgroups[root.0 as usize]
            .min_vruntime
            .saturating_sub(self.config.wakeup_bonus.as_nanos());
        let t = &mut self.threads[tid.0 as usize];
        if t.vruntime < floor {
            t.vruntime = floor;
        }
        self.place_thread(node_idx, cpu_idx, tid);
        self.fast_wake_depth -= 1;
        true
    }

    /// Handles a running thread whose compute finished or slice expired.
    fn settle_cpu(&mut self, node_idx: usize, cpu_idx: usize) {
        let Some(tid) = self.nodes[node_idx].cpus[cpu_idx].current else {
            return;
        };
        // Completion: keep invoking the body while it keeps computing.
        debug_assert!(self.settling.is_none(), "settle_cpu re-entered");
        self.settling = Some(tid);
        while self.threads[tid.0 as usize].remaining.is_zero() {
            let action = self.invoke_body(tid);
            if !self.apply_action(node_idx, cpu_idx, tid, action) {
                self.settling = None;
                return;
            }
        }
        self.settling = None;
        // Slice expiry: preempt only if someone else is waiting.
        if self.nodes[node_idx].cpus[cpu_idx].slice_end <= self.now {
            let root = self.nodes[node_idx].root;
            if !self.cgroups[root.0 as usize].rq.is_empty() {
                self.emit(|| TraceEvent::SliceExpire {
                    node: node_idx as u64,
                    cpu: cpu_idx,
                    tid,
                });
                self.enqueue_thread(tid, false);
                self.free_cpu(node_idx, cpu_idx);
            } else {
                let slice = self.slice_for(node_idx, tid);
                self.nodes[node_idx].cpus[cpu_idx].slice_end = self.now + slice;
            }
        }
    }

    fn fire_timer(&mut self, kind: TimerKind) {
        match kind {
            TimerKind::Wake(tid) => {
                if self.threads[tid.0 as usize].state == ThreadState::Sleeping
                    && !self.try_fast_wake(tid)
                {
                    let node = self.threads[tid.0 as usize].node;
                    self.nodes[node.0 as usize].nr_active += 1;
                    self.enqueue_thread(tid, true);
                    self.maybe_preempt(tid);
                }
            }
            TimerKind::Unthrottle(cg) => {
                if self.cgroups[cg.0 as usize].throttled {
                    self.unthrottle(cg);
                }
            }
            TimerKind::Callback(id) | TimerKind::Defer(id) => {
                let (slot, gen) = callback_slot(id);
                let entry = &mut self.callbacks[slot];
                if entry.gen != gen {
                    return; // the slot was recycled out from under this event
                }
                if entry.cancelled {
                    // A callback has at most one pending calendar event (the
                    // next one is inserted only after a fire), and it just
                    // popped: the slot can be reused immediately.
                    self.recycle_callback(slot);
                    return;
                }
                let Some(f) = entry.f.take() else {
                    return;
                };
                // User code observes kernel state: bring lazily charged CPU
                // time and node accounting up to the present first. Deferred
                // internal effects (network deliveries) only move tuples and
                // wake threads, so they skip that sweep — it would otherwise
                // run once per in-flight remote tuple.
                if matches!(kind, TimerKind::Callback(_)) {
                    self.sync_accounting();
                }
                match f {
                    CallbackFn::Once(f) => {
                        f(self);
                        self.recycle_callback(slot);
                    }
                    CallbackFn::Recurring(mut f) => {
                        f(self);
                        let entry = &mut self.callbacks[slot];
                        if entry.cancelled {
                            self.recycle_callback(slot);
                            return;
                        }
                        match entry.period {
                            Some(period) => {
                                entry.f = Some(CallbackFn::Recurring(f));
                                self.calendar.insert(
                                    self.now + period,
                                    TimerKind::Callback(id),
                                );
                            }
                            None => self.recycle_callback(slot),
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Runs the simulation for `dur` of simulated time.
    pub fn run_for(&mut self, dur: SimDuration) {
        let deadline = self.now + dur;
        self.run_until(deadline);
    }

    /// Runs the simulation until `deadline`, processing every event with a
    /// timestamp `<= deadline`. On return, `now() == deadline`.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is in the past.
    pub fn run_until(&mut self, deadline: SimTime) {
        assert!(deadline >= self.now, "run_until: deadline in the past");
        // Arbitrary external mutations (spawns, cgroup edits) may have
        // happened while paused: give every node one dispatch pass.
        for node_idx in 0..self.nodes.len() {
            self.mark_dirty(node_idx);
        }
        loop {
            self.loop_iters += 1;
            while let Some(node_idx) = self.dispatch_worklist.pop_front() {
                self.nodes[node_idx].dirty = false;
                self.dispatch_node(node_idx);
            }
            let Some(t) = self.next_event_time() else {
                break; // idle forever: jump straight to the deadline
            };
            if t > deadline {
                break;
            }
            debug_assert!(t >= self.now);
            self.now = t;
            self.process_events_at_now();
        }
        self.now = deadline;
        self.sync_accounting();
    }

    /// The instant of the earliest pending event: the minimum over the
    /// timer calendar, the defer FIFO's head, and every armed CPU's `due`.
    fn next_event_time(&mut self) -> Option<SimTime> {
        let mut next = match self.calendar.peek() {
            Some((at, _)) => at,
            None => SimTime::MAX,
        };
        if let Some(&(at, _, _)) = self.defer_fifo.front() {
            next = next.min(at);
        }
        for &d in &self.node_min_due {
            next = next.min(d);
        }
        (next != SimTime::MAX).then_some(next)
    }

    /// Processes one batch of events due at the current instant, mirroring
    /// the old eager loop's order within an instant: charge every due CPU,
    /// settle them (completion / slice expiry), then fire timers. Timers
    /// that schedule work at this same instant (zero-delay callbacks) are
    /// handled before returning.
    fn process_events_at_now(&mut self) {
        loop {
            debug_assert!(self.due_cpus.is_empty() && self.due_timers.is_empty());
            while let Some((at, _)) = self.calendar.peek() {
                if at > self.now {
                    break;
                }
                let (_, id, kind) = self.calendar.pop().expect("peeked event");
                self.due_timers.push((id.seq(), DueTimer::Kind(kind)));
            }
            while self.defer_fifo.front().is_some_and(|&(at, _, _)| at <= self.now) {
                let (_, seq, f) = self.defer_fifo.pop_front().expect("peeked defer");
                self.due_timers.push((seq, DueTimer::Defer(f)));
            }
            // Collect due CPUs by scanning — index order, matching the old
            // eager loop's visit order, so same-instant interactions (quota
            // throttles, preemptions during settles) resolve identically.
            // The cached per-node minimum skips nodes with nothing due.
            for node in 0..self.nodes.len() {
                if self.node_min_due[node] > self.now {
                    continue;
                }
                for cpu in 0..self.nodes[node].cpus.len() {
                    let c = &self.nodes[node].cpus[cpu];
                    if c.due <= self.now {
                        self.due_cpus.push((node, cpu, c.gen));
                    }
                }
            }
            if self.due_cpus.is_empty() && self.due_timers.is_empty() {
                return;
            }
            let mut due_cpus = std::mem::take(&mut self.due_cpus);
            // Phase 1: charge every due CPU before settling any, so settle
            // side-effects (wakes, preemptions) observe fully charged
            // state. A charge can throttle a group and free other due
            // CPUs; their bumped generation skips them below.
            for &(node, cpu, gen) in &due_cpus {
                if self.nodes[node].cpus[cpu].gen == gen {
                    self.charge_cpu(node, cpu);
                }
            }
            // Phase 2: settle still-valid CPUs and re-arm the survivors.
            for &(node, cpu, gen) in &due_cpus {
                if self.nodes[node].cpus[cpu].gen != gen {
                    continue; // freed by an earlier settle or a throttle
                }
                self.settle_cpu(node, cpu);
                self.rearm_cpu(node, cpu);
            }
            due_cpus.clear();
            self.due_cpus = due_cpus;
            // Phase 3: timers, in calendar (sequence) order. Calendar pops
            // and FIFO drains are each already seq-sorted; the sort merges
            // the two short runs.
            let mut due_timers = std::mem::take(&mut self.due_timers);
            due_timers.sort_unstable_by_key(|e| e.0);
            for (_, t) in due_timers.drain(..) {
                match t {
                    DueTimer::Kind(kind) => self.fire_timer(kind),
                    DueTimer::Defer(DeferOp::Boxed(f)) => f(self),
                    DueTimer::Defer(DeferOp::Call(id)) => self.run_defer_call(id),
                }
            }
            self.due_timers = due_timers;
        }
    }

    // ------------------------------------------------------------------
    // Diagnostics
    // ------------------------------------------------------------------

    /// Number of main-loop iterations executed so far, cumulative over
    /// every `run_*` call. An idle kernel costs exactly one iteration per
    /// run; each additional iteration corresponds to one processed event
    /// batch. Useful for regression-testing the event-driven loop.
    pub fn loop_iterations(&self) -> u64 {
        self.loop_iters
    }

    /// A human-readable snapshot of scheduler state: per-node CPU
    /// occupancy, runqueue depths and contents, and pending event count.
    /// Intended for debugging and tests; the format is not stable.
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "kernel @ {} — {} pending events, {} loop iterations",
            self.now,
            self.calendar.len() + self.defer_fifo.len(),
            self.loop_iters
        );
        for (ni, n) in self.nodes.iter().enumerate() {
            let _ = writeln!(
                out,
                "node {:?} ({} cpus, {} occupied, {} active, rt queue {})",
                n.name,
                n.cpus.len(),
                n.occupied,
                n.nr_active,
                n.rt_queue.len()
            );
            for (i, cpu) in n.cpus.iter().enumerate() {
                match cpu.current {
                    Some(tid) => {
                        let t = &self.threads[tid.0 as usize];
                        let _ = writeln!(
                            out,
                            "  cpu{i}: {} ({:?}) slice_end={} gen={} vr={}",
                            t.name, tid, cpu.slice_end, cpu.gen, t.vruntime
                        );
                    }
                    None if !cpu.online => {
                        let _ = writeln!(out, "  cpu{i}: offline gen={}", cpu.gen);
                    }
                    None => {
                        let _ = writeln!(out, "  cpu{i}: idle gen={}", cpu.gen);
                    }
                }
            }
            for (gi, g) in self.cgroups.iter().enumerate() {
                if g.node != NodeId(ni as u64) {
                    continue;
                }
                if g.rq.is_empty() && g.parent.is_some() && !g.queued {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  rq {:?} (cg{gi}): {} ready, queued={} vr={} min_vr={}",
                    g.name,
                    g.rq.len(),
                    g.queued,
                    g.vruntime,
                    g.min_vruntime
                );
                for &(vr, seq, ent) in g.rq.iter() {
                    let _ = writeln!(out, "    vr={vr} seq={seq} {ent:?}");
                }
            }
        }
        out
    }

    /// Cross-checks the runqueue tree against thread and cgroup state and
    /// returns a description of the first inconsistency found, if any.
    ///
    /// The invariants checked are the ones dispatch correctness rests on:
    /// a group's `queued` flag matches its presence in the parent runqueue,
    /// every Ready CFS thread sits in its cgroup's runqueue under its
    /// current key, and every queued entity's stored key matches the
    /// entity's live vruntime (a stale key makes later removals corrupt the
    /// queue silently). Intended for tests — property tests call this after
    /// every mutation step — and for debugging; it never mutates state.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn debug_check_runqueues(&self) -> Result<(), String> {
        for (gi, g) in self.cgroups.iter().enumerate() {
            let gid = CgroupId(gi as u64);
            // queued flag vs. actual membership in the parent runqueue.
            if let Some(parent) = g.parent {
                let present = self.cgroups[parent.0 as usize]
                    .rq
                    .iter()
                    .filter(|&&(_, _, ent)| ent == Entity::Group(gid))
                    .count();
                if present > 1 {
                    return Err(format!(
                        "group {:?} appears {present} times in parent {:?} rq",
                        g.name, parent
                    ));
                }
                if g.queued != (present == 1) {
                    return Err(format!(
                        "group {:?} queued={} but parent rq holds {present} entries",
                        g.name, g.queued
                    ));
                }
                if g.queued {
                    let (vr, seq, ent) = self.group_entity_key(gid);
                    let exact = self.cgroups[parent.0 as usize]
                        .rq
                        .iter()
                        .any(|&k| k == (vr, seq, ent));
                    if !exact {
                        return Err(format!(
                            "group {:?} queued under a stale key (live vr={vr} seq={seq})",
                            g.name
                        ));
                    }
                }
            }
            // Every entity in this group's runqueue is consistent.
            for &(vr, _seq, ent) in g.rq.iter() {
                match ent {
                    Entity::Thread(t) => {
                        let th = &self.threads[t.0 as usize];
                        if th.state != ThreadState::Ready {
                            return Err(format!(
                                "thread {} in rq of {:?} but state is {:?}",
                                th.name, g.name, th.state
                            ));
                        }
                        if th.cgroup != gid {
                            return Err(format!(
                                "thread {} in rq of {:?} but belongs to cgroup {:?}",
                                th.name, g.name, th.cgroup
                            ));
                        }
                        if th.vruntime != vr {
                            return Err(format!(
                                "thread {} queued under stale vr={vr}, live vr={}",
                                th.name, th.vruntime
                            ));
                        }
                    }
                    Entity::Group(child) => {
                        if self.cgroups[child.0 as usize].parent != Some(gid) {
                            return Err(format!(
                                "group entity {:?} in rq of non-parent {:?}",
                                child, g.name
                            ));
                        }
                    }
                }
            }
        }
        // Every Ready CFS thread is reachable: present in its cgroup's rq
        // and its ancestor chain is queued up to the root (unless a
        // throttled ancestor legitimately detaches the subtree).
        for (ti, th) in self.threads.iter().enumerate() {
            let tid = ThreadId(ti as u64);
            if th.state != ThreadState::Ready || th.rt_priority.is_some() {
                continue;
            }
            let g = th.cgroup;
            let here = self.cgroups[g.0 as usize]
                .rq
                .iter()
                .any(|&(_, _, ent)| ent == Entity::Thread(tid));
            if !here {
                return Err(format!(
                    "ready thread {} missing from rq of its cgroup {:?}",
                    th.name, self.cgroups[g.0 as usize].name
                ));
            }
            let mut cg = g;
            while let Some(parent) = self.cgroups[cg.0 as usize].parent {
                if self.cgroups[cg.0 as usize].throttled {
                    break;
                }
                if !self.cgroups[cg.0 as usize].queued {
                    return Err(format!(
                        "ready thread {} unreachable: ancestor {:?} not queued in {:?}",
                        th.name, self.cgroups[cg.0 as usize].name, self.cgroups[parent.0 as usize].name
                    ));
                }
                cg = parent;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::FixedWork;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn cpu_hog() -> FixedWork {
        FixedWork::endless(SimDuration::from_micros(100))
    }

    fn zero_switch_config() -> KernelConfig {
        KernelConfig {
            ctx_switch_cost: SimDuration::ZERO,
            ..KernelConfig::default()
        }
    }

    #[test]
    fn single_thread_gets_all_cpu() {
        let mut k = Kernel::new(zero_switch_config());
        let n = k.add_node("n", 1);
        let t = k.spawn(n, "hog", cpu_hog()).build();
        k.run_for(SimDuration::from_secs(1));
        let info = k.thread_info(t).unwrap();
        assert_eq!(info.cputime, SimDuration::from_secs(1));
        assert_eq!(k.now(), SimTime::from_nanos(1_000_000_000));
    }

    #[test]
    fn two_equal_threads_share_fairly() {
        let mut k = Kernel::new(zero_switch_config());
        let n = k.add_node("n", 1);
        let a = k.spawn(n, "a", cpu_hog()).build();
        let b = k.spawn(n, "b", cpu_hog()).build();
        k.run_for(SimDuration::from_secs(2));
        let ca = k.thread_info(a).unwrap().cputime.as_secs_f64();
        let cb = k.thread_info(b).unwrap().cputime.as_secs_f64();
        assert!((ca - cb).abs() < 0.02, "ca={ca} cb={cb}");
        assert!((ca + cb - 2.0).abs() < 1e-6);
    }

    #[test]
    fn nice_controls_share_ratio() {
        // nice -5 vs 0 => weight 3121 vs 1024 => ratio ~3.05.
        let mut k = Kernel::new(zero_switch_config());
        let n = k.add_node("n", 1);
        let fast = k
            .spawn(n, "fast", cpu_hog())
            .nice(Nice::new(-5).unwrap())
            .build();
        let slow = k.spawn(n, "slow", cpu_hog()).build();
        k.run_for(SimDuration::from_secs(5));
        let cf = k.thread_info(fast).unwrap().cputime.as_secs_f64();
        let cs = k.thread_info(slow).unwrap().cputime.as_secs_f64();
        let ratio = cf / cs;
        let expect = 3121.0 / 1024.0;
        assert!(
            (ratio - expect).abs() / expect < 0.05,
            "ratio {ratio} expect {expect}"
        );
    }

    #[test]
    fn cgroup_shares_divide_cpu() {
        let mut k = Kernel::new(zero_switch_config());
        let n = k.add_node("n", 1);
        let root = k.node_root(n).unwrap();
        let g1 = k.create_cgroup(root, "g1", 2048).unwrap();
        let g2 = k.create_cgroup(root, "g2", 1024).unwrap();
        // Two threads in g1, one in g2: groups should split 2:1 regardless
        // of the thread count inside.
        let a = k.spawn(n, "a", cpu_hog()).cgroup(g1).build();
        let b = k.spawn(n, "b", cpu_hog()).cgroup(g1).build();
        let c = k.spawn(n, "c", cpu_hog()).cgroup(g2).build();
        k.run_for(SimDuration::from_secs(6));
        let ca = k.thread_info(a).unwrap().cputime.as_secs_f64();
        let cb = k.thread_info(b).unwrap().cputime.as_secs_f64();
        let cc = k.thread_info(c).unwrap().cputime.as_secs_f64();
        assert!((ca + cb) / cc > 1.8 && (ca + cb) / cc < 2.2, "g1={} g2={cc}", ca + cb);
        assert!((ca - cb).abs() < 0.1, "intra-group fairness: {ca} vs {cb}");
    }

    #[test]
    fn multicore_runs_threads_in_parallel() {
        let mut k = Kernel::new(zero_switch_config());
        let n = k.add_node("n", 2);
        let a = k.spawn(n, "a", cpu_hog()).build();
        let b = k.spawn(n, "b", cpu_hog()).build();
        k.run_for(SimDuration::from_secs(1));
        assert_eq!(k.thread_info(a).unwrap().cputime, SimDuration::from_secs(1));
        assert_eq!(k.thread_info(b).unwrap().cputime, SimDuration::from_secs(1));
    }

    #[test]
    fn sleep_wakes_after_duration() {
        let mut k = Kernel::default();
        let n = k.add_node("n", 1);
        let log: Rc<RefCell<Vec<SimTime>>> = Rc::default();
        let log2 = Rc::clone(&log);
        let mut first = true;
        k.spawn(n, "sleeper", move |ctx: &mut SimCtx| {
            log2.borrow_mut().push(ctx.now());
            if first {
                first = false;
                Action::Sleep(SimDuration::from_millis(10))
            } else {
                Action::Exit
            }
        })
        .build();
        k.run_for(SimDuration::from_millis(20));
        let log = log.borrow();
        assert_eq!(log.len(), 2);
        // First invocation happens after the context-switch cost; waking
        // back onto the same (idle) CPU pays no switch cost.
        let ctx = k.config().ctx_switch_cost;
        assert_eq!(log[0], SimTime::ZERO + ctx);
        assert_eq!(log[1], log[0] + SimDuration::from_millis(10));
    }

    #[test]
    fn block_and_wake_via_channel() {
        let mut k = Kernel::default();
        let n = k.add_node("n", 1);
        let ch = k.new_wait_channel();
        let done: Rc<RefCell<bool>> = Rc::default();
        let done2 = Rc::clone(&done);
        let mut blocked_once = false;
        k.spawn(n, "consumer", move |_: &mut SimCtx| {
            if !blocked_once {
                blocked_once = true;
                Action::Block(ch)
            } else {
                *done2.borrow_mut() = true;
                Action::Exit
            }
        })
        .build();
        // Producer wakes the channel after 5ms via a callback.
        k.schedule_in(SimDuration::from_millis(5), move |kk| kk.wake(ch));
        k.run_for(SimDuration::from_millis(10));
        assert!(*done.borrow());
    }

    #[test]
    fn wake_before_block_is_not_lost_if_state_checked() {
        // A wake on a channel nobody blocks on is a no-op; the consumer must
        // check its queue before blocking (documented contract).
        let mut k = Kernel::default();
        let ch = {
            let n = k.add_node("n", 1);
            let ch = k.new_wait_channel();
            k.spawn(n, "c", move |_: &mut SimCtx| Action::Block(ch)).build();
            ch
        };
        k.wake(ch); // nobody blocked yet: dropped
        k.run_for(SimDuration::from_millis(5));
        // Thread is now blocked forever; wake it to prove it blocked.
        k.wake(ch);
        k.run_for(SimDuration::from_millis(5));
    }

    #[test]
    fn periodic_callbacks_fire_until_cancelled() {
        let mut k = Kernel::default();
        let count: Rc<RefCell<u32>> = Rc::default();
        let c2 = Rc::clone(&count);
        let id = k.schedule_periodic(SimDuration::from_millis(1), SimDuration::from_millis(1), move |_| {
            *c2.borrow_mut() += 1;
        });
        k.run_for(SimDuration::from_millis(5));
        assert_eq!(*count.borrow(), 5);
        k.cancel_callback(id);
        k.run_for(SimDuration::from_millis(5));
        assert_eq!(*count.borrow(), 5);
    }

    #[test]
    fn context_switches_are_counted_and_charged() {
        let mut k = Kernel::default();
        let n = k.add_node("n", 1);
        k.spawn(n, "a", cpu_hog()).build();
        k.spawn(n, "b", cpu_hog()).build();
        k.run_for(SimDuration::from_secs(1));
        let stats = k.node_stats(n).unwrap();
        assert!(stats.ctx_switches > 10, "switches: {}", stats.ctx_switches);
        assert!(!stats.overhead.is_zero());
        assert_eq!(stats.busy, SimDuration::from_secs(1));
    }

    #[test]
    fn exited_threads_free_the_cpu() {
        let mut k = Kernel::default();
        let n = k.add_node("n", 1);
        let t = k
            .spawn(n, "short", FixedWork::new(SimDuration::from_millis(1), 1))
            .build();
        let hog = k.spawn(n, "hog", cpu_hog()).build();
        k.run_for(SimDuration::from_secs(1));
        assert_eq!(k.thread_info(t).unwrap().state, ThreadState::Exited);
        let hog_time = k.thread_info(hog).unwrap().cputime.as_secs_f64();
        assert!(hog_time > 0.99, "hog got {hog_time}");
    }

    #[test]
    fn set_nice_rebalances_future_time() {
        let mut k = Kernel::new(zero_switch_config());
        let n = k.add_node("n", 1);
        let a = k.spawn(n, "a", cpu_hog()).build();
        let b = k.spawn(n, "b", cpu_hog()).build();
        k.run_for(SimDuration::from_secs(1));
        k.set_nice(a, Nice::new(-10).unwrap()).unwrap();
        let before_a = k.thread_info(a).unwrap().cputime;
        let before_b = k.thread_info(b).unwrap().cputime;
        k.run_for(SimDuration::from_secs(5));
        let da = (k.thread_info(a).unwrap().cputime - before_a).as_secs_f64();
        let db = (k.thread_info(b).unwrap().cputime - before_b).as_secs_f64();
        let expect = 9548.0 / 1024.0;
        let ratio = da / db;
        assert!(
            (ratio - expect).abs() / expect < 0.08,
            "ratio {ratio} expect {expect}"
        );
    }

    #[test]
    fn move_to_cgroup_changes_accounting() {
        let mut k = Kernel::new(zero_switch_config());
        let n = k.add_node("n", 1);
        let root = k.node_root(n).unwrap();
        let g1 = k.create_cgroup(root, "g1", 1024).unwrap();
        let g2 = k.create_cgroup(root, "g2", 1024).unwrap();
        let a = k.spawn(n, "a", cpu_hog()).cgroup(g1).build();
        let b = k.spawn(n, "b", cpu_hog()).cgroup(g2).build();
        k.run_for(SimDuration::from_secs(1));
        k.move_to_cgroup(a, g2).unwrap();
        k.run_for(SimDuration::from_secs(1));
        assert_eq!(k.thread_info(a).unwrap().cgroup, g2);
        // After the move both threads are in g2 and share fairly.
        let ca = k.thread_info(a).unwrap().cputime.as_secs_f64();
        let cb = k.thread_info(b).unwrap().cputime.as_secs_f64();
        assert!((ca + cb - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cross_node_move_rejected() {
        let mut k = Kernel::default();
        let n1 = k.add_node("n1", 1);
        let n2 = k.add_node("n2", 1);
        let root2 = k.node_root(n2).unwrap();
        let t = k.spawn(n1, "t", cpu_hog()).build();
        assert!(matches!(
            k.move_to_cgroup(t, root2),
            Err(KernelError::CrossNode { .. })
        ));
    }

    #[test]
    fn nodes_are_isolated() {
        let mut k = Kernel::new(zero_switch_config());
        let n1 = k.add_node("n1", 1);
        let n2 = k.add_node("n2", 1);
        let a = k.spawn(n1, "a", cpu_hog()).build();
        let b1 = k.spawn(n2, "b1", cpu_hog()).build();
        let b2 = k.spawn(n2, "b2", cpu_hog()).build();
        k.run_for(SimDuration::from_secs(1));
        assert_eq!(k.thread_info(a).unwrap().cputime, SimDuration::from_secs(1));
        let c1 = k.thread_info(b1).unwrap().cputime.as_secs_f64();
        let c2 = k.thread_info(b2).unwrap().cputime.as_secs_f64();
        assert!((c1 - 0.5).abs() < 0.01 && (c2 - 0.5).abs() < 0.01);
    }

    #[test]
    fn nested_cgroups_share_hierarchically() {
        let mut k = Kernel::new(zero_switch_config());
        let n = k.add_node("n", 1);
        let root = k.node_root(n).unwrap();
        let top = k.create_cgroup(root, "top", 1024).unwrap();
        let inner_a = k.create_cgroup(top, "a", 3072).unwrap();
        let inner_b = k.create_cgroup(top, "b", 1024).unwrap();
        let other = k.create_cgroup(root, "other", 1024).unwrap();
        let a = k.spawn(n, "a", cpu_hog()).cgroup(inner_a).build();
        let b = k.spawn(n, "b", cpu_hog()).cgroup(inner_b).build();
        let c = k.spawn(n, "c", cpu_hog()).cgroup(other).build();
        k.run_for(SimDuration::from_secs(8));
        let ca = k.thread_info(a).unwrap().cputime.as_secs_f64();
        let cb = k.thread_info(b).unwrap().cputime.as_secs_f64();
        let cc = k.thread_info(c).unwrap().cputime.as_secs_f64();
        // top vs other: 50/50; within top: 3:1.
        assert!((cc - 4.0).abs() < 0.25, "other got {cc}");
        assert!((ca / cb - 3.0).abs() < 0.35, "inner ratio {}", ca / cb);
    }

    #[test]
    fn offline_cpu_migrates_running_thread() {
        let mut k = Kernel::new(zero_switch_config());
        let n = k.add_node("n", 2);
        let a = k.spawn(n, "a", cpu_hog()).build();
        let b = k.spawn(n, "b", cpu_hog()).build();
        k.run_for(SimDuration::from_secs(1));
        // Each hog owned one CPU for 1s.
        assert_eq!(k.thread_info(a).unwrap().cputime, SimDuration::from_secs(1));
        assert_eq!(k.thread_info(b).unwrap().cputime, SimDuration::from_secs(1));
        k.offline_cpu(n, 0).unwrap();
        assert_eq!(k.online_cpus(n).unwrap(), 1);
        k.run_for(SimDuration::from_secs(2));
        // Both hogs survive on the one remaining CPU, splitting it fairly.
        let ca = k.thread_info(a).unwrap().cputime.as_secs_f64();
        let cb = k.thread_info(b).unwrap().cputime.as_secs_f64();
        assert!((ca - 2.0).abs() < 0.05, "a got {ca}");
        assert!((cb - 2.0).abs() < 0.05, "b got {cb}");
        assert!((ca + cb - 4.0).abs() < 1e-6, "total {}", ca + cb);
    }

    #[test]
    fn online_cpu_restores_capacity() {
        let mut k = Kernel::new(zero_switch_config());
        let n = k.add_node("n", 2);
        let a = k.spawn(n, "a", cpu_hog()).build();
        let b = k.spawn(n, "b", cpu_hog()).build();
        k.offline_cpu(n, 1).unwrap();
        k.run_for(SimDuration::from_secs(1));
        k.online_cpu(n, 1).unwrap();
        assert_eq!(k.online_cpus(n).unwrap(), 2);
        k.run_for(SimDuration::from_secs(1));
        // 0.5s each on the single CPU, then 1s each in parallel.
        let ca = k.thread_info(a).unwrap().cputime.as_secs_f64();
        let cb = k.thread_info(b).unwrap().cputime.as_secs_f64();
        assert!((ca - 1.5).abs() < 0.05, "a got {ca}");
        assert!((cb - 1.5).abs() < 0.05, "b got {cb}");
    }

    #[test]
    fn offline_last_cpu_rejected() {
        let mut k = Kernel::default();
        let n = k.add_node("n", 1);
        assert_eq!(k.offline_cpu(n, 0), Err(KernelError::LastOnlineCpu(n)));
        let n2 = k.add_node("n2", 2);
        k.offline_cpu(n2, 0).unwrap();
        assert_eq!(k.offline_cpu(n2, 1), Err(KernelError::LastOnlineCpu(n2)));
    }

    #[test]
    fn hotplug_rejects_bad_ids_and_is_idempotent() {
        let mut k = Kernel::default();
        let n = k.add_node("n", 2);
        assert_eq!(
            k.offline_cpu(n, 7),
            Err(KernelError::UnknownCpu { node: n, cpu: 7 })
        );
        assert_eq!(
            k.online_cpu(NodeId(9), 0),
            Err(KernelError::UnknownNode(NodeId(9)))
        );
        k.offline_cpu(n, 1).unwrap();
        k.offline_cpu(n, 1).unwrap(); // no-op
        assert!(!k.cpu_online(n, 1).unwrap());
        k.online_cpu(n, 1).unwrap();
        k.online_cpu(n, 1).unwrap(); // no-op
        assert!(k.cpu_online(n, 1).unwrap());
    }

    #[test]
    fn offline_preserves_vruntime_order_and_cgroups() {
        // Two cgroups with 2:1 shares on 2 CPUs; after losing a CPU the
        // share ratio must persist on the survivor.
        let mut k = Kernel::new(zero_switch_config());
        let n = k.add_node("n", 2);
        let root = k.node_root(n).unwrap();
        let g1 = k.create_cgroup(root, "g1", 2048).unwrap();
        let g2 = k.create_cgroup(root, "g2", 1024).unwrap();
        let a = k.spawn(n, "a", cpu_hog()).cgroup(g1).build();
        let b = k.spawn(n, "b", cpu_hog()).cgroup(g2).build();
        k.run_for(SimDuration::from_secs(1));
        k.offline_cpu(n, 0).unwrap();
        // Settle: g1's group vruntime lagged g2's while each owned a CPU
        // (heavier shares accrue slower), so it first catches up — real
        // CFS lag physics. Measure the steady state after convergence.
        k.run_for(SimDuration::from_secs(2));
        let before_a = k.thread_info(a).unwrap().cputime;
        let before_b = k.thread_info(b).unwrap().cputime;
        k.run_for(SimDuration::from_secs(6));
        assert_eq!(k.thread_info(a).unwrap().cgroup, g1);
        let da = (k.thread_info(a).unwrap().cputime - before_a).as_secs_f64();
        let db = (k.thread_info(b).unwrap().cputime - before_b).as_secs_f64();
        assert!((da / db - 2.0).abs() < 0.25, "ratio {}", da / db);
        assert!((da + db - 6.0).abs() < 1e-6, "survivor capacity {}", da + db);
    }

    #[test]
    fn rt_wake_skips_offline_cpus() {
        // Regression: the RT preemption victim scan used to unwrap every
        // CPU's occupant and would panic on an (empty) offline CPU.
        let mut k = Kernel::default();
        let n = k.add_node("n", 2);
        k.offline_cpu(n, 0).unwrap();
        let hog = k.spawn(n, "hog", cpu_hog()).build();
        // An RT thread that wakes while the only online CPU is busy: the
        // wake-preemption victim scan must skip the empty offline CPU.
        let mut phase = 0u32;
        let rt = k
            .spawn(n, "rt", move |_: &mut SimCtx| {
                phase += 1;
                match phase {
                    1 => Action::Sleep(SimDuration::from_millis(5)),
                    2 => Action::Compute(SimDuration::from_millis(1)),
                    _ => Action::Exit,
                }
            })
            .build();
        k.set_rt_priority(rt, Some(50)).unwrap();
        k.run_for(SimDuration::from_millis(20));
        // The RT thread ran (preempting the hog on the surviving CPU).
        assert!(k.thread_info(rt).unwrap().cputime >= SimDuration::from_millis(1));
        assert!(!k.thread_info(hog).unwrap().cputime.is_zero());
    }

    #[test]
    fn scheduled_hotplug_fires_on_calendar_and_traces() {
        let mut k = Kernel::new(zero_switch_config());
        let handle = k.install_tracing(None);
        let n = k.add_node("n", 2);
        let a = k.spawn(n, "a", cpu_hog()).build();
        k.spawn(n, "b", cpu_hog()).build();
        k.schedule_cpu_offline(SimDuration::from_millis(10), n, 1);
        k.schedule_cpu_online(SimDuration::from_millis(30), n, 1);
        k.run_for(SimDuration::from_millis(40));
        assert!(k.cpu_online(n, 1).unwrap());
        let recs = handle.borrow_mut().drain();
        let off_at = recs
            .iter()
            .find(|r| matches!(r.event, TraceEvent::CpuOffline { node: 0, cpu: 1 }))
            .map(|r| r.at)
            .expect("CpuOffline traced");
        let on_at = recs
            .iter()
            .find(|r| matches!(r.event, TraceEvent::CpuOnline { node: 0, cpu: 1 }))
            .map(|r| r.at)
            .expect("CpuOnline traced");
        assert_eq!(off_at, SimTime::ZERO + SimDuration::from_millis(10));
        assert_eq!(on_at, SimTime::ZERO + SimDuration::from_millis(30));
        // The displaced occupant left a Migration record at the same instant.
        assert!(recs.iter().any(|r| r.at == off_at
            && matches!(r.event, TraceEvent::Migration { .. })));
        // Dead-CPU window: no dispatch onto cpu 1 while it was offline.
        assert!(
            !recs.iter().any(|r| r.at > off_at
                && r.at < on_at
                && matches!(r.event, TraceEvent::Switch { cpu: 1, .. })),
            "thread dispatched onto an offline cpu"
        );
        // debug_dump renders the offline CPU without panicking mid-window.
        k.offline_cpu(n, 1).unwrap();
        assert!(k.debug_dump().contains("offline"));
        let _ = k.thread_info(a).unwrap();
    }

    #[test]
    fn run_until_rejects_past_deadline() {
        let mut k = Kernel::default();
        k.run_for(SimDuration::from_millis(1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            k.run_until(SimTime::ZERO);
        }));
        assert!(result.is_err());
    }
}
