//! The four workloads, built only through public APIs (`deploy`,
//! `LachesisBuilder`, `build_rack`), and the counters the benchmark reads
//! back from `Kernel`, `RunningQuery`, `TimeSeriesStore` and `Cluster`.
//!
//! Every workload is open loop: sources emit on a simulated schedule that
//! never slows down, event times are stamped when a tuple is created, and
//! ingress queues are unbounded, so time a tuple waits before ingestion
//! counts toward its end-to-end latency.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bench::cluster::{Cluster, ClusterShard, MsgKind};
use bench::experiments::rack::{build_rack, RackSpec};
use bench::harness::new_store;
use lachesis::{
    CmdOutbox, CpuSharesTranslator, Lachesis, LachesisBuilder, MirrorDriver, MirrorQuery,
    NiceTranslator, Policy, QueueSizePolicy, RemoteNiceTranslator, Scope, SpeDriver, StoreDriver,
    Translator,
};
use lachesis_metrics::TimeSeriesStore;
use simos::{machines, Kernel, NodeId, SimDuration, SimTime};
use spe::{deploy, EngineConfig, LogHistogram, Placement, RunningQuery, SpeKind};

use crate::probe::{Probe, TimedDriver, TimedPolicy, TimedTranslator};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LrScaleout,
    LrSaturated,
    SynManyops,
    Rack,
}

/// Simulated lengths of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Lengths {
    /// Untimed: fills queues and metric history before measuring.
    pub warmup: SimDuration,
    /// The timed region.
    pub timed: SimDuration,
    /// Untimed: gives tuples offered in the timed region time to be
    /// ingested before the failure count is taken.
    pub drain: SimDuration,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LrScaleout,
        Workload::LrSaturated,
        Workload::SynManyops,
        Workload::Rack,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LrScaleout => "lr-scaleout",
            Workload::LrSaturated => "lr-saturated",
            Workload::SynManyops => "syn-manyops",
            Workload::Rack => "rack",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pass lengths: each timed region takes roughly 2.5–3.5 wall-seconds
    /// on a 2-vCPU machine with the fat-LTO release build, so a 10 s run
    /// sets up and measures at least three times.
    pub fn lengths(self) -> Lengths {
        let s = SimDuration::from_secs;
        let (warmup, timed) = match self {
            Workload::LrScaleout => (s(5), s(75)),
            Workload::LrSaturated => (s(10), s(400)),
            Workload::SynManyops => (s(10), s(400)),
            Workload::Rack => (s(10), s(250)),
        };
        Lengths {
            warmup,
            timed,
            drain: s(5),
        }
    }
}

/// How the rack is laid out over kernels (other workloads have one kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// 8 lockstep shards on 2 worker threads.
    Sharded,
    /// 1 shard, run inline: the reference the sharded digest must match.
    Merged,
}

/// A single-kernel workload.
pub struct Local {
    kernel: Kernel,
    nodes: Vec<NodeId>,
    queries: Vec<RunningQuery>,
    stores: Vec<Rc<RefCell<TimeSeriesStore>>>,
}

pub enum World {
    Local(Box<Local>),
    Rack(Cluster),
}

/// Cumulative counters at one instant. Everything but `ingress` (used
/// per queue for failure accounting) is summed over kernels and queries.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    pub loop_iters: u64,
    pub ctx_switches: u64,
    pub busy_ns: u64,
    pub cpus: u64,
    /// Tuples processed by every operator (`tuples_in`), and in how many
    /// `begin` rounds.
    pub tuples: u64,
    pub batches: u64,
    /// Tuples taken in by ingress operators.
    pub ingested: u64,
    /// Per ingress queue: `(pushed, popped, len)`.
    pub ingress: Vec<(u64, u64, u64)>,
    pub shed: u64,
    pub series: u64,
    /// End-to-end latency per sink (logical egress operator).
    pub sinks: Vec<LogHistogram>,
}

impl Obs {
    fn merge(mut self, other: Obs) -> Obs {
        self.loop_iters += other.loop_iters;
        self.ctx_switches += other.ctx_switches;
        self.busy_ns += other.busy_ns;
        self.cpus += other.cpus;
        self.tuples += other.tuples;
        self.batches += other.batches;
        self.ingested += other.ingested;
        self.ingress.extend(other.ingress);
        self.shed += other.shed;
        self.series += other.series;
        self.sinks.extend(other.sinks);
        self
    }
}

fn observe(
    kernel: &Kernel,
    nodes: &[NodeId],
    queries: &[RunningQuery],
    stores: &[Rc<RefCell<TimeSeriesStore>>],
) -> Obs {
    let mut o = Obs {
        loop_iters: kernel.loop_iterations(),
        ..Obs::default()
    };
    for &n in nodes {
        let s = kernel.node_stats(n).expect("workload node exists");
        o.ctx_switches += s.ctx_switches;
        o.busy_ns += s.busy.as_nanos();
        o.cpus += s.cpus as u64;
    }
    for q in queries {
        for c in q.cells() {
            o.tuples += c.tuples_in();
            o.batches += c.batches();
            if c.is_ingress() {
                let queue = c.in_queue();
                o.ingress
                    .push((queue.pushed(), queue.popped(), queue.len() as u64));
            }
        }
        o.ingested += q.ingress_total();
        o.shed += q.total_shed();
        o.sinks
            .extend(q.sinks().iter().map(|(_, s)| s.borrow().e2e().clone()));
    }
    o.series = stores
        .iter()
        .map(|s| s.borrow().series_count() as u64)
        .sum();
    o
}

/// FNV-1a over per-operator `tuples_in`/`tuples_out`, input queue length
/// and the operator thread's nice and cgroup shares.
fn digest_local(kernel: &Kernel, queries: &[RunningQuery]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for q in queries {
        for c in q.cells() {
            feed(c.tuples_in());
            feed(c.tuples_out());
            feed(c.in_queue().len() as u64);
            let (nice, shares) = match c.thread().and_then(|t| kernel.thread_info(t).ok()) {
                Some(info) => (
                    info.nice.value(),
                    kernel.cgroup_info(info.cgroup).map_or(0, |g| g.shares),
                ),
                None => (0, 0),
            };
            feed(nice as u64);
            feed(shares);
        }
    }
    h
}

/// Adds a driver, wrapped in [`TimedDriver`] when the probe traces.
fn with_driver<D: SpeDriver + 'static>(b: LachesisBuilder, d: D, probe: &Probe) -> LachesisBuilder {
    if probe.traced() {
        b.driver(TimedDriver::new(d, probe.clone()))
    } else {
        b.driver(d)
    }
}

/// Binds a policy and translator, wrapped when the probe traces.
fn bind<P: Policy + 'static, T: Translator + 'static>(
    b: LachesisBuilder,
    driver: usize,
    scope: Scope,
    policy: P,
    translator: T,
    probe: &Probe,
) -> LachesisBuilder {
    if probe.traced() {
        let p = TimedPolicy::new(policy, probe.clone());
        b.policy(
            driver,
            scope,
            p,
            TimedTranslator::new(translator, probe.clone()),
        )
    } else {
        b.policy(driver, scope, policy, translator)
    }
}

/// Back-to-back replays of one Lachesis round per pass (the warm footprint).
const REPLAYS: usize = 2_000;

/// Starts `live` exactly as `Lachesis::start` does — a periodic kernel
/// callback at the wake period calling `run_if_due` — with each wake timed
/// in place. `twin`, built the same way, replays a full round [`REPLAYS`]
/// times at `replay_at`, after everything else is measured, calling
/// `after_replay` after each one.
fn start(
    kernel: &mut Kernel,
    probe: &Probe,
    replay_at: SimTime,
    mut live: Lachesis,
    mut twin: Lachesis,
    mut after_replay: impl FnMut() + 'static,
) {
    let period = live.wake_period();
    let log = live.fault_log();
    let recorder = probe.clone();
    let mut seen = 0;
    kernel.schedule_periodic(period, period, move |k| {
        let begin = Instant::now();
        // Persistent errors are also recorded in the fault log.
        let _ = live.run_if_due(k);
        recorder.round(begin, Instant::now());
        let errors = log.borrow().total_errors();
        recorder.errors(errors - seen);
        seen = errors;
    });
    // The twin has never run, so every binding in its initial snapshot is
    // due: restoring it makes the next `run_if_due` a full round again.
    let fresh = twin.snapshot();
    let recorder = probe.clone();
    kernel.schedule_once(replay_at.duration_since(kernel.now()), move |k| {
        for _ in 0..REPLAYS {
            twin.restore(&fresh)
                .expect("a snapshot restores into its own instance");
            let begin = Instant::now();
            let _ = twin.run_if_due(k);
            recorder.replay(begin, Instant::now());
            after_replay();
        }
        recorder.errors(twin.fault_log().borrow().total_errors());
    });
}

/// LR on `parallelism` Odroids under Storm, one independent Lachesis
/// (QS + nice) per node, as in the paper's scale-out setup (§6.5).
fn build_lr(parallelism: usize, rate: f64, seed: u64, probe: &Probe, replay_at: SimTime) -> Local {
    let mut kernel = Kernel::new(machines::odroid_config());
    let nodes: Vec<NodeId> = (0..parallelism)
        .map(|i| machines::add_odroid(&mut kernel, &format!("odroid{i}")))
        .collect();
    let store = new_store();
    let mut config = EngineConfig::storm();
    config.seed = seed;
    let query = deploy(
        &mut kernel,
        queries::lr_with_parallelism(rate, seed, parallelism),
        config,
        &Placement::spread(nodes.clone()),
        Some(Rc::clone(&store)),
    )
    .expect("deploy LR");
    for &node in &nodes {
        let build = |p: &Probe| {
            let driver = StoreDriver::storm(vec![query.clone()], Rc::clone(&store));
            let b = with_driver(LachesisBuilder::new(), driver, p);
            let policy = QueueSizePolicy::default();
            bind(b, 0, Scope::Node(node), policy, NiceTranslator::new(), p).build()
        };
        let (live, twin) = (build(probe), build(&Probe::new(false)));
        start(&mut kernel, probe, replay_at, live, twin, || {});
    }
    Local {
        kernel,
        nodes,
        queries: vec![query],
        stores: vec![store],
    }
}

/// 100 SYN pipelines of 5 operators on one 8-CPU server under Liebre,
/// Lachesis QS + cpu.shares with one cgroup per operator (§6.4 shape).
fn build_syn(seed: u64, probe: &Probe, replay_at: SimTime) -> Local {
    let mut kernel = Kernel::new(machines::server_config());
    let node = machines::add_server(&mut kernel, "xeon");
    let store = new_store();
    let graph = queries::syn(
        1_500.0,
        queries::SynConfig {
            queries: 100,
            seed,
            ..queries::SynConfig::default()
        },
    );
    let mut config = EngineConfig::liebre();
    config.seed = seed;
    let query = deploy(
        &mut kernel,
        graph,
        config,
        &Placement::single(node),
        Some(Rc::clone(&store)),
    )
    .expect("deploy SYN");
    let build = |p: &Probe| {
        let driver = StoreDriver::liebre(vec![query.clone()], Rc::clone(&store));
        let b = with_driver(LachesisBuilder::new(), driver, p);
        let policy = QueueSizePolicy::default();
        bind(
            b,
            0,
            Scope::AllQueries,
            policy,
            CpuSharesTranslator::new("qs"),
            p,
        )
        .build()
    };
    let (live, twin) = (build(probe), build(&Probe::new(false)));
    start(&mut kernel, probe, replay_at, live, twin, || {});
    Local {
        kernel,
        nodes: vec![node],
        queries: vec![query],
        stores: vec![store],
    }
}

fn rack_spec(seed: u64, layout: Layout) -> RackSpec {
    let (shards, shard_threads) = match layout {
        Layout::Sharded => (8, 2),
        Layout::Merged => (1, 1),
    };
    RackSpec {
        nodes: 9,
        shards,
        shard_threads,
        latency: SimDuration::from_millis(1),
        pipelines: 3,
        rate_tps: 100.0,
        with_lachesis: false,
        seed,
    }
}

/// The controller's Lachesis on rack node 0: one `MirrorDriver` per worker
/// fed by relayed metrics, QS, and `RemoteNiceTranslator`s sending nice
/// commands over the fabric — the same wiring as the figd1 controller.
fn add_controller(spec: &RackSpec, shard: &mut ClusterShard, probe: &Probe, replay_at: SimTime) {
    let store = Rc::clone(shard.node(0).store());
    let build = |p: &Probe, outbox: &CmdOutbox| {
        let mut b = LachesisBuilder::new();
        for dst in 1..spec.nodes {
            let mirrors: Vec<MirrorQuery> = spec
                .node_graphs(dst)
                .iter()
                .map(|g| MirrorQuery::new(g, false))
                .collect();
            let driver = MirrorDriver::new(
                &format!("liebre@n{dst}"),
                SpeKind::Liebre,
                mirrors,
                Rc::clone(&store),
            );
            let translator = RemoteNiceTranslator::new(dst, Rc::clone(outbox));
            b = with_driver(b, driver, p);
            b = bind(
                b,
                dst - 1,
                Scope::AllQueries,
                QueueSizePolicy::default(),
                translator,
                p,
            );
        }
        b.build()
    };
    let outbox: CmdOutbox = Rc::new(RefCell::new(Vec::new()));
    // The twin's commands are never delivered: its own outbox is emptied
    // after each replay, so replays leave nothing behind.
    let twin_outbox: CmdOutbox = Rc::new(RefCell::new(Vec::new()));
    let live = build(probe, &outbox);
    let twin = build(&Probe::new(false), &twin_outbox);
    start(&mut shard.kernel, probe, replay_at, live, twin, move || {
        twin_outbox.borrow_mut().clear()
    });
    shard.set_cmd_outbox(0, outbox);
}

fn build_rack_world(seed: u64, layout: Layout, probe: &Probe, replay_at: SimTime) -> Cluster {
    let spec = rack_spec(seed, layout);
    let mut cluster = build_rack(&spec);
    cluster.map_shards(|_| {
        let spec = spec.clone();
        let probe = probe.clone();
        Box::new(move |s: &mut ClusterShard| {
            if s.rack_ids().contains(&0) {
                add_controller(&spec, s, &probe, replay_at);
            }
        })
    });
    cluster
}

/// Fabric deliveries by payload kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deliveries {
    pub tuple: u64,
    pub metric: u64,
    pub cmd: u64,
}

impl World {
    /// Builds the workload; the warm footprint replays run at the end of
    /// the pass described by `len`.
    pub fn build(w: Workload, seed: u64, layout: Layout, len: Lengths, probe: &Probe) -> World {
        let replay_at = SimTime::ZERO + len.warmup + len.timed + len.drain;
        match w {
            Workload::LrScaleout => {
                World::Local(Box::new(build_lr(8, 16_000.0, seed, probe, replay_at)))
            }
            Workload::LrSaturated => {
                World::Local(Box::new(build_lr(1, 5_000.0, seed, probe, replay_at)))
            }
            Workload::SynManyops => World::Local(Box::new(build_syn(seed, probe, replay_at))),
            Workload::Rack => World::Rack(build_rack_world(seed, layout, probe, replay_at)),
        }
    }

    pub fn now(&self) -> SimTime {
        match self {
            World::Local(l) => l.kernel.now(),
            World::Rack(c) => c.now(),
        }
    }

    pub fn run_until(&mut self, t: SimTime) {
        match self {
            World::Local(l) => l.kernel.run_until(t),
            World::Rack(c) => c.run_until(t),
        }
    }

    /// Discards warm-up statistics of every query.
    pub fn reset_stats(&mut self) {
        match self {
            World::Local(l) => l.queries.iter().for_each(RunningQuery::reset_stats),
            World::Rack(c) => {
                c.map_shards(|_| {
                    Box::new(|s: &mut ClusterShard| {
                        for nr in s.rack_nodes() {
                            nr.queries().iter().for_each(RunningQuery::reset_stats);
                        }
                    })
                });
            }
        }
    }

    pub fn observe(&mut self) -> Obs {
        match self {
            World::Local(l) => observe(&l.kernel, &l.nodes, &l.queries, &l.stores),
            World::Rack(c) => c
                .map_shards(|_| {
                    Box::new(|s: &mut ClusterShard| {
                        let nodes: Vec<NodeId> = s.rack_nodes().iter().map(|n| n.node()).collect();
                        let queries: Vec<RunningQuery> = s
                            .rack_nodes()
                            .iter()
                            .flat_map(|n| n.queries().iter().cloned())
                            .collect();
                        let stores: Vec<_> = s
                            .rack_nodes()
                            .iter()
                            .map(|n| Rc::clone(n.store()))
                            .collect();
                        observe(&s.kernel, &nodes, &queries, &stores)
                    })
                })
                .into_iter()
                .fold(Obs::default(), Obs::merge),
        }
    }

    /// A digest of the simulated state; the rack's is layout-invariant.
    pub fn digest(&mut self) -> u64 {
        match self {
            World::Local(l) => digest_local(&l.kernel, &l.queries),
            World::Rack(c) => c.snapshot().digest(),
        }
    }

    /// `Kernel::debug_check_runqueues` on every kernel.
    pub fn check_runqueues(&mut self) -> Result<(), String> {
        match self {
            World::Local(l) => l.kernel.debug_check_runqueues(),
            World::Rack(c) => c
                .map_shards(|_| Box::new(|s: &mut ClusterShard| s.kernel.debug_check_runqueues()))
                .into_iter()
                .collect(),
        }
    }

    /// Replays the rack's fabric journal with `validate_cluster` and counts
    /// the deliveries that landed in `(from, to]`. `None` for one kernel.
    pub fn deliveries(&self, from: SimTime, to: SimTime) -> Option<Result<Deliveries, String>> {
        let World::Rack(c) = self else { return None };
        let checked = bench::trace::validate_cluster(c.journal(), c.topology()).map(|_| {
            let mut d = Deliveries::default();
            for r in c.journal() {
                if r.delivered_at > from && r.delivered_at <= to {
                    match r.kind {
                        MsgKind::Tuple => d.tuple += 1,
                        MsgKind::Metric => d.metric += 1,
                        MsgKind::Cmd => d.cmd += 1,
                    }
                }
            }
            d
        });
        Some(checked)
    }
}
