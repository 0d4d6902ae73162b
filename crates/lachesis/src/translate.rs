//! Translation policies (paper Def. 3.3, §5.3): turn a schedule's real
//! priorities into OS scheduling parameters.
//!
//! * [`NiceTranslator`] maps per-operator priorities to thread `nice`
//!   values (40 discrete levels);
//! * [`CpuSharesTranslator`] maps grouped priorities to per-cgroup
//!   `cpu.shares` (used when nice's 40 levels are not enough, §6.4, or for
//!   multi-dimensional schedules);
//! * [`CombinedTranslator`] nests both: a cgroup per query with equal
//!   shares, `nice` per operator inside — the paper's multi-SPE server
//!   schedule (§6.6).

use std::collections::HashMap;
use std::fmt;

use simos::{CgroupId, Kernel, KernelError, NodeId, ThreadId};

use crate::driver::SpeDriver;
use crate::entity::OpRef;
use crate::normalize::{to_nice_in_range, to_shares, PriorityKind};
use crate::schedule::{GroupingSchedule, Schedule, SinglePrioritySchedule};

/// Errors from applying a schedule to the OS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// The operator has no bound kernel thread.
    MissingThread(OpRef),
    /// The underlying kernel rejected an operation.
    Kernel(KernelError),
    /// The translator cannot consume this schedule format.
    WrongFormat {
        /// The translator's name.
        translator: &'static str,
        /// What it expected.
        expected: &'static str,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::MissingThread(op) => {
                write!(f, "operator {op} has no kernel thread to schedule")
            }
            TranslateError::Kernel(e) => write!(f, "kernel error: {e}"),
            TranslateError::WrongFormat {
                translator,
                expected,
            } => write!(f, "{translator} translator expects a {expected} schedule"),
        }
    }
}

impl std::error::Error for TranslateError {}

impl From<KernelError> for TranslateError {
    fn from(e: KernelError) -> Self {
        TranslateError::Kernel(e)
    }
}

/// A translation policy.
pub trait Translator {
    /// The translator's display name.
    fn name(&self) -> &str;

    /// Applies a schedule through an OS mechanism.
    ///
    /// # Errors
    ///
    /// Fails on unsupported schedule formats, unbound operator threads, or
    /// kernel errors.
    fn apply(
        &mut self,
        kernel: &mut Kernel,
        driver: &dyn SpeDriver,
        schedule: &Schedule,
        kind: PriorityKind,
    ) -> Result<(), TranslateError>;
}

impl Translator for Box<dyn Translator> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }
    fn apply(
        &mut self,
        kernel: &mut Kernel,
        driver: &dyn SpeDriver,
        schedule: &Schedule,
        kind: PriorityKind,
    ) -> Result<(), TranslateError> {
        self.as_mut().apply(kernel, driver, schedule, kind)
    }
}

/// Applies single-priority schedules via thread `nice` values.
///
/// By default priorities map onto nice `[-5, 5]` rather than the full
/// `[-20, 19]`: one nice step is ~25% relative CPU, so ±5 already spans a
/// ~9x weight ratio — enough to steer capacity toward bottlenecks while
/// keeping the once-per-second feedback loop stable (a full-range mapping
/// starves low-priority operators for seconds at a time, oscillating; see
/// EXPERIMENTS.md calibration notes).
#[derive(Debug)]
pub struct NiceTranslator {
    lo: i32,
    hi: i32,
}

impl Default for NiceTranslator {
    fn default() -> Self {
        NiceTranslator::new()
    }
}

impl NiceTranslator {
    /// Creates the translator with the default `[-5, 5]` range.
    pub fn new() -> Self {
        NiceTranslator { lo: -5, hi: 5 }
    }

    /// Overrides the target nice range.
    ///
    /// # Panics
    ///
    /// Panics unless `-20 <= lo < hi <= 19`.
    pub fn with_range(lo: i32, hi: i32) -> Self {
        assert!((-20..=19).contains(&lo) && (-20..=19).contains(&hi) && lo < hi);
        NiceTranslator { lo, hi }
    }
}

impl Translator for NiceTranslator {
    fn name(&self) -> &str {
        "nice"
    }

    fn apply(
        &mut self,
        kernel: &mut Kernel,
        driver: &dyn SpeDriver,
        schedule: &Schedule,
        kind: PriorityKind,
    ) -> Result<(), TranslateError> {
        let Schedule::Single(s) = schedule else {
            return Err(TranslateError::WrongFormat {
                translator: "nice",
                expected: "single-priority",
            });
        };
        apply_nice(kernel, driver, s, kind, self.lo, self.hi)
    }
}

fn apply_nice(
    kernel: &mut Kernel,
    driver: &dyn SpeDriver,
    s: &SinglePrioritySchedule,
    kind: PriorityKind,
    lo: i32,
    hi: i32,
) -> Result<(), TranslateError> {
    if s.is_empty() {
        return Ok(());
    }
    let values = s.values();
    let nices = to_nice_in_range(&values, kind, lo, hi);
    for ((op, _), nice) in s.iter().zip(nices) {
        let tid = driver
            .thread_of(op)
            .ok_or(TranslateError::MissingThread(op))?;
        kernel.set_nice(tid, nice)?;
    }
    Ok(())
}

/// The cgroups a translator materializes: one root per node (named
/// `root_name`, under the node's root cgroup) and one child per group id.
#[derive(Debug)]
pub(crate) struct CgroupTree {
    root_name: String,
    roots: HashMap<NodeId, CgroupId>,
    groups: HashMap<NodeId, HashMap<String, CgroupId>>,
}

impl CgroupTree {
    pub(crate) fn new(root_name: String) -> CgroupTree {
        CgroupTree {
            root_name,
            roots: HashMap::new(),
            groups: HashMap::new(),
        }
    }

    /// Number of group cgroups created so far, over all nodes.
    fn len(&self) -> usize {
        self.groups.values().map(HashMap::len).sum()
    }

    /// The cgroup of group `gid` on `node`, created (with `shares`, and
    /// the node's root first if needed) on first use.
    pub(crate) fn cgroup(
        &mut self,
        kernel: &mut Kernel,
        node: NodeId,
        gid: &str,
        shares: u64,
    ) -> Result<CgroupId, TranslateError> {
        if let Some(&cg) = self.groups.get(&node).and_then(|g| g.get(gid)) {
            return Ok(cg);
        }
        let root = match self.roots.get(&node) {
            Some(&r) => r,
            None => {
                let node_root = kernel.node_root(node)?;
                let r = kernel.create_cgroup(node_root, &self.root_name, 1024)?;
                self.roots.insert(node, r);
                r
            }
        };
        let cg = kernel.create_cgroup(root, gid, shares)?;
        self.groups.entry(node).or_default().insert(gid.to_owned(), cg);
        Ok(cg)
    }
}

/// The one-group-per-operator view of a single-priority schedule
/// ([`GroupingSchedule::per_operator`]), kept across rounds and rebuilt
/// only when the schedule's operator set changes.
///
/// Groups are visited in the lexicographic order of their ids
/// (`q0/op10` before `q0/op2`), exactly as the `BTreeMap` of a
/// `GroupingSchedule` iterates them: that order fixes which cgroup is
/// created first, and so the kernel's cgroup ids, sequence numbers and the
/// order of `SharesChange`/`Migration` trace events.
#[derive(Debug, Default)]
pub(crate) struct PerOperatorPlan {
    /// The scheduled operators, in schedule order.
    ops: Vec<OpRef>,
    /// Positions into `ops`, sorted by group id (`q{query}/op{op}`).
    order: Vec<usize>,
    /// Each operator's last resolved `(node, cgroup)`, in schedule order.
    placed: Vec<Option<(NodeId, CgroupId)>>,
}

impl PerOperatorPlan {
    /// Rebuilds the plan if `s` schedules a different operator set, and
    /// returns the priorities in group-id order.
    pub(crate) fn refresh(&mut self, s: &SinglePrioritySchedule) -> Vec<f64> {
        if !self.ops.iter().copied().eq(s.iter().map(|(op, _)| op)) {
            self.ops = s.iter().map(|(op, _)| op).collect();
            self.order = (0..self.ops.len()).collect();
            let ops = &self.ops;
            self.order.sort_by_cached_key(|&i| ops[i].to_string());
            self.placed = vec![None; self.ops.len()];
        }
        let values = s.values();
        self.order.iter().map(|&i| values[i]).collect()
    }

    /// Places the `k`-th operator in group-id order (zip `k` with the
    /// priorities [`refresh`](PerOperatorPlan::refresh) returned): its
    /// thread, that thread's node, and its group's cgroup there — the
    /// cached one while the node is unchanged, else looked up (or created
    /// with `shares`) in `tree`.
    pub(crate) fn place(
        &mut self,
        tree: &mut CgroupTree,
        kernel: &mut Kernel,
        driver: &dyn SpeDriver,
        k: usize,
        shares: u64,
    ) -> Result<(ThreadId, NodeId, CgroupId), TranslateError> {
        let i = self.order[k];
        let op = self.ops[i];
        let tid = driver
            .thread_of(op)
            .ok_or(TranslateError::MissingThread(op))?;
        let node = kernel.thread_node(tid)?;
        if let Some((n, cg)) = self.placed[i] {
            if n == node {
                return Ok((tid, node, cg));
            }
        }
        let cg = tree.cgroup(kernel, node, &op.to_string(), shares)?;
        self.placed[i] = Some((node, cg));
        Ok((tid, node, cg))
    }
}

/// Applies grouping schedules via cgroup `cpu.shares`.
///
/// Groups are materialized lazily as cgroups under a per-node root (the
/// paper nests SPE threads under a custom root cgroup, §6.1); operator
/// threads are moved into their group's cgroup and the group priority is
/// normalized into a shares value. Single-priority schedules degrade to one
/// group per operator (§6.4's 100-operator setup).
pub struct CpuSharesTranslator {
    tree: CgroupTree,
    plan: PerOperatorPlan,
    shares_range: (u64, u64),
}

impl fmt::Debug for CpuSharesTranslator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CpuSharesTranslator")
            .field("groups", &self.tree.len())
            .field("shares_range", &self.shares_range)
            .finish_non_exhaustive()
    }
}

impl CpuSharesTranslator {
    /// Creates the translator; cgroups are created under each node's root
    /// on first use. `label` namespaces this translator's cgroups.
    pub fn new(label: &str) -> Self {
        CpuSharesTranslator {
            tree: CgroupTree::new(format!("lachesis-{label}")),
            plan: PerOperatorPlan::default(),
            shares_range: (205, 2048),
        }
    }

    /// Overrides the shares normalization range.
    pub fn with_shares_range(mut self, lo: u64, hi: u64) -> Self {
        assert!(lo < hi, "invalid shares range");
        self.shares_range = (lo, hi);
        self
    }

    fn apply_grouped(
        &mut self,
        kernel: &mut Kernel,
        driver: &dyn SpeDriver,
        g: &GroupingSchedule,
        kind: PriorityKind,
    ) -> Result<(), TranslateError> {
        if g.is_empty() {
            return Ok(());
        }
        let priorities: Vec<f64> = g.iter().map(|(_, p, _)| p).collect();
        let (lo, hi) = self.shares_range;
        let shares = to_shares(&priorities, kind, lo, hi);
        for ((gid, _, ops), share) in g.iter().zip(shares) {
            for &op in ops {
                let tid = driver
                    .thread_of(op)
                    .ok_or(TranslateError::MissingThread(op))?;
                let node = kernel.thread_node(tid)?;
                let cg = self.tree.cgroup(kernel, node, gid, share)?;
                kernel.set_cpu_shares(cg, share)?;
                kernel.move_to_cgroup(tid, cg)?;
            }
        }
        Ok(())
    }

    /// [`apply_grouped`](Self::apply_grouped) on
    /// `GroupingSchedule::per_operator(s)`, without building it.
    fn apply_single(
        &mut self,
        kernel: &mut Kernel,
        driver: &dyn SpeDriver,
        s: &SinglePrioritySchedule,
        kind: PriorityKind,
    ) -> Result<(), TranslateError> {
        if s.is_empty() {
            return Ok(());
        }
        let priorities = self.plan.refresh(s);
        let (lo, hi) = self.shares_range;
        let shares = to_shares(&priorities, kind, lo, hi);
        for (k, share) in shares.into_iter().enumerate() {
            let (tid, _, cg) = self.plan.place(&mut self.tree, kernel, driver, k, share)?;
            kernel.set_cpu_shares(cg, share)?;
            kernel.move_to_cgroup(tid, cg)?;
        }
        Ok(())
    }
}

impl Translator for CpuSharesTranslator {
    fn name(&self) -> &str {
        "cpu.shares"
    }

    fn apply(
        &mut self,
        kernel: &mut Kernel,
        driver: &dyn SpeDriver,
        schedule: &Schedule,
        kind: PriorityKind,
    ) -> Result<(), TranslateError> {
        match schedule {
            Schedule::Grouped(g) => self.apply_grouped(kernel, driver, g, kind),
            Schedule::Single(s) => self.apply_single(kernel, driver, s, kind),
        }
    }
}

/// Multi-dimensional translation (paper §6.6): every query gets its own
/// cgroup with **equal** `cpu.shares`, and operators are prioritized with
/// `nice` *inside* their query's group.
pub struct CombinedTranslator {
    shares: CpuSharesTranslator,
}

impl fmt::Debug for CombinedTranslator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CombinedTranslator").finish_non_exhaustive()
    }
}

impl CombinedTranslator {
    /// Creates the translator; `label` namespaces its cgroups.
    pub fn new(label: &str) -> Self {
        CombinedTranslator {
            shares: CpuSharesTranslator::new(label),
        }
    }
}

impl Translator for CombinedTranslator {
    fn name(&self) -> &str {
        "nice+cpu.shares"
    }

    fn apply(
        &mut self,
        kernel: &mut Kernel,
        driver: &dyn SpeDriver,
        schedule: &Schedule,
        kind: PriorityKind,
    ) -> Result<(), TranslateError> {
        let Schedule::Single(s) = schedule else {
            return Err(TranslateError::WrongFormat {
                translator: "nice+cpu.shares",
                expected: "single-priority",
            });
        };
        // Dimension 1: equal-share cgroup per query.
        let mut by_query: HashMap<usize, Vec<OpRef>> = HashMap::new();
        for (op, _) in s.iter() {
            by_query.entry(op.query).or_default().push(op);
        }
        let mut grouping = GroupingSchedule::new();
        for (q, ops) in by_query {
            grouping.set_group(
                &format!("{}-q{}", driver.name(), q),
                1.0,
                ops,
            );
        }
        self.shares
            .apply_grouped(kernel, driver, &grouping, PriorityKind::Linear)?;
        // Dimension 2: nice per operator (effective within each cgroup).
        apply_nice(kernel, driver, s, kind, -5, 5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::{FixedWork, Nice, SimDuration};
    use spe::SpeKind;

    /// A driver over real kernel threads but no real queries: operator
    /// `(q, o)` runs on `threads[q * per_query + o]`.
    struct ThreadDriver {
        threads: Vec<simos::ThreadId>,
        per_query: usize,
    }
    impl lachesis_metrics::MetricSource<OpRef> for ThreadDriver {
        fn source_name(&self) -> &str {
            "td"
        }
        fn provides(&self, _m: lachesis_metrics::MetricName) -> bool {
            false
        }
        fn fetch(&self, _m: lachesis_metrics::MetricName) -> lachesis_metrics::EntityValues<OpRef> {
            Default::default()
        }
    }
    impl SpeDriver for ThreadDriver {
        fn name(&self) -> &str {
            "td"
        }
        fn kind(&self) -> SpeKind {
            SpeKind::Storm
        }
        fn queries(&self) -> Vec<spe::RunningQuery> {
            Vec::new()
        }
        fn entities(&self) -> Vec<OpRef> {
            (0..self.threads.len()).map(|o| OpRef::new(0, o)).collect()
        }
        fn thread_of(&self, op: OpRef) -> Option<simos::ThreadId> {
            if op.op >= self.per_query {
                return None;
            }
            self.threads.get(op.query * self.per_query + op.op).copied()
        }
        fn downstream(&self, _op: OpRef) -> Vec<OpRef> {
            vec![]
        }
        fn physical_of(&self, _query: usize, logical: usize) -> Vec<OpRef> {
            vec![OpRef::new(0, logical)]
        }
        fn logical_of(&self, op: OpRef) -> Vec<usize> {
            vec![op.op]
        }
        fn is_egress(&self, _op: OpRef) -> bool {
            false
        }
    }

    fn setup(n: usize) -> (Kernel, ThreadDriver) {
        let mut kernel = Kernel::default();
        let node = kernel.add_node("n", 2);
        let threads = (0..n)
            .map(|i| {
                kernel
                    .spawn(
                        node,
                        &format!("t{i}"),
                        FixedWork::endless(SimDuration::from_micros(100)),
                    )
                    .build()
            })
            .collect();
        (kernel, ThreadDriver { threads, per_query: n })
    }

    #[test]
    fn nice_translator_sets_inverted_priorities() {
        let (mut kernel, driver) = setup(3);
        let s: SinglePrioritySchedule = [
            (OpRef::new(0, 0), 0.0),
            (OpRef::new(0, 1), 100.0),
            (OpRef::new(0, 2), 50.0),
        ]
        .into_iter()
        .collect();
        NiceTranslator::new()
            .apply(
                &mut kernel,
                &driver,
                &Schedule::Single(s),
                PriorityKind::Linear,
            )
            .unwrap();
        // Default range is [-5, 5].
        let n0 = kernel.thread_info(driver.threads[0]).unwrap().nice;
        let n1 = kernel.thread_info(driver.threads[1]).unwrap().nice;
        let n2 = kernel.thread_info(driver.threads[2]).unwrap().nice;
        assert_eq!(n0, Nice::new(5).unwrap(), "lowest priority => highest nice");
        assert_eq!(n1, Nice::new(-5).unwrap(), "highest priority => lowest nice");
        assert!(n2 > n1 && n2 < n0);
        // A custom full range reaches the extremes.
        let s2: SinglePrioritySchedule = [
            (OpRef::new(0, 0), 0.0),
            (OpRef::new(0, 1), 100.0),
            (OpRef::new(0, 2), 50.0),
        ]
        .into_iter()
        .collect();
        NiceTranslator::with_range(-20, 19)
            .apply(
                &mut kernel,
                &driver,
                &Schedule::Single(s2),
                PriorityKind::Linear,
            )
            .unwrap();
        assert_eq!(
            kernel.thread_info(driver.threads[1]).unwrap().nice,
            Nice::MIN
        );
    }

    #[test]
    fn nice_translator_rejects_grouped() {
        let (mut kernel, driver) = setup(1);
        let err = NiceTranslator::new()
            .apply(
                &mut kernel,
                &driver,
                &Schedule::Grouped(GroupingSchedule::new()),
                PriorityKind::Linear,
            )
            .unwrap_err();
        assert!(matches!(err, TranslateError::WrongFormat { .. }));
    }

    #[test]
    fn shares_translator_creates_cgroups_and_moves_threads() {
        let (mut kernel, driver) = setup(4);
        let mut g = GroupingSchedule::new();
        g.set_group("hot", 10.0, vec![OpRef::new(0, 0), OpRef::new(0, 1)]);
        g.set_group("cold", 1.0, vec![OpRef::new(0, 2), OpRef::new(0, 3)]);
        let mut tr = CpuSharesTranslator::new("test");
        tr.apply(
            &mut kernel,
            &driver,
            &Schedule::Grouped(g),
            PriorityKind::Linear,
        )
        .unwrap();
        let cg0 = kernel.thread_info(driver.threads[0]).unwrap().cgroup;
        let cg1 = kernel.thread_info(driver.threads[1]).unwrap().cgroup;
        let cg2 = kernel.thread_info(driver.threads[2]).unwrap().cgroup;
        assert_eq!(cg0, cg1, "same group, same cgroup");
        assert_ne!(cg0, cg2);
        let hot = kernel.cgroup_info(cg0).unwrap();
        let cold = kernel.cgroup_info(cg2).unwrap();
        assert!(hot.shares > cold.shares);
        // Re-applying with swapped priorities updates shares in place.
        let mut g2 = GroupingSchedule::new();
        g2.set_group("hot", 1.0, vec![OpRef::new(0, 0), OpRef::new(0, 1)]);
        g2.set_group("cold", 10.0, vec![OpRef::new(0, 2), OpRef::new(0, 3)]);
        tr.apply(
            &mut kernel,
            &driver,
            &Schedule::Grouped(g2),
            PriorityKind::Linear,
        )
        .unwrap();
        let hot2 = kernel.cgroup_info(cg0).unwrap();
        let cold2 = kernel.cgroup_info(cg2).unwrap();
        assert!(cold2.shares > hot2.shares);
        assert_eq!(
            kernel.thread_info(driver.threads[0]).unwrap().cgroup,
            cg0,
            "no churn: same cgroup reused"
        );
    }

    #[test]
    fn shares_translator_accepts_single_priority() {
        let (mut kernel, driver) = setup(2);
        let s: SinglePrioritySchedule = [(OpRef::new(0, 0), 1.0), (OpRef::new(0, 1), 5.0)]
            .into_iter()
            .collect();
        CpuSharesTranslator::new("t")
            .apply(
                &mut kernel,
                &driver,
                &Schedule::Single(s),
                PriorityKind::Linear,
            )
            .unwrap();
        let cg0 = kernel.thread_info(driver.threads[0]).unwrap().cgroup;
        let cg1 = kernel.thread_info(driver.threads[1]).unwrap().cgroup;
        assert_ne!(cg0, cg1, "one cgroup per operator");
    }

    #[test]
    fn combined_translator_nests_dimensions() {
        let (mut kernel, driver) = setup(2);
        let s: SinglePrioritySchedule = [(OpRef::new(0, 0), 1.0), (OpRef::new(0, 1), 5.0)]
            .into_iter()
            .collect();
        CombinedTranslator::new("t")
            .apply(
                &mut kernel,
                &driver,
                &Schedule::Single(s),
                PriorityKind::Linear,
            )
            .unwrap();
        let i0 = kernel.thread_info(driver.threads[0]).unwrap();
        let i1 = kernel.thread_info(driver.threads[1]).unwrap();
        assert_eq!(i0.cgroup, i1.cgroup, "same query, same cgroup");
        assert!(i0.nice > i1.nice, "nice differentiates inside the group");
    }

    #[test]
    fn combined_translator_rejects_grouped() {
        let (mut kernel, driver) = setup(1);
        let err = CombinedTranslator::new("t")
            .apply(
                &mut kernel,
                &driver,
                &Schedule::Grouped(GroupingSchedule::new()),
                PriorityKind::Linear,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            TranslateError::WrongFormat {
                translator: "nice+cpu.shares",
                ..
            }
        ));
    }

    #[test]
    fn kernel_refusal_surfaces_as_kernel_error() {
        let (mut kernel, driver) = setup(2);
        kernel.set_fault_hook(|op, _| op == "set_nice");
        let s: SinglePrioritySchedule = [(OpRef::new(0, 0), 1.0), (OpRef::new(0, 1), 5.0)]
            .into_iter()
            .collect();
        let err = NiceTranslator::new()
            .apply(
                &mut kernel,
                &driver,
                &Schedule::Single(s),
                PriorityKind::Linear,
            )
            .unwrap_err();
        assert!(
            matches!(err, TranslateError::Kernel(simos::KernelError::InjectedFault { .. })),
            "got {err:?}"
        );
        // The refusal left no partial nice changes behind.
        for &tid in &driver.threads {
            assert_eq!(kernel.thread_info(tid).unwrap().nice, Nice::DEFAULT);
        }
    }

    #[test]
    fn missing_thread_is_an_error() {
        let (mut kernel, _) = setup(0);
        let driver = ThreadDriver { threads: vec![], per_query: 0 };
        let s: SinglePrioritySchedule = [(OpRef::new(0, 0), 1.0)].into_iter().collect();
        let err = NiceTranslator::new()
            .apply(
                &mut kernel,
                &driver,
                &Schedule::Single(s),
                PriorityKind::Linear,
            )
            .unwrap_err();
        assert_eq!(err, TranslateError::MissingThread(OpRef::new(0, 0)));
    }

    /// `queries × ops` traced threads over two nodes: operator `(q, o)`
    /// runs on node `(q + o) % 2`.
    fn grid(queries: usize, ops: usize) -> (Kernel, ThreadDriver) {
        let mut kernel = Kernel::default();
        let nodes = [kernel.add_node("a", 2), kernel.add_node("b", 4)];
        let threads = (0..queries * ops)
            .map(|i| {
                let (q, o) = (i / ops, i % ops);
                kernel
                    .spawn(
                        nodes[(q + o) % 2],
                        &format!("q{q}op{o}"),
                        FixedWork::endless(SimDuration::from_micros(100)),
                    )
                    .build()
            })
            .collect();
        kernel.install_tracing(None);
        (kernel, ThreadDriver { threads, per_query: ops })
    }

    /// Rounds of single-priority schedules over 3 queries × 12 operators:
    /// priorities change, operators drop out and come back.
    fn churning_rounds() -> Vec<SinglePrioritySchedule> {
        let all = |salt: usize| -> SinglePrioritySchedule {
            (0..3)
                .flat_map(|q| (0..12).map(move |o| (q, o)))
                .map(|(q, o)| (OpRef::new(q, o), 1.0 + ((q * 7 + o * 13 + salt) % 17) as f64))
                .collect()
        };
        let dropped: SinglePrioritySchedule = all(5)
            .iter()
            .filter(|(op, _)| op.query != 1 && *op != OpRef::new(0, 3) && *op != OpRef::new(2, 10))
            .collect();
        let only_q2: SinglePrioritySchedule = all(9).iter().filter(|(op, _)| op.query == 2).collect();
        vec![all(0), all(3), dropped, all(4), only_q2, all(4)]
    }

    /// Applies every round as a single-priority schedule with one
    /// translator, and as its [`GroupingSchedule::per_operator`] expansion
    /// (the path single schedules took before the cached plan) with a
    /// second translator on a twin kernel. After every round the kernels
    /// must agree on every cgroup (id, name, shares, quota), every thread's
    /// cgroup, the whole trace event by event, and the full state dump.
    fn assert_single_matches_per_operator<T: Translator>(new: impl Fn() -> T, kind: PriorityKind) {
        let (mut k_single, driver) = grid(3, 12);
        let (mut k_grouped, _) = grid(3, 12);
        let (mut single, mut grouped) = (new(), new());
        for s in churning_rounds() {
            single
                .apply(&mut k_single, &driver, &Schedule::Single(s.clone()), kind)
                .unwrap();
            let g = GroupingSchedule::per_operator(&s);
            grouped
                .apply(&mut k_grouped, &driver, &Schedule::Grouped(g), kind)
                .unwrap();
            for k in [&mut k_single, &mut k_grouped] {
                k.run_for(SimDuration::from_millis(20));
            }
            for i in 0.. {
                let cg = CgroupId::from_u64(i);
                let (a, b) = (k_single.cgroup_info(cg), k_grouped.cgroup_info(cg));
                assert_eq!(a, b, "cgroup {cg}");
                if a.is_err() {
                    break;
                }
            }
            for &tid in &driver.threads {
                assert_eq!(k_single.thread_cgroup(tid), k_grouped.thread_cgroup(tid));
            }
            let records = |k: &Kernel| -> Vec<simos::TraceRecord> {
                k.trace_sink().unwrap().borrow().records().cloned().collect()
            };
            assert_eq!(records(&k_single), records(&k_grouped));
            assert_eq!(k_single.debug_dump(), k_grouped.debug_dump());
        }
        // Not vacuous: operators were moved into cgroups, and `q0/op10`'s
        // cgroup was created before `q0/op2`'s (lexicographic, not numeric).
        let trace = k_single.trace_sink().unwrap().borrow();
        assert!(trace
            .records()
            .any(|r| matches!(r.event, simos::TraceEvent::Migration { .. })));
        let cgroup_of = |q: usize, o: usize| k_single.thread_cgroup(driver.threads[q * 12 + o]).unwrap();
        assert!(cgroup_of(0, 10) < cgroup_of(0, 2));
    }

    #[test]
    fn single_shares_plan_matches_per_operator_grouping() {
        for kind in [PriorityKind::Linear, PriorityKind::Logarithmic] {
            assert_single_matches_per_operator(|| CpuSharesTranslator::new("t"), kind);
        }
    }

    #[test]
    fn single_quota_plan_matches_per_operator_grouping() {
        for kind in [PriorityKind::Linear, PriorityKind::Logarithmic] {
            assert_single_matches_per_operator(|| crate::CpuQuotaTranslator::new("t"), kind);
        }
    }
}
