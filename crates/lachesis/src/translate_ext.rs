//! Extension translators for the OS mechanisms listed in the paper's
//! future-work section (§8): CPU quotas (CFS bandwidth control) and
//! real-time thread priorities. Both were flagged as "available at
//! Lachesis' repository" but not evaluated in the paper; they are provided
//! here with the same [`Translator`] interface so policies can drive them
//! unchanged.

use std::fmt;

use simos::{CgroupId, Kernel, NodeId, SimDuration, ThreadId};

use crate::driver::SpeDriver;
use crate::normalize::{min_max_anchored, PriorityKind};
use crate::schedule::Schedule;
use crate::translate::{CgroupTree, PerOperatorPlan, TranslateError, Translator};

/// Applies grouping schedules as cgroup **CPU quotas**: each group may
/// consume at most a priority-proportional fraction of the machine per
/// enforcement period. Unlike `cpu.shares` (a *relative* weight), quotas
/// are hard caps — useful for multi-tenant isolation where a query must
/// not exceed its entitlement even when the machine is idle.
pub struct CpuQuotaTranslator {
    tree: CgroupTree,
    plan: PerOperatorPlan,
    period: SimDuration,
    /// Fraction range the priorities are normalized into.
    frac_range: (f64, f64),
}

impl fmt::Debug for CpuQuotaTranslator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CpuQuotaTranslator")
            .field("period", &self.period)
            .field("frac_range", &self.frac_range)
            .finish_non_exhaustive()
    }
}

impl CpuQuotaTranslator {
    /// Creates the translator with a 100 ms enforcement period and quota
    /// fractions normalized into `[0.05, 1.0]` of the whole machine.
    pub fn new(label: &str) -> Self {
        CpuQuotaTranslator {
            tree: CgroupTree::new(format!("lachesis-quota-{label}")),
            plan: PerOperatorPlan::default(),
            period: SimDuration::from_millis(100),
            frac_range: (0.05, 1.0),
        }
    }

    /// Overrides the enforcement period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_period(mut self, period: SimDuration) -> Self {
        assert!(!period.is_zero());
        self.period = period;
        self
    }

    /// Overrides the machine-fraction range.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi <= 1`.
    pub fn with_fraction_range(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo > 0.0 && lo < hi && hi <= 1.0);
        self.frac_range = (lo, hi);
        self
    }

    /// Caps `cg` at `frac` of `node`'s CPUs per period and moves `tid`
    /// into it.
    fn cap(
        &self,
        kernel: &mut Kernel,
        tid: ThreadId,
        node: NodeId,
        cg: CgroupId,
        frac: f64,
    ) -> Result<(), TranslateError> {
        let cpus = kernel.node_stats(node)?.cpus as f64;
        let quota =
            SimDuration::from_secs_f64(self.period.as_secs_f64() * cpus * frac.clamp(0.0, 1.0));
        kernel.set_cpu_quota(cg, Some((quota, self.period)))?;
        kernel.move_to_cgroup(tid, cg)?;
        Ok(())
    }
}

impl Translator for CpuQuotaTranslator {
    fn name(&self) -> &str {
        "cpu.cfs_quota"
    }

    fn apply(
        &mut self,
        kernel: &mut Kernel,
        driver: &dyn SpeDriver,
        schedule: &Schedule,
        _kind: PriorityKind,
    ) -> Result<(), TranslateError> {
        let (lo, hi) = self.frac_range;
        match schedule {
            Schedule::Grouped(g) => {
                if g.is_empty() {
                    return Ok(());
                }
                let priorities: Vec<f64> = g.iter().map(|(_, p, _)| p).collect();
                let fracs = min_max_anchored(&priorities, lo, hi);
                for ((gid, _, ops), frac) in g.iter().zip(fracs) {
                    for &op in ops {
                        let tid = driver
                            .thread_of(op)
                            .ok_or(TranslateError::MissingThread(op))?;
                        let node = kernel.thread_node(tid)?;
                        let cg = self.tree.cgroup(kernel, node, gid, 1024)?;
                        self.cap(kernel, tid, node, cg, frac)?;
                    }
                }
            }
            Schedule::Single(s) => {
                if s.is_empty() {
                    return Ok(());
                }
                let fracs = min_max_anchored(&self.plan.refresh(s), lo, hi);
                for (k, frac) in fracs.into_iter().enumerate() {
                    let (tid, node, cg) = self.plan.place(&mut self.tree, kernel, driver, k, 1024)?;
                    self.cap(kernel, tid, node, cg, frac)?;
                }
            }
        }
        Ok(())
    }
}

/// Lifts the `top_k` highest-priority operators into the real-time
/// (SCHED_FIFO) band, ranked by priority; all other scheduled operators are
/// returned to CFS.
///
/// RT threads preempt every CFS thread and are never timesliced, so this
/// translator is only safe for operators that regularly block (e.g.
/// latency-critical sinks draining small queues); a CPU-bound operator in
/// the RT band starves the rest of the node.
#[derive(Debug)]
pub struct RealTimeTranslator {
    top_k: usize,
}

impl RealTimeTranslator {
    /// Creates the translator promoting at most `top_k` operators.
    ///
    /// # Panics
    ///
    /// Panics if `top_k` is zero.
    pub fn new(top_k: usize) -> Self {
        assert!(top_k > 0, "top_k must be at least 1");
        RealTimeTranslator { top_k }
    }
}

impl Translator for RealTimeTranslator {
    fn name(&self) -> &str {
        "sched_fifo"
    }

    fn apply(
        &mut self,
        kernel: &mut Kernel,
        driver: &dyn SpeDriver,
        schedule: &Schedule,
        _kind: PriorityKind,
    ) -> Result<(), TranslateError> {
        let Schedule::Single(s) = schedule else {
            return Err(TranslateError::WrongFormat {
                translator: "sched_fifo",
                expected: "single-priority",
            });
        };
        let mut ranked: Vec<_> = s.iter().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (rank, (op, _)) in ranked.into_iter().enumerate() {
            let tid = driver
                .thread_of(op)
                .ok_or(TranslateError::MissingThread(op))?;
            if rank < self.top_k {
                // Priorities 1..=99, highest rank = highest RT priority.
                let prio = (99 - rank.min(98)) as u8;
                kernel.set_rt_priority(tid, Some(prio))?;
            } else {
                kernel.set_rt_priority(tid, None)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::OpRef;
    use crate::schedule::{GroupingSchedule, SinglePrioritySchedule};
    use simos::{FixedWork, Nice};
    use spe::SpeKind;

    struct ThreadDriver {
        threads: Vec<simos::ThreadId>,
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
            self.threads.get(op.op).copied()
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
        (kernel, ThreadDriver { threads })
    }

    #[test]
    fn quota_translator_caps_groups() {
        let (mut kernel, driver) = setup(2);
        let mut g = GroupingSchedule::new();
        g.set_group("hot", 10.0, vec![OpRef::new(0, 0)]);
        g.set_group("cold", 1.0, vec![OpRef::new(0, 1)]);
        let mut tr = CpuQuotaTranslator::new("t");
        tr.apply(
            &mut kernel,
            &driver,
            &Schedule::Grouped(g),
            PriorityKind::Linear,
        )
        .unwrap();
        let cg0 = kernel.thread_info(driver.threads[0]).unwrap().cgroup;
        let cg1 = kernel.thread_info(driver.threads[1]).unwrap().cgroup;
        let q0 = kernel.cgroup_info(cg0).unwrap().quota.unwrap();
        let q1 = kernel.cgroup_info(cg1).unwrap().quota.unwrap();
        assert!(q0.0 > q1.0, "hot quota {:?} > cold quota {:?}", q0, q1);
        assert_eq!(q0.1, SimDuration::from_millis(100));
        // The capped group actually stops at its budget.
        kernel.run_for(SimDuration::from_secs(2));
        let cold = kernel.thread_info(driver.threads[1]).unwrap().cputime;
        // cold frac: zero-anchored 1/10 of [0.05, 1.0] -> ~0.145 of 2 CPUs.
        let frac = cold.as_secs_f64() / 4.0;
        assert!((0.1..=0.2).contains(&frac), "cold used {frac} of capacity");
    }

    #[test]
    fn rt_translator_promotes_top_k_only() {
        let (mut kernel, driver) = setup(3);
        let s: SinglePrioritySchedule = [
            (OpRef::new(0, 0), 5.0),
            (OpRef::new(0, 1), 50.0),
            (OpRef::new(0, 2), 20.0),
        ]
        .into_iter()
        .collect();
        RealTimeTranslator::new(1)
            .apply(
                &mut kernel,
                &driver,
                &Schedule::Single(s.clone()),
                PriorityKind::Linear,
            )
            .unwrap();
        assert!(kernel
            .thread_info(driver.threads[1])
            .unwrap()
            .rt_priority
            .is_some());
        assert!(kernel
            .thread_info(driver.threads[0])
            .unwrap()
            .rt_priority
            .is_none());
        // Re-applying with different priorities demotes the old leader.
        let s2: SinglePrioritySchedule = [
            (OpRef::new(0, 0), 99.0),
            (OpRef::new(0, 1), 1.0),
            (OpRef::new(0, 2), 2.0),
        ]
        .into_iter()
        .collect();
        RealTimeTranslator::new(1)
            .apply(
                &mut kernel,
                &driver,
                &Schedule::Single(s2),
                PriorityKind::Linear,
            )
            .unwrap();
        assert!(kernel
            .thread_info(driver.threads[0])
            .unwrap()
            .rt_priority
            .is_some());
        assert!(kernel
            .thread_info(driver.threads[1])
            .unwrap()
            .rt_priority
            .is_none());
        let _ = Nice::DEFAULT;
    }

    #[test]
    fn rt_translator_rejects_grouped() {
        let (mut kernel, driver) = setup(1);
        let err = RealTimeTranslator::new(1)
            .apply(
                &mut kernel,
                &driver,
                &Schedule::Grouped(GroupingSchedule::new()),
                PriorityKind::Linear,
            )
            .unwrap_err();
        assert!(matches!(err, TranslateError::WrongFormat { .. }));
    }
}
