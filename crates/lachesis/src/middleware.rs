//! The Lachesis middleware main loop (paper §4, Algorithm 1).
//!
//! Lachesis runs as its own (simulated) process: a periodic activity that
//! wakes at the GCD of all policy periods, refreshes metrics through the
//! provider, runs every due policy, and applies the resulting schedules
//! through their translators.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;

use lachesis_metrics::{ratio_metric, names, EntityValues, MetricError, MetricProvider};
use simos::{CallbackId, Kernel, Nice, SimDuration, SimTime, TraceEvent, TraceTrack};

use crate::admission::{AdmissionConfig, AdmissionController, SloClass};
use crate::driver::SpeDriver;
use crate::entity::OpRef;
use crate::policy::{Policy, PolicyView};
use crate::schedule::Schedule;
use crate::snapshot::SnapshotError;
use crate::supervisor::{BindingHealth, FaultLog, SupervisorConfig};
use crate::translate::{TranslateError, Translator};
use crate::watchdog::{DegradeHook, StarvationWatchdog, TenantEntry, WatchdogConfig};

/// Which operators a policy binding schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scope {
    /// Every operator of every query of the driver.
    AllQueries,
    /// Only the operators of one query (multi-query setups, G3).
    Query(usize),
    /// Only the operators placed on one node — used to run *independent*
    /// Lachesis instances per device in scale-out deployments (§6.5).
    Node(simos::NodeId),
}

/// Errors surfaced by the middleware loop.
#[derive(Debug, Clone, PartialEq)]
pub enum LachesisError {
    /// Metric resolution failed (misconfigured metrics, Algorithm 3 L15).
    Metric(MetricError),
    /// A translator failed to apply a schedule.
    Translate(TranslateError),
}

impl fmt::Display for LachesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LachesisError::Metric(e) => write!(f, "metric error: {e}"),
            LachesisError::Translate(e) => write!(f, "translation error: {e}"),
        }
    }
}

impl std::error::Error for LachesisError {}

impl LachesisError {
    /// Whether retrying later can plausibly succeed. Transient errors are
    /// handled by the supervisor (degrade, retry, fall back); persistent
    /// ones are misconfigurations surfaced to the caller.
    pub fn is_transient(&self) -> bool {
        match self {
            LachesisError::Metric(e) => e.is_transient(),
            // A kernel refusal or an unbound thread can heal (fault windows
            // end, threads respawn); a schedule-format mismatch cannot.
            LachesisError::Translate(TranslateError::Kernel(_)) => true,
            LachesisError::Translate(TranslateError::MissingThread(_)) => true,
            LachesisError::Translate(TranslateError::WrongFormat { .. }) => false,
        }
    }

    /// Stable label for [`FaultLog`] counters.
    pub fn kind_label(&self) -> &'static str {
        match self {
            LachesisError::Metric(MetricError::FetchFailed { .. }) => "metric_fetch",
            LachesisError::Metric(_) => "metric_config",
            LachesisError::Translate(TranslateError::Kernel(_)) => "apply_kernel",
            LachesisError::Translate(TranslateError::MissingThread(_)) => "apply_missing_thread",
            LachesisError::Translate(TranslateError::WrongFormat { .. }) => "apply_format",
        }
    }
}

impl From<MetricError> for LachesisError {
    fn from(e: MetricError) -> Self {
        LachesisError::Metric(e)
    }
}

impl From<TranslateError> for LachesisError {
    fn from(e: TranslateError) -> Self {
        LachesisError::Translate(e)
    }
}

struct PolicyBinding {
    driver_idx: usize,
    scope: Scope,
    policy: Box<dyn Policy>,
    translator: Box<dyn Translator>,
    next_run: SimTime,
    health: BindingHealth,
    /// Whether the initial `engage` supervisor trace event was emitted.
    announced: bool,
    /// The last successfully applied `(op, priority)` pairs — the state a
    /// crash-recovery snapshot re-applies on cold restart.
    last_applied: Vec<(OpRef, f64)>,
}

/// The Lachesis middleware.
///
/// Build with [`LachesisBuilder`], then either call
/// [`run_if_due`](Lachesis::run_if_due) manually or hand the instance to
/// the kernel with [`start`](Lachesis::start).
pub struct Lachesis {
    drivers: Vec<Rc<dyn SpeDriver>>,
    provider: MetricProvider<OpRef>,
    bindings: Vec<PolicyBinding>,
    supervisor: SupervisorConfig,
    watchdog: Option<StarvationWatchdog>,
    admission: Option<Rc<RefCell<AdmissionController>>>,
    log: Rc<RefCell<FaultLog>>,
    /// Per driver, whether this wake's metric refresh failed.
    refresh_failed: Vec<bool>,
}

impl fmt::Debug for Lachesis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lachesis")
            .field("drivers", &self.drivers.len())
            .field("policies", &self.bindings.len())
            .finish_non_exhaustive()
    }
}

/// Builder for [`Lachesis`].
///
/// # Examples
///
/// ```no_run
/// use lachesis::{LachesisBuilder, NiceTranslator, QueueSizePolicy, Scope, StoreDriver};
/// # let driver: StoreDriver = unimplemented!();
/// let lachesis = LachesisBuilder::new()
///     .driver(driver)
///     .policy(0, Scope::AllQueries, QueueSizePolicy::default(), NiceTranslator::new())
///     .build();
/// ```
#[derive(Default)]
pub struct LachesisBuilder {
    drivers: Vec<Rc<dyn SpeDriver>>,
    bindings: Vec<PolicyBinding>,
    supervisor: Option<SupervisorConfig>,
    watchdog: Option<StarvationWatchdog>,
    admission: Option<AdmissionConfig>,
}

impl fmt::Debug for LachesisBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LachesisBuilder")
            .field("drivers", &self.drivers.len())
            .field("policies", &self.bindings.len())
            .finish_non_exhaustive()
    }
}

impl LachesisBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an SPE driver; drivers are indexed in registration order.
    pub fn driver(mut self, driver: impl SpeDriver + 'static) -> Self {
        self.drivers.push(Rc::new(driver));
        self
    }

    /// Binds a policy + translator to (a scope of) a driver's operators.
    /// Each policy runs at its own period (Algorithm 1).
    pub fn policy(
        mut self,
        driver_idx: usize,
        scope: Scope,
        policy: impl Policy + 'static,
        translator: impl Translator + 'static,
    ) -> Self {
        self.bindings.push(PolicyBinding {
            driver_idx,
            scope,
            policy: Box::new(policy),
            translator: Box::new(translator),
            next_run: SimTime::ZERO,
            health: BindingHealth::Engaged,
            announced: false,
            last_applied: Vec::new(),
        });
        self
    }

    /// Overrides the supervisor tunables (defaults: fall back after 3
    /// consecutive failures, staleness threshold 3 policy periods, retry
    /// backoff capped at 4 periods).
    pub fn supervisor(mut self, config: SupervisorConfig) -> Self {
        self.supervisor = Some(config);
        self
    }

    /// Enables the [`StarvationWatchdog`]: after every wake's policy
    /// rounds it checks each operator for metric-visible starvation
    /// (queued input, zero progress), escalates priority floors and —
    /// when starvation persists — degrades the most expendable
    /// registered [tenant](Self::tenant).
    pub fn watchdog(mut self, config: WatchdogConfig) -> Self {
        self.watchdog = Some(StarvationWatchdog::new(config));
        self
    }

    /// Gives the middleware an [`AdmissionController`]: deployment
    /// harnesses grab the shared handle with
    /// [`admission_controller`](Lachesis::admission_controller) to gate
    /// `deploy` on it, and in return the controller's demand book and
    /// decision history ride the crash-recovery snapshot — a restarted
    /// middleware does not forget who holds CPU budget.
    pub fn admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(config);
        self
    }

    /// Registers a tenant for graceful degradation: `query_idx` names
    /// the tenant's query within driver `driver_idx`, `class` orders who
    /// is degraded first, and `hook` performs the degradation (flip the
    /// query to shed mode, zero its source rate, …). Requires
    /// [`watchdog`](Self::watchdog) to have been called first.
    ///
    /// # Panics
    ///
    /// Panics if no watchdog is configured.
    pub fn tenant(
        mut self,
        name: &str,
        driver_idx: usize,
        query_idx: usize,
        class: SloClass,
        hook: DegradeHook,
    ) -> Self {
        self.watchdog
            .as_mut()
            .expect("call .watchdog(..) before .tenant(..)")
            .add_tenant(TenantEntry {
                name: name.to_owned(),
                driver_idx,
                query_idx,
                class,
                degraded: false,
                hook,
            });
        self
    }

    /// Finalizes the middleware: installs the standard derived-metric
    /// definitions and registers every policy's required metrics
    /// (Algorithm 1, L1).
    ///
    /// # Panics
    ///
    /// Panics if a binding references an unregistered driver index or no
    /// policies were bound.
    pub fn build(self) -> Lachesis {
        assert!(!self.bindings.is_empty(), "no policies bound");
        for b in &self.bindings {
            assert!(
                b.driver_idx < self.drivers.len(),
                "policy bound to unknown driver {}",
                b.driver_idx
            );
        }
        let mut provider = MetricProvider::new();
        // Standard derivations: SPEs that do not expose cost/selectivity
        // get them derived from raw counters (paper Fig. 4).
        provider.define(ratio_metric(
            names::SELECTIVITY,
            names::TUPLES_OUT,
            names::TUPLES_IN,
        ));
        provider.define(ratio_metric(names::COST, names::CPU_TIME, names::TUPLES_IN));
        for b in &self.bindings {
            for m in b.policy.required_metrics() {
                provider.register(m);
            }
        }
        if self.watchdog.is_some() {
            for m in StarvationWatchdog::required_metrics() {
                provider.register(m);
            }
        }
        Lachesis {
            refresh_failed: vec![false; self.drivers.len()],
            drivers: self.drivers,
            provider,
            bindings: self.bindings,
            supervisor: self.supervisor.unwrap_or_default(),
            watchdog: self.watchdog,
            admission: self
                .admission
                .map(|c| Rc::new(RefCell::new(AdmissionController::new(c)))),
            log: Rc::new(RefCell::new(FaultLog::new())),
        }
    }
}

/// Removes from `scope` every operator whose samples over all registered
/// metrics are older than `max_age`, and returns how many it removed.
/// Untimestamped samples count as fresh, and an operator with no samples
/// at all is kept: policies already handle missing metrics.
fn drop_stale(
    provider: &MetricProvider<OpRef>,
    driver_idx: usize,
    scope: &mut Vec<OpRef>,
    now: SimTime,
    max_age: SimDuration,
) -> usize {
    let tables: Vec<&EntityValues<OpRef>> = provider
        .registered()
        .filter_map(|m| provider.get(driver_idx, m))
        .collect();
    let before = scope.len();
    scope.retain(|op| {
        let mut samples = tables.iter().filter_map(|t| t.sample(op)).peekable();
        samples.peek().is_none() || samples.any(|s| !s.is_stale(now, max_age))
    });
    before - scope.len()
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Lachesis {
    /// The wake-up period: the GCD of all policy periods (Algorithm 1 L9).
    pub fn wake_period(&self) -> SimDuration {
        let nanos = self
            .bindings
            .iter()
            .map(|b| b.policy.period().as_nanos().max(1))
            .fold(0, gcd);
        SimDuration::from_nanos(nanos.max(1))
    }

    /// The shared fault log. Clone the `Rc` *before*
    /// [`start`](Lachesis::start) consumes the instance to observe health
    /// while the simulation runs.
    pub fn fault_log(&self) -> Rc<RefCell<FaultLog>> {
        Rc::clone(&self.log)
    }

    /// The supervisor state of one policy binding (registration order).
    pub fn binding_health(&self, idx: usize) -> Option<BindingHealth> {
        self.bindings.get(idx).map(|b| b.health)
    }

    /// The shared admission controller, when
    /// [`LachesisBuilder::admission`] configured one. Deployment harnesses
    /// call `decide`/`observe`/`depart` through this handle; its state is
    /// captured by [`snapshot`](Lachesis::snapshot) and brought back by
    /// [`restore`](Lachesis::restore).
    pub fn admission_controller(&self) -> Option<Rc<RefCell<AdmissionController>>> {
        self.admission.as_ref().map(Rc::clone)
    }

    /// Runs every due policy once (Algorithm 1 L3-L8). Call at each wake.
    ///
    /// Transient failures — metric fetch errors, kernel apply refusals —
    /// never surface as `Err`: the per-binding supervisor records them in
    /// the [`FaultLog`], holds the last applied schedule, retries with
    /// backoff, and after
    /// [`max_consecutive_failures`](SupervisorConfig::max_consecutive_failures)
    /// resets the binding's operators to default CFS parameters until
    /// metrics recover. Operators whose metric samples are older than the
    /// staleness threshold are excluded from the policy view.
    ///
    /// # Errors
    ///
    /// Returns the first *persistent* error (metric misconfiguration or a
    /// schedule-format mismatch) after recording it; those will fail on
    /// every retry and need a code or configuration fix.
    pub fn run_if_due(&mut self, kernel: &mut Kernel) -> Result<(), LachesisError> {
        let now = kernel.now();
        if !self.bindings.iter().any(|b| b.next_run <= now) {
            return Ok(());
        }
        // L4: refresh all metrics once per wake with due policies. A
        // failing source holds its previous values (aging toward the
        // staleness threshold) instead of poisoning the healthy ones.
        let mut persistent: Option<LachesisError> = None;
        for (i, driver) in self.drivers.iter().enumerate() {
            let outcome = self.provider.update_source(now, i, driver.as_ref());
            self.refresh_failed[i] = outcome.is_err();
            if let Err(e) = outcome {
                let e = LachesisError::from(e);
                self.log
                    .borrow_mut()
                    .record_error(now, None, e.kind_label(), e.to_string());
                if !e.is_transient() && persistent.is_none() {
                    persistent = Some(e);
                }
            }
        }
        // Re-evaluate staleness fences before resolving scopes: a fenced
        // driver reports no entities, so its bindings idle over an empty
        // scope instead of scheduling from a silently stale mirror. On
        // unfence the last applied schedule is restored through the same
        // path a restart uses, without waiting for the next policy round.
        for d_idx in 0..self.drivers.len() {
            let Some(fenced) = self.drivers[d_idx].refresh_fence(now) else {
                continue;
            };
            Self::emit(kernel, || TraceEvent::Instant {
                track: TraceTrack::Supervisor,
                name: if fenced { "fence" } else { "unfence" },
                args: vec![("driver", d_idx as f64)],
            });
            if !fenced {
                for idx in 0..self.bindings.len() {
                    if self.bindings[idx].driver_idx == d_idx {
                        self.reapply_binding(kernel, idx);
                    }
                }
            }
        }
        for idx in 0..self.bindings.len() {
            if self.bindings[idx].next_run > now {
                continue;
            }
            if !self.bindings[idx].announced {
                self.bindings[idx].announced = true;
                Self::emit(kernel, || TraceEvent::Instant {
                    track: TraceTrack::Supervisor,
                    name: "engage",
                    args: vec![("binding", idx as f64)],
                });
            }
            Self::emit(kernel, || TraceEvent::SpanBegin {
                track: TraceTrack::Middleware,
                name: "round",
                args: vec![("binding", idx as f64)],
            });
            let outcome = self.run_binding(kernel, idx, now);
            let ok = outcome.is_ok();
            self.settle_binding(kernel, idx, now, outcome, &mut persistent);
            Self::emit(kernel, || TraceEvent::SpanEnd {
                track: TraceTrack::Middleware,
                name: "round",
                args: vec![("binding", idx as f64), ("ok", ok as u8 as f64)],
            });
        }
        // The watchdog runs after the policy rounds so its priority
        // boosts override this round's schedule for starved operators.
        if let Some(wd) = &mut self.watchdog {
            let mut log = self.log.borrow_mut();
            wd.run(kernel, &self.drivers, &self.provider, &mut log);
        }
        match persistent {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Appends a middleware/supervisor event to the kernel's trace sink,
    /// if one is installed (one branch when tracing is off).
    #[inline]
    fn emit(kernel: &Kernel, event: impl FnOnce() -> TraceEvent) {
        if let Some(t) = kernel.trace_sink() {
            t.borrow_mut().push(kernel.now(), event());
        }
    }

    /// Resolves a binding's scope (before staleness filtering).
    fn resolve_scope(driver: &dyn SpeDriver, scope: &Scope) -> Vec<OpRef> {
        match scope {
            Scope::AllQueries => driver.entities(),
            Scope::Query(q) => driver
                .entities()
                .into_iter()
                .filter(|op| op.query == *q)
                .collect(),
            Scope::Node(node) => {
                let queries = driver.queries();
                driver
                    .entities()
                    .into_iter()
                    .filter(|op| {
                        queries
                            .get(op.query)
                            .is_some_and(|q| q.cell(op.op).node() == *node)
                    })
                    .collect()
            }
        }
    }

    /// One scheduling attempt for one due binding. `Ok(())` means a
    /// schedule was computed and applied from fresh metrics.
    fn run_binding(
        &mut self,
        kernel: &mut Kernel,
        idx: usize,
        now: SimTime,
    ) -> Result<(), LachesisError> {
        let driver_idx = self.bindings[idx].driver_idx;
        if self.refresh_failed[driver_idx] {
            // This round's view of the driver is last period's data; count
            // the fetch failure against this binding and hold.
            return Err(LachesisError::Metric(MetricError::FetchFailed {
                metric: names::TUPLES_IN,
                source: self.drivers[driver_idx].name().to_owned(),
                reason: "metric refresh failed this period".to_owned(),
            }));
        }
        let driver = Rc::clone(&self.drivers[driver_idx]);
        let mut scope = Self::resolve_scope(driver.as_ref(), &self.bindings[idx].scope);
        if scope.is_empty() {
            // Nothing in scope — the driver is fenced (or every query
            // departed). Not an error: hold `last_applied` untouched so
            // the unfence/heal path can restore it, and try again next
            // period.
            return Ok(());
        }
        let max_age = self
            .supervisor
            .staleness_threshold(self.bindings[idx].policy.period());
        let excluded = drop_stale(&self.provider, driver_idx, &mut scope, now, max_age);
        if excluded > 0 {
            self.log.borrow_mut().note(
                now,
                Some(idx),
                "stale_excluded",
                format!("{excluded} operator(s) with stale metrics excluded"),
            );
        }
        if scope.is_empty() {
            // Nothing fresh to schedule on: treat like a failed round so
            // repeated total staleness eventually falls back to CFS.
            return Err(LachesisError::Metric(MetricError::FetchFailed {
                metric: names::TUPLES_IN,
                source: driver.name().to_owned(),
                reason: "all operators have stale metrics".to_owned(),
            }));
        }
        let b = &mut self.bindings[idx];
        let schedule = {
            let view = PolicyView::new(now, driver.as_ref(), &scope, &self.provider, driver_idx);
            b.policy.schedule(&view)
        };
        if kernel.trace_sink().is_some() {
            // Record the round's policy inputs and computed priorities; the
            // translated nice/shares values follow as kernel NiceChange /
            // SharesChange events nested inside the same round span.
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for (_, p) in schedule.iter() {
                if p.is_finite() {
                    lo = lo.min(p);
                    hi = hi.max(p);
                }
            }
            let mut args = vec![
                ("binding", idx as f64),
                ("ops", scope.len() as f64),
                ("excluded", excluded as f64),
            ];
            if lo.is_finite() && hi.is_finite() {
                args.push(("prio_min", lo));
                args.push(("prio_max", hi));
            }
            Self::emit(kernel, move || TraceEvent::Instant {
                track: TraceTrack::Middleware,
                name: "schedule",
                args,
            });
        }
        let applied = schedule.iter().collect();
        b.translator.apply(
            kernel,
            driver.as_ref(),
            &Schedule::Single(schedule),
            b.policy.priority_kind(),
        )?;
        b.last_applied = applied;
        Ok(())
    }

    /// Updates supervisor state after a scheduling attempt: reschedules the
    /// binding, records errors, applies backoff/fallback/recovery.
    fn settle_binding(
        &mut self,
        kernel: &mut Kernel,
        idx: usize,
        now: SimTime,
        outcome: Result<(), LachesisError>,
        persistent: &mut Option<LachesisError>,
    ) {
        let period = self.bindings[idx].policy.period();
        match outcome {
            Ok(()) => {
                let b = &mut self.bindings[idx];
                b.next_run = now + period;
                if b.health != BindingHealth::Engaged {
                    b.health = BindingHealth::Engaged;
                    self.log.borrow_mut().mark_recovered(now, idx);
                    Self::emit(kernel, || TraceEvent::Instant {
                        track: TraceTrack::Supervisor,
                        name: "recover",
                        args: vec![("binding", idx as f64)],
                    });
                }
            }
            Err(e) => {
                self.log
                    .borrow_mut()
                    .record_error(now, Some(idx), e.kind_label(), e.to_string());
                if !e.is_transient() {
                    if persistent.is_none() {
                        *persistent = Some(e);
                    }
                    // No retry-backoff dance for a persistent error: it is a
                    // bug to fix, not an outage to ride out. Keep the period
                    // so the log shows it recurring.
                    self.bindings[idx].next_run = now + period;
                    return;
                }
                let failures = self.bindings[idx].health.consecutive_failures();
                if failures >= self.supervisor.max_consecutive_failures
                    || matches!(self.bindings[idx].health, BindingHealth::FallenBack { .. })
                {
                    if !matches!(self.bindings[idx].health, BindingHealth::FallenBack { .. }) {
                        self.apply_cfs_fallback(kernel, idx, now);
                    } else {
                        Self::emit(kernel, || TraceEvent::Instant {
                            track: TraceTrack::Supervisor,
                            name: "retry",
                            args: vec![("binding", idx as f64)],
                        });
                    }
                    // Probe for recovery every period.
                    self.bindings[idx].next_run = now + period;
                } else {
                    let failures = failures + 1;
                    let b = &mut self.bindings[idx];
                    b.health = BindingHealth::Degraded {
                        consecutive_failures: failures,
                    };
                    b.next_run = now + self.supervisor.backoff(period, failures);
                    self.log.borrow_mut().mark_degraded(now, idx);
                    Self::emit(kernel, || TraceEvent::Instant {
                        track: TraceTrack::Supervisor,
                        name: "degrade",
                        args: vec![("binding", idx as f64), ("failures", failures as f64)],
                    });
                }
            }
        }
    }

    /// Resets every operator in the binding's scope to default CFS
    /// parameters (`nice` 0, `cpu.shares` 1024) — the schedule the SPE
    /// would have without Lachesis. Best-effort: apply faults may still be
    /// active; whatever fails is retried at the next probe.
    fn apply_cfs_fallback(&mut self, kernel: &mut Kernel, idx: usize, now: SimTime) {
        let driver = Rc::clone(&self.drivers[self.bindings[idx].driver_idx]);
        let scope = Self::resolve_scope(driver.as_ref(), &self.bindings[idx].scope);
        let nice0 = Nice::new(0).expect("nice 0 is always valid");
        let mut reset_groups: HashSet<simos::CgroupId> = HashSet::new();
        let mut complete = true;
        for op in scope {
            let Some(tid) = driver.thread_of(op) else {
                continue;
            };
            if kernel.set_nice(tid, nice0).is_err() {
                complete = false;
                continue;
            }
            let (Ok(node), Ok(cgroup)) = (kernel.thread_node(tid), kernel.thread_cgroup(tid)) else {
                continue;
            };
            let node_root = kernel.node_root(node).ok();
            if Some(cgroup) != node_root && reset_groups.insert(cgroup) {
                complete &= kernel
                    .set_cpu_shares(cgroup, simos::DEFAULT_CPU_SHARES)
                    .is_ok();
            }
        }
        let b = &mut self.bindings[idx];
        b.health = BindingHealth::FallenBack { since: now };
        Self::emit(kernel, || TraceEvent::Instant {
            track: TraceTrack::Supervisor,
            name: "fallback",
            args: vec![("binding", idx as f64)],
        });
        let mut log = self.log.borrow_mut();
        log.mark_fallen_back(now, idx);
        if !complete {
            log.record_error(
                now,
                Some(idx),
                "fallback_partial",
                "some operators could not be reset to CFS defaults",
            );
        }
    }

    /// Serializes the middleware's recoverable state — per-binding
    /// supervisor health, next run time and last applied priorities, plus
    /// (v2) the admission controller's demand book and the watchdog's
    /// starvation ladder when configured — into the versioned text format
    /// of [`crate::snapshot`]. Everything else (drivers, policies, metric
    /// caches) is configuration or soft state a cold restart rebuilds from
    /// the builder and the next metric refresh.
    pub fn snapshot(&self) -> String {
        let bindings: Vec<crate::snapshot::BindingSnapshot> = self
            .bindings
            .iter()
            .map(|b| crate::snapshot::BindingSnapshot {
                health: b.health,
                next_run: b.next_run,
                announced: b.announced,
                applied: b.last_applied.clone(),
            })
            .collect();
        let doc = crate::snapshot::SnapshotDoc {
            bindings,
            admission: self.admission.as_ref().map(|a| a.borrow().export_state()),
            watchdog: self.watchdog.as_ref().map(|w| w.export_state()),
        };
        crate::snapshot::encode(&doc)
    }

    /// Restores state captured by [`snapshot`](Lachesis::snapshot) into a
    /// freshly built, identically configured instance (same drivers, same
    /// policy bindings in the same order). A binding whose stored
    /// `next_run` already passed while the middleware was down is simply
    /// due at the first wake — no rounds are replayed.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the text is not a v1/v2 snapshot
    /// or its binding count does not match this instance. Admission and
    /// watchdog sections restore only into an instance configured with the
    /// corresponding component; otherwise they are ignored (a v1 snapshot
    /// simply carries neither).
    pub fn restore(&mut self, text: &str) -> Result<(), SnapshotError> {
        let decoded = crate::snapshot::decode(text)?;
        if decoded.bindings.len() != self.bindings.len() {
            return Err(SnapshotError::BindingCountMismatch {
                expected: self.bindings.len(),
                found: decoded.bindings.len(),
            });
        }
        if let (Some(cell), Some(state)) = (&self.admission, decoded.admission) {
            cell.borrow_mut().import_state(state);
        }
        if let (Some(wd), Some(state)) = (&mut self.watchdog, decoded.watchdog) {
            wd.import_state(state);
        }
        for (idx, (b, s)) in self.bindings.iter_mut().zip(decoded.bindings).enumerate() {
            b.health = s.health;
            b.next_run = s.next_run;
            b.announced = s.announced;
            b.last_applied = s.applied;
            // Reconcile the (fresh) fault log with the restored health so
            // health accounting stays truthful across the restart: a
            // binding restored into a degraded state gets its interval
            // re-opened (so its eventual recovery is recorded), and a
            // binding restored as Engaged closes any stale open interval
            // (so it does not report unhealthy forever).
            let mut log = self.log.borrow_mut();
            match b.health {
                BindingHealth::Engaged => log.mark_recovered(b.next_run, idx),
                BindingHealth::Degraded { .. } => {
                    log.reopen_degraded(b.next_run, idx, false);
                }
                BindingHealth::FallenBack { since } => {
                    log.reopen_degraded(since, idx, true);
                }
            }
        }
        Ok(())
    }

    /// Re-applies every binding's last snapshotted schedule through its
    /// translator, re-discovering live threads through the driver. Call
    /// once after [`restore`](Lachesis::restore), before resuming the
    /// loop: the OS-level priorities (lost if the kernel restarted, stale
    /// if operators respawned) match the pre-crash schedule again without
    /// waiting for fresh metrics. Idempotent — re-applying an already
    /// in-force schedule is a no-op at the OS level.
    ///
    /// Best-effort by design: an operator that no longer resolves to a
    /// live thread is skipped (the next regular round reschedules
    /// whatever actually runs). Returns the number of bindings whose
    /// schedule was re-applied cleanly.
    pub fn reapply_snapshot(&mut self, kernel: &mut Kernel) -> usize {
        let mut clean = 0;
        for idx in 0..self.bindings.len() {
            if self.reapply_binding(kernel, idx) {
                clean += 1;
            }
        }
        clean
    }

    /// Re-applies one binding's last applied schedule (see
    /// [`reapply_snapshot`](Lachesis::reapply_snapshot)); also the unfence
    /// path — when a fenced driver's metrics freshen, its bindings get
    /// their pre-partition schedule back through here. Returns whether the
    /// schedule was re-applied cleanly.
    fn reapply_binding(&mut self, kernel: &mut Kernel, idx: usize) -> bool {
        let now = kernel.now();
        if self.bindings[idx].last_applied.is_empty() {
            return false;
        }
        let driver = Rc::clone(&self.drivers[self.bindings[idx].driver_idx]);
        let live: std::collections::HashSet<OpRef> = driver.entities().into_iter().collect();
        let b = &mut self.bindings[idx];
        let schedule: crate::schedule::SinglePrioritySchedule = b
            .last_applied
            .iter()
            .copied()
            .filter(|(op, _)| live.contains(op))
            .collect();
        if schedule.is_empty() {
            return false;
        }
        let outcome = b.translator.apply(
            kernel,
            driver.as_ref(),
            &Schedule::Single(schedule),
            b.policy.priority_kind(),
        );
        match outcome {
            Ok(()) => {
                Self::emit(kernel, || TraceEvent::Instant {
                    track: TraceTrack::Supervisor,
                    name: "reapply",
                    args: vec![("binding", idx as f64)],
                });
                true
            }
            Err(e) => {
                let e = LachesisError::from(e);
                self.log.borrow_mut().record_error(
                    now,
                    Some(idx),
                    e.kind_label(),
                    format!("snapshot re-apply: {e}"),
                );
                false
            }
        }
    }

    /// Installs the middleware as a periodic kernel activity and hands
    /// ownership to the kernel. Returns the callback id (for cancellation).
    ///
    /// Errors never panic the simulation: transient ones are supervised
    /// inside [`run_if_due`](Lachesis::run_if_due), and persistent ones are
    /// recorded in the [`FaultLog`] (grab it with
    /// [`fault_log`](Lachesis::fault_log) before calling this) — queries
    /// keep running under the OS default schedule either way.
    pub fn start(mut self, kernel: &mut Kernel) -> CallbackId {
        let period = self.wake_period();
        kernel.schedule_periodic(period, period, move |k| {
            // Persistent errors were already recorded in the fault log by
            // run_if_due; the loop keeps running so queries stay scheduled.
            let _ = self.run_if_due(k);
        })
    }

    /// Like [`start`](Lachesis::start), but writes a fresh crash-recovery
    /// snapshot into `sink` after every wake — the write-ahead state an
    /// external watchdog would persist. Killing the returned callback
    /// ([`Kernel::cancel_callback`]), building an identically configured
    /// instance, [`restore`](Lachesis::restore)-ing the sink's contents and
    /// starting it again resumes scheduling where the dead process left
    /// off.
    pub fn start_with_snapshots(
        mut self,
        kernel: &mut Kernel,
        sink: Rc<RefCell<String>>,
    ) -> CallbackId {
        let period = self.wake_period();
        kernel.schedule_periodic(period, period, move |k| {
            let _ = self.run_if_due(k);
            *sink.borrow_mut() = self.snapshot();
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lachesis_metrics::{MetricName, MetricSource};
    use proptest::prelude::*;

    #[test]
    fn gcd_of_periods() {
        assert_eq!(gcd(50, 1000), 50);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(12, 18), 6);
    }

    /// The per-operator rule [`drop_stale`] replaced: walk the registered
    /// metrics and look `op` up in each.
    fn op_is_stale(
        provider: &MetricProvider<OpRef>,
        driver_idx: usize,
        op: OpRef,
        now: SimTime,
        max_age: SimDuration,
    ) -> bool {
        let mut saw_sample = false;
        for metric in provider.registered() {
            let Some(values) = provider.get(driver_idx, metric) else {
                continue;
            };
            let Some(sample) = values.sample(&op) else {
                continue;
            };
            saw_sample = true;
            if !sample.is_stale(now, max_age) {
                return false;
            }
        }
        saw_sample
    }

    /// Serves one fixed table per metric.
    struct Tables(Vec<(MetricName, EntityValues<OpRef>)>);

    impl MetricSource<OpRef> for Tables {
        fn source_name(&self) -> &str {
            "tables"
        }
        fn provides(&self, metric: MetricName) -> bool {
            self.0.iter().any(|(m, _)| *m == metric)
        }
        fn fetch(&self, metric: MetricName) -> EntityValues<OpRef> {
            self.0.iter().find(|(m, _)| *m == metric).unwrap().1.clone()
        }
    }

    const METRICS: [MetricName; 3] = [names::QUEUE_SIZE, names::HEAD_WAIT, names::COST];
    const QUERIES: usize = 3;
    const OPS: usize = 6;

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random tables (absent, untimestamped, fresh, boundary-age
        /// and stale samples) for two or three registered metrics plus an
        /// unregistered one, the pass keeps the same operators, in the
        /// same order, and counts the same exclusions as the old rule.
        #[test]
        fn drop_stale_matches_per_operator_rule(
            cells in collection::vec(0u8..5, METRICS.len() * QUERIES * OPS),
            registered in 2usize..4,
            in_scope in collection::vec(proptest::bool::ANY, QUERIES * OPS),
            all_stale in proptest::bool::ANY,
        ) {
            let (now, max_age) = (secs(10), SimDuration::from_secs(3));
            let ops = (0..QUERIES).flat_map(|q| (0..OPS).map(move |o| OpRef::new(q, o)));
            let mut tables = Vec::new();
            for (m, &metric) in METRICS.iter().enumerate() {
                let mut values = EntityValues::new();
                for (i, op) in ops.clone().enumerate() {
                    let kind = if all_stale { 4 } else { cells[m * QUERIES * OPS + i] };
                    match kind {
                        1 => values.insert(op, 1.0),
                        2 => values.insert_at(op, 1.0, secs(9)),
                        3 => values.insert_at(op, 1.0, secs(7)),
                        4 => values.insert_at(op, 1.0, secs(2)),
                        _ => {}
                    }
                }
                tables.push((metric, values));
            }
            let mut provider = MetricProvider::new();
            for &metric in &METRICS[..registered] {
                provider.register(metric);
            }
            provider.update(now, &[&Tables(tables)]).unwrap();
            let scope: Vec<OpRef> = ops.zip(&in_scope).filter(|(_, &k)| k).map(|(op, _)| op).collect();
            let expected: Vec<OpRef> = scope
                .iter()
                .copied()
                .filter(|&op| !op_is_stale(&provider, 0, op, now, max_age))
                .collect();
            let mut kept = scope.clone();
            let excluded = drop_stale(&provider, 0, &mut kept, now, max_age);
            prop_assert_eq!(&kept, &expected);
            prop_assert_eq!(excluded, scope.len() - expected.len());
            if all_stale {
                prop_assert!(kept.is_empty(), "an all-stale scope keeps nothing");
            }
        }
    }
}
