//! SPE drivers (paper §4): the bridge between Lachesis and the engines.
//!
//! A driver pulls runtime information from an SPE's *public* APIs — here,
//! the [`RunningQuery`] monitoring handle (topology, threads) and the
//! Graphite-like metric store the SPE reports into. It never touches SPE
//! internals, which is the paper's central design constraint (G2).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use lachesis_metrics::{
    EntityValues, FaultPlan, FetchError, MetricName, MetricSource, SeriesId, TimeSeriesStore,
};
use simos::{SimTime, ThreadId};
use spe::{metric_path, LogicalOpId, RunningQuery, SpeKind};

use crate::entity::OpRef;

/// The abstract driver interface Lachesis' policies and translators use.
///
/// Implementations must also act as a [`MetricSource`] for the metric
/// provider (Algorithm 3 fetches raw metrics through drivers).
pub trait SpeDriver: MetricSource<OpRef> {
    /// The driver's display name.
    fn name(&self) -> &str;
    /// The SPE personality this driver talks to.
    fn kind(&self) -> SpeKind;
    /// The queries managed by this driver. Returns clones of the cheap
    /// `Rc`-backed handles so the set can grow at runtime (tenant churn)
    /// behind a shared cell without invalidating callers.
    fn queries(&self) -> Vec<RunningQuery>;
    /// All physical operators across all queries.
    fn entities(&self) -> Vec<OpRef>;
    /// The kernel thread executing an operator, if bound.
    fn thread_of(&self, op: OpRef) -> Option<ThreadId>;
    /// Downstream physical operators (for path-based policies).
    fn downstream(&self, op: OpRef) -> Vec<OpRef>;
    /// Physical operators implementing a logical operator.
    fn physical_of(&self, query: usize, logical: LogicalOpId) -> Vec<OpRef>;
    /// Logical operators fused into a physical operator.
    fn logical_of(&self, op: OpRef) -> Vec<LogicalOpId>;
    /// Whether the operator's chain ends in an egress.
    fn is_egress(&self, op: OpRef) -> bool;
    /// Re-evaluates the driver's staleness fence against `now`, if it has
    /// one (see [`MirrorDriver::with_fence`](crate::MirrorDriver)). A
    /// fenced driver reports no entities, taking its operators out of
    /// scheduling scope until fresh metrics arrive. Returns `Some(fenced)`
    /// **only when the fence state changed** on this call — the middleware
    /// traces the transition and re-applies the last schedule on unfence —
    /// and `None` otherwise. Drivers without fencing always return `None`.
    fn refresh_fence(&self, _now: SimTime) -> Option<bool> {
        None
    }
}

/// The standard driver: reads topology from [`RunningQuery`] handles and
/// metrics from the shared time-series store, exactly like the paper's
/// Graphite-backed deployment (§6.1). Works for every [`SpeKind`]; what
/// differs per SPE is *which* raw metrics exist in the store.
pub struct StoreDriver {
    kind: SpeKind,
    queries: Rc<RefCell<Vec<RunningQuery>>>,
    reader: SeriesReader,
}

/// The metric-reading half shared by the store-backed drivers
/// ([`StoreDriver`] and [`MirrorDriver`](crate::MirrorDriver)): reads one
/// metric for every operator of a query list out of a time-series store,
/// applying an optional [`FaultPlan`].
///
/// Each operator's series is resolved from its metric path once and then
/// read through its [`SeriesId`] (`metric → query → op` cache). A path
/// whose series does not exist yet is resolved again on every read, since
/// the SPE may report it later; the cache grows with the query list.
/// Store series are never removed, so a resolved handle never goes stale.
pub(crate) struct SeriesReader {
    kind: SpeKind,
    store: Rc<RefCell<TimeSeriesStore>>,
    faults: Option<Rc<RefCell<FaultPlan>>>,
    handles: RefCell<HashMap<MetricName, Vec<Vec<Option<SeriesId>>>>>,
}

impl SeriesReader {
    pub(crate) fn new(kind: SpeKind, store: Rc<RefCell<TimeSeriesStore>>) -> SeriesReader {
        SeriesReader {
            kind,
            store,
            faults: None,
            handles: RefCell::new(HashMap::new()),
        }
    }

    pub(crate) fn set_faults(&mut self, faults: Rc<RefCell<FaultPlan>>) {
        self.faults = Some(faults);
    }

    /// Calls `visit` with the series handle of `metric` for every operator
    /// of `queries` (`(name, op_count)` in address order) whose series
    /// exists, in query-then-op order.
    fn for_each_series<'q>(
        &self,
        store: &TimeSeriesStore,
        queries: impl IntoIterator<Item = (&'q str, usize)>,
        metric: MetricName,
        mut visit: impl FnMut(OpRef, SeriesId),
    ) {
        let mut handles = self.handles.borrow_mut();
        let per_query = handles.entry(metric).or_default();
        for (qi, (name, op_count)) in queries.into_iter().enumerate() {
            if per_query.len() == qi {
                per_query.push(Vec::new());
            }
            let slots = &mut per_query[qi];
            slots.resize(op_count, None);
            for (op, slot) in slots.iter_mut().enumerate() {
                if slot.is_none() {
                    *slot = store.id(&metric_path(self.kind, name, op, metric));
                }
                if let Some(id) = *slot {
                    visit(OpRef::new(qi, op), id);
                }
            }
        }
    }

    /// The latest value of `metric` for every operator that has one
    /// (faults are not consulted).
    pub(crate) fn fetch<'q>(
        &self,
        queries: impl IntoIterator<Item = (&'q str, usize)>,
        metric: MetricName,
    ) -> EntityValues<OpRef> {
        let store = self.store.borrow();
        let mut out = EntityValues::new();
        self.for_each_series(&store, queries, metric, |op, id| {
            if let Some((t, v)) = store.latest_id(id) {
                out.insert_at(op, v, t);
            }
        });
        out
    }

    /// [`fetch`](SeriesReader::fetch) through the fault plan, whose rules
    /// match `source`: the whole fetch may fail, the read cursor may move
    /// back in time, and each existing point draws once (in fetch order)
    /// for a drop or a NaN.
    pub(crate) fn try_fetch<'q>(
        &self,
        source: &str,
        queries: impl IntoIterator<Item = (&'q str, usize)>,
        metric: MetricName,
        now: SimTime,
    ) -> Result<EntityValues<OpRef>, FetchError> {
        let Some(faults) = &self.faults else {
            return Ok(self.fetch(queries, metric));
        };
        let mut plan = faults.borrow_mut();
        if plan.fetch_fails(source, now) {
            return Err(FetchError::new(format!(
                "injected fetch failure for {source} at {now:?}"
            )));
        }
        let cutoff = plan.fetch_cutoff(source, now);
        let store = self.store.borrow();
        let mut out = EntityValues::new();
        self.for_each_series(&store, queries, metric, |op, id| {
            let point = match cutoff {
                Some(t) => store.latest_at_id(id, t),
                None => store.latest_id(id),
            };
            let Some((t, v)) = point else { return };
            let fault = plan.point_fault(source, now);
            if fault.drop {
                return;
            }
            let v = if fault.nan { f64::NAN } else { v };
            out.insert_at(op, v, t);
        });
        Ok(out)
    }

    /// The newest sample timestamp over every exposed metric of every
    /// operator of `queries`.
    pub(crate) fn freshest<'q>(
        &self,
        queries: impl IntoIterator<Item = (&'q str, usize)> + Clone,
    ) -> Option<SimTime> {
        let store = self.store.borrow();
        let mut freshest: Option<SimTime> = None;
        for &metric in self.kind.exposed_metrics() {
            self.for_each_series(&store, queries.clone(), metric, |_, id| {
                if let Some((t, _)) = store.latest_id(id) {
                    freshest = Some(freshest.map_or(t, |f| f.max(t)));
                }
            });
        }
        freshest
    }
}

impl std::fmt::Debug for StoreDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreDriver")
            .field("kind", &self.kind)
            .field("queries", &self.queries.borrow().len())
            .finish_non_exhaustive()
    }
}

impl StoreDriver {
    /// Creates a driver for queries running on one SPE.
    ///
    /// # Panics
    ///
    /// Panics if a query's engine kind differs from `kind`.
    pub fn new(
        kind: SpeKind,
        queries: Vec<RunningQuery>,
        store: Rc<RefCell<TimeSeriesStore>>,
    ) -> Self {
        Self::shared(kind, Rc::new(RefCell::new(queries)), store)
    }

    /// Creates a driver over a *shared* query list: a churn harness keeps
    /// the `Rc` and pushes freshly deployed queries into it while the
    /// middleware runs, so arriving tenants become visible to the policies
    /// at their next round without rebuilding the driver.
    ///
    /// # Panics
    ///
    /// Panics if a query's engine kind differs from `kind`.
    pub fn shared(
        kind: SpeKind,
        queries: Rc<RefCell<Vec<RunningQuery>>>,
        store: Rc<RefCell<TimeSeriesStore>>,
    ) -> Self {
        for q in queries.borrow().iter() {
            assert_eq!(q.kind(), kind, "query {} runs on {:?}", q.name(), q.kind());
        }
        StoreDriver {
            kind,
            queries,
            reader: SeriesReader::new(kind, store),
        }
    }

    /// Appends a query to the managed set (tenant arrival).
    ///
    /// # Panics
    ///
    /// Panics if the query's engine kind differs from the driver's.
    pub fn add_query(&self, query: RunningQuery) {
        assert_eq!(
            query.kind(),
            self.kind,
            "query {} runs on {:?}",
            query.name(),
            query.kind()
        );
        self.queries.borrow_mut().push(query);
    }

    /// Attaches a [`FaultPlan`] whose rules this driver consults on every
    /// fetch: `FetchFailure` rules make [`MetricSource::try_fetch`] error,
    /// `StaleMetrics`/`FetchLatency` rules shift the store read-cursor back
    /// in time, and `MetricDropout`/`NanValues` rules corrupt individual
    /// points. Sharing one plan between several drivers (and the kernel's
    /// fault hook) keeps the whole experiment on a single seed.
    pub fn with_faults(mut self, faults: Rc<RefCell<FaultPlan>>) -> Self {
        self.reader.set_faults(faults);
        self
    }

    /// Convenience constructor for a Storm driver.
    pub fn storm(queries: Vec<RunningQuery>, store: Rc<RefCell<TimeSeriesStore>>) -> Self {
        Self::new(SpeKind::Storm, queries, store)
    }

    /// Convenience constructor for a Flink driver.
    pub fn flink(queries: Vec<RunningQuery>, store: Rc<RefCell<TimeSeriesStore>>) -> Self {
        Self::new(SpeKind::Flink, queries, store)
    }

    /// Convenience constructor for a Liebre driver.
    pub fn liebre(queries: Vec<RunningQuery>, store: Rc<RefCell<TimeSeriesStore>>) -> Self {
        Self::new(SpeKind::Liebre, queries, store)
    }
}

impl MetricSource<OpRef> for StoreDriver {
    fn source_name(&self) -> &str {
        self.kind.name()
    }

    fn provides(&self, metric: MetricName) -> bool {
        self.kind.exposed_metrics().contains(&metric)
    }

    fn fetch(&self, metric: MetricName) -> EntityValues<OpRef> {
        let queries = self.queries.borrow();
        self.reader
            .fetch(queries.iter().map(|q| (q.name(), q.op_count())), metric)
    }

    fn try_fetch(&self, metric: MetricName, now: SimTime) -> Result<EntityValues<OpRef>, FetchError> {
        let queries = self.queries.borrow();
        self.reader.try_fetch(
            self.kind.name(),
            queries.iter().map(|q| (q.name(), q.op_count())),
            metric,
            now,
        )
    }
}

impl SpeDriver for StoreDriver {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn kind(&self) -> SpeKind {
        self.kind
    }

    fn queries(&self) -> Vec<RunningQuery> {
        self.queries.borrow().clone()
    }

    fn entities(&self) -> Vec<OpRef> {
        let mut out = Vec::new();
        for (qi, q) in self.queries.borrow().iter().enumerate() {
            for op in 0..q.op_count() {
                out.push(OpRef::new(qi, op));
            }
        }
        out
    }

    fn thread_of(&self, op: OpRef) -> Option<ThreadId> {
        self.queries.borrow().get(op.query)?.cell(op.op).thread()
    }

    fn downstream(&self, op: OpRef) -> Vec<OpRef> {
        let queries = self.queries.borrow();
        let Some(q) = queries.get(op.query) else {
            return Vec::new();
        };
        let mut out: Vec<OpRef> = q.physical().ops[op.op]
            .out_edges
            .iter()
            .flat_map(|e| e.targets.iter().map(|&t| OpRef::new(op.query, t)))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn physical_of(&self, query: usize, logical: LogicalOpId) -> Vec<OpRef> {
        let queries = self.queries.borrow();
        let Some(q) = queries.get(query) else {
            return Vec::new();
        };
        q.physical()
            .physical_of(logical)
            .iter()
            .map(|&p| OpRef::new(query, p))
            .collect()
    }

    fn logical_of(&self, op: OpRef) -> Vec<LogicalOpId> {
        self.queries
            .borrow()
            .get(op.query)
            .map(|q| q.physical().ops[op.op].chain.clone())
            .unwrap_or_default()
    }

    fn is_egress(&self, op: OpRef) -> bool {
        self.queries
            .borrow()
            .get(op.query)
            .is_some_and(|q| q.physical().ops[op.op].egress.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::{MirrorDriver, MirrorQuery};
    use lachesis_metrics::names::{QUEUE_SIZE, TUPLES_IN};
    use simos::{Kernel, SimDuration};
    use spe::{CostModel, EngineConfig, LogicalGraph, Partitioning, Placement, Role};

    fn at(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    /// `src → mid → sink`, one instance each.
    fn graph(name: &str) -> LogicalGraph {
        let mut b = LogicalGraph::builder(name);
        let src = b.op("src", Role::Ingress, CostModel::micros(50), 1, || {
            Box::new(spe::PassThrough)
        });
        let mid = b.op("mid", Role::Transform, CostModel::micros(50), 1, || {
            Box::new(spe::PassThrough)
        });
        let sink = b.op("sink", Role::Egress, CostModel::micros(50), 1, || {
            Box::new(spe::Consume)
        });
        b.edge(src, mid, Partitioning::Forward);
        b.edge(mid, sink, Partitioning::Forward);
        b.source("gen", src, 100.0, |seq, now| spe::Tuple::new(now, seq, vec![]));
        b.build().unwrap()
    }

    /// The uncached read the drivers made before series handles: format
    /// every operator's path and look it up, drawing one point fault per
    /// existing point in query-then-op order. `None` is a failed fetch.
    fn by_path(
        store: &TimeSeriesStore,
        kind: SpeKind,
        queries: &[(&str, usize)],
        metric: MetricName,
        plan: &mut FaultPlan,
        source: &str,
        now: SimTime,
    ) -> Option<EntityValues<OpRef>> {
        if plan.fetch_fails(source, now) {
            return None;
        }
        let cutoff = plan.fetch_cutoff(source, now);
        let mut out = EntityValues::new();
        for (qi, &(name, ops)) in queries.iter().enumerate() {
            for op in 0..ops {
                let path = metric_path(kind, name, op, metric);
                let point = match cutoff {
                    Some(t) => store.latest_at(&path, t),
                    None => store.latest(&path),
                };
                let Some((t, v)) = point else { continue };
                let fault = plan.point_fault(source, now);
                if !fault.drop {
                    out.insert_at(OpRef::new(qi, op), if fault.nan { f64::NAN } else { v }, t);
                }
            }
        }
        Some(out)
    }

    /// `values` as a sorted list with NaN-comparable value bits.
    fn bits(values: &EntityValues<OpRef>) -> Vec<(OpRef, u64, Option<SimTime>)> {
        let mut out: Vec<_> = values
            .samples()
            .map(|(&op, s)| (op, s.value.to_bits(), s.at))
            .collect();
        out.sort_unstable_by_key(|&(op, _, _)| op);
        out
    }

    /// A plan exercising every per-fetch fault: failures, a read cursor
    /// moved back in time, drops and NaNs.
    fn plan() -> FaultPlan {
        FaultPlan::new(7)
            .fetch_failure(None, at(3), at(5), 0.3)
            .stale_metrics(None, at(5), at(7))
            .metric_dropout(at(2), at(10), 0.3)
            .nan_values(at(2), at(10), 0.3)
    }

    /// Fetches every metric through `driver` and the path-based reference
    /// and asserts both agree, on values, timestamps and fault draws.
    fn assert_fetches_match(
        driver: &dyn SpeDriver,
        store: &TimeSeriesStore,
        queries: &[(&str, usize)],
        reference: &mut FaultPlan,
        now: SimTime,
    ) {
        let kind = driver.kind();
        for &metric in &[QUEUE_SIZE, TUPLES_IN] {
            let unfaulted = by_path(store, kind, queries, metric, &mut FaultPlan::new(0), "", now);
            assert_eq!(bits(&driver.fetch(metric)), bits(&unfaulted.unwrap()), "{metric} at {now:?}");
            let cached = driver.try_fetch(metric, now).ok();
            let expected = by_path(store, kind, queries, metric, reference, driver.source_name(), now);
            assert_eq!(
                cached.as_ref().map(bits),
                expected.as_ref().map(bits),
                "faulted {metric} at {now:?}"
            );
        }
    }

    /// The shared plan's draw sequence is where it would be without the
    /// cache: same injection counts, and the next draws agree.
    fn assert_same_draws(a: &Rc<RefCell<FaultPlan>>, b: &mut FaultPlan, source: &str) {
        let mut a = a.borrow_mut();
        assert_eq!(a.injected(), b.injected());
        for kind in ["fetch_failure", "stale_metrics", "metric_dropout", "nan_values"] {
            assert!(a.injected().get(kind).copied().unwrap_or(0) > 0, "no {kind} injected");
        }
        for _ in 0..32 {
            assert_eq!(a.point_fault(source, at(4)), b.point_fault(source, at(4)));
        }
    }

    #[test]
    fn store_driver_cache_matches_path_lookups() {
        let mut kernel = Kernel::default();
        let node = kernel.add_node("n", 2);
        let mut deploy = |name: &str| {
            let config = EngineConfig::storm();
            spe::deploy(&mut kernel, graph(name), config, &Placement::single(node), None).unwrap()
        };
        let (q0, q1) = (deploy("q0"), deploy("q1"));
        let ops = q0.op_count();
        assert!(ops >= 3);
        let store = Rc::new(RefCell::new(TimeSeriesStore::new(SimDuration::from_secs(1))));
        let faults = Rc::new(RefCell::new(plan()));
        let driver = StoreDriver::storm(vec![q0], Rc::clone(&store)).with_faults(Rc::clone(&faults));
        let mut reference = plan();
        let mut queries = vec![("q0", ops)];
        for s in 1..10 {
            {
                let mut st = store.borrow_mut();
                for &(name, n) in &queries {
                    for op in 0..n {
                        // Operator 1's series first appears at t=3.
                        if op != 1 || s >= 3 {
                            let path = metric_path(SpeKind::Storm, name, op, QUEUE_SIZE);
                            st.record(&path, at(s), (s * 10 + op as u64) as f64);
                        }
                    }
                }
            }
            if s == 4 {
                // A tenant arrives after the cache was filled.
                driver.add_query(q1.clone());
                queries.push(("q1", ops));
            }
            assert_fetches_match(&driver, &store.borrow(), &queries, &mut reference, at(s));
        }
        assert_same_draws(&faults, &mut reference, driver.source_name());
    }

    #[test]
    fn mirror_driver_cache_matches_path_lookups_and_fences() {
        let (g0, g1) = (graph("q0"), graph("q1"));
        let mirrors = vec![MirrorQuery::new(&g0, true), MirrorQuery::new(&g1, true)];
        let ops = mirrors[0].op_count();
        let queries = [("q0", ops), ("q1", mirrors[1].op_count())];
        let store = Rc::new(RefCell::new(TimeSeriesStore::new(SimDuration::from_secs(1))));
        let faults = Rc::new(RefCell::new(plan()));
        let lease = SimDuration::from_secs(2);
        let driver = MirrorDriver::new("liebre@node1", SpeKind::Liebre, mirrors, Rc::clone(&store))
            .with_faults(Rc::clone(&faults))
            .with_fence(lease);
        let mut reference = plan();
        let mut transitions = Vec::new();
        for s in 1..14 {
            // The worker goes silent for t in [5, 10): the fence trips,
            // then lifts on the first fresh sample.
            if !(5..10).contains(&s) {
                let mut st = store.borrow_mut();
                for &(name, n) in &queries {
                    for op in 0..n {
                        // q1's series first appear at t=3.
                        if name == "q0" || s >= 3 {
                            let path = metric_path(SpeKind::Liebre, name, op, QUEUE_SIZE);
                            st.record(&path, at(s), (s * 10 + op as u64) as f64);
                        }
                    }
                }
            }
            let freshest = {
                let st = store.borrow();
                let mut freshest = SimTime::ZERO;
                for &metric in SpeKind::Liebre.exposed_metrics() {
                    for &(name, n) in &queries {
                        for op in 0..n {
                            let path = metric_path(SpeKind::Liebre, name, op, metric);
                            if let Some((t, _)) = st.latest(&path) {
                                freshest = freshest.max(t);
                            }
                        }
                    }
                }
                freshest
            };
            if let Some(fenced) = driver.refresh_fence(at(s)) {
                transitions.push((s, fenced));
            }
            assert_eq!(driver.fenced(), at(s) > freshest + lease, "fence at t={s}");
            assert_fetches_match(&driver, &store.borrow(), &queries, &mut reference, at(s));
        }
        assert_eq!(transitions, vec![(7, true), (10, false)]);
        assert_same_draws(&faults, &mut reference, driver.source_name());
    }
}
