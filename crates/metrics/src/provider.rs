//! The metric provider: Algorithm 3 of the paper.
//!
//! At each scheduling period the provider computes every registered metric
//! for every SPE driver. A metric is either fetched directly (if the driver
//! provides it) or derived by recursively computing its dependency graph —
//! so the same policy works on SPEs exposing different raw metrics (Fig. 4).

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use simos::SimTime;

use crate::metric::{DepValues, EntityKey, EntityValues, MetricDef, MetricName};

/// Why a source could not serve a fetch (backend down, timeout, ...).
///
/// Fetch failures are *transient* by nature — the supervisor retries them —
/// unlike the configuration errors in [`MetricError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchError {
    /// Human-readable failure reason.
    pub reason: String,
}

impl FetchError {
    /// Creates a fetch error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        FetchError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for FetchError {}

/// Something metrics can be fetched from — implemented by SPE drivers.
pub trait MetricSource<K> {
    /// Identifies the source in error messages and metric paths.
    fn source_name(&self) -> &str;
    /// Whether this source can provide `metric` directly.
    fn provides(&self, metric: MetricName) -> bool;
    /// Fetches the current per-entity values of `metric`.
    ///
    /// Only called when [`provides`](MetricSource::provides) returned true.
    fn fetch(&self, metric: MetricName) -> EntityValues<K>;
    /// Fallible, time-aware fetch. The default delegates to
    /// [`fetch`](MetricSource::fetch) and never fails; drivers that talk to
    /// an unreliable backend (or inject faults) override this.
    fn try_fetch(&self, metric: MetricName, now: SimTime) -> Result<EntityValues<K>, FetchError> {
        let _ = now;
        Ok(self.fetch(metric))
    }
}

/// Errors from metric resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricError {
    /// A metric with no dependencies is not provided by the source
    /// (misconfiguration, Algorithm 3 L15).
    MissingPrimitive {
        /// The unavailable metric.
        metric: MetricName,
        /// The source that cannot provide it.
        source: String,
    },
    /// The dependency graph contains a cycle through this metric.
    DependencyCycle(MetricName),
    /// The metric has dependencies but no definition was installed.
    UndefinedDerived(MetricName),
    /// A source failed to serve a fetch (transient backend failure).
    FetchFailed {
        /// The metric being fetched.
        metric: MetricName,
        /// The failing source.
        source: String,
        /// The failure reason.
        reason: String,
    },
}

impl MetricError {
    /// Whether retrying later can plausibly succeed (transient failure),
    /// as opposed to a configuration error that will fail forever.
    pub fn is_transient(&self) -> bool {
        matches!(self, MetricError::FetchFailed { .. })
    }
}

impl fmt::Display for MetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricError::MissingPrimitive { metric, source } => {
                write!(f, "metric {metric} unavailable from source {source} and has no dependencies")
            }
            MetricError::DependencyCycle(m) => write!(f, "metric {m} depends on itself"),
            MetricError::UndefinedDerived(m) => {
                write!(f, "metric {m} is not provided and has no definition")
            }
            MetricError::FetchFailed {
                metric,
                source,
                reason,
            } => {
                write!(f, "fetching {metric} from source {source} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for MetricError {}

/// Computes registered metrics from sources and derived-metric definitions.
///
/// # Examples
///
/// ```
/// use lachesis_metrics::{names, ratio_metric, MetricProvider, MetricSource, MetricName, EntityValues};
///
/// struct RawSource;
/// impl MetricSource<u32> for RawSource {
///     fn source_name(&self) -> &str { "spe-b" }
///     fn provides(&self, m: MetricName) -> bool {
///         m == names::TUPLES_IN || m == names::TUPLES_OUT
///     }
///     fn fetch(&self, m: MetricName) -> EntityValues<u32> {
///         let v = if m == names::TUPLES_IN { 10.0 } else { 25.0 };
///         [(7u32, v)].into_iter().collect()
///     }
/// }
///
/// let mut provider = MetricProvider::new();
/// provider.define(ratio_metric(names::SELECTIVITY, names::TUPLES_OUT, names::TUPLES_IN));
/// provider.register(names::SELECTIVITY);
/// provider.update(simos::SimTime::ZERO, &[&RawSource]).unwrap();
/// assert_eq!(provider.get(0, names::SELECTIVITY).unwrap()[&7], 2.5);
/// ```
pub struct MetricProvider<K> {
    defs: HashMap<MetricName, MetricDef<K>>,
    registered: BTreeSet<MetricName>,
    /// Per source, the registered metrics and their dependencies.
    values: Vec<Computed<K>>,
}

/// Metrics computed for one source: a short list, scanned by name.
type Computed<K> = Vec<(MetricName, EntityValues<K>)>;

fn find<K>(computed: &Computed<K>, metric: MetricName) -> Option<&EntityValues<K>> {
    computed.iter().find(|(m, _)| *m == metric).map(|(_, v)| v)
}

impl<K> fmt::Debug for MetricProvider<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricProvider")
            .field("defs", &self.defs.keys().collect::<Vec<_>>())
            .field("registered", &self.registered)
            .finish_non_exhaustive()
    }
}

impl<K: EntityKey> Default for MetricProvider<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityKey> MetricProvider<K> {
    /// Creates an empty provider.
    pub fn new() -> Self {
        MetricProvider {
            defs: HashMap::new(),
            registered: BTreeSet::new(),
            values: Vec::new(),
        }
    }

    /// Installs a derived-metric definition (replacing any previous one).
    pub fn define(&mut self, def: MetricDef<K>) {
        self.defs.insert(def.name(), def);
    }

    /// Registers a metric required by a policy (Algorithm 1, L1).
    pub fn register(&mut self, name: MetricName) {
        self.registered.insert(name);
    }

    /// The currently registered metrics.
    pub fn registered(&self) -> impl Iterator<Item = MetricName> + '_ {
        self.registered.iter().copied()
    }

    /// Computes all registered metrics for all sources (Algorithm 3), one
    /// [`update_source`](MetricProvider::update_source) per source.
    ///
    /// # Errors
    ///
    /// Returns the first per-source error; every source is still updated.
    pub fn update(
        &mut self,
        now: SimTime,
        sources: &[&dyn MetricSource<K>],
    ) -> Result<(), MetricError> {
        let mut first = None;
        for (i, source) in sources.iter().enumerate() {
            if let Err(e) = self.update_source(now, i, *source) {
                first.get_or_insert(e);
            }
        }
        first.map_or(Ok(()), Err)
    }

    /// Computes all registered metrics for the source at index
    /// `source_idx` (Algorithm 3).
    ///
    /// One failing source does not poison the others: a failing source
    /// *keeps its previous values* (hold-last) so policies degrade
    /// gracefully instead of losing the whole view.
    ///
    /// # Errors
    ///
    /// A required primitive metric unavailable from the source, a derived
    /// metric with no definition, a dependency cycle, or a failed fetch.
    pub fn update_source(
        &mut self,
        now: SimTime,
        source_idx: usize,
        source: &dyn MetricSource<K>,
    ) -> Result<(), MetricError> {
        let sources = self.values.len().max(source_idx + 1);
        self.values.resize_with(sources, Vec::new);
        // Per-driver cache, fresh each period (Algorithm 3, L4).
        let mut cache = Vec::new();
        let mut visiting = Vec::new();
        for &metric in &self.registered {
            self.compute(metric, now, source, &mut cache, &mut visiting)?;
        }
        self.values[source_idx] = cache;
        Ok(())
    }

    fn compute(
        &self,
        metric: MetricName,
        now: SimTime,
        source: &dyn MetricSource<K>,
        cache: &mut Computed<K>,
        visiting: &mut Vec<MetricName>,
    ) -> Result<(), MetricError> {
        if find(cache, metric).is_some() {
            return Ok(()); // L10-11
        }
        if source.provides(metric) {
            let values =
                source
                    .try_fetch(metric, now)
                    .map_err(|e| MetricError::FetchFailed {
                        metric,
                        source: source.source_name().to_owned(),
                        reason: e.reason,
                    })?;
            cache.push((metric, values)); // L12-13
            return Ok(());
        }
        let Some(def) = self.defs.get(&metric) else {
            return Err(MetricError::UndefinedDerived(metric));
        };
        if def.deps().is_empty() {
            // L14-15: a primitive (no-dependency) metric the source lacks.
            return Err(MetricError::MissingPrimitive {
                metric,
                source: source.source_name().to_owned(),
            });
        }
        if visiting.contains(&metric) {
            return Err(MetricError::DependencyCycle(metric));
        }
        visiting.push(metric);
        for &dep in def.deps() {
            self.compute(dep, now, source, cache, visiting)?; // L16
        }
        visiting.pop();
        let dep_refs: Vec<&EntityValues<K>> = def
            .deps()
            .iter()
            .map(|&d| find(cache, d).expect("dependency just computed"))
            .collect();
        let deps: &DepValues<'_, K> = dep_refs.as_slice();
        let value = def.combine(deps);
        cache.push((metric, value)); // L17-18
        Ok(())
    }

    /// The computed values of `metric` for source index `source_idx`, as of
    /// the last [`update`](MetricProvider::update).
    pub fn get(&self, source_idx: usize, metric: MetricName) -> Option<&EntityValues<K>> {
        find(self.values.get(source_idx)?, metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{names, ratio_metric};
    use simos::SimDuration;

    /// SPE "A" from Fig. 4: exposes selectivity and cost directly.
    struct SpeA;
    impl MetricSource<u32> for SpeA {
        fn source_name(&self) -> &str {
            "spe-a"
        }
        fn provides(&self, m: MetricName) -> bool {
            m == names::SELECTIVITY || m == names::COST
        }
        fn fetch(&self, m: MetricName) -> EntityValues<u32> {
            let v = if m == names::SELECTIVITY { 2.0 } else { 0.5 };
            [(1, v)].into_iter().collect()
        }
    }

    /// SPE "B" from Fig. 4: exposes only raw counters.
    struct SpeB;
    impl MetricSource<u32> for SpeB {
        fn source_name(&self) -> &str {
            "spe-b"
        }
        fn provides(&self, m: MetricName) -> bool {
            matches!(m, m if m == names::TUPLES_IN || m == names::TUPLES_OUT || m == names::CPU_TIME)
        }
        fn fetch(&self, m: MetricName) -> EntityValues<u32> {
            let v = if m == names::TUPLES_IN {
                10.0
            } else if m == names::TUPLES_OUT {
                20.0
            } else {
                5.0
            };
            [(1, v)].into_iter().collect()
        }
    }

    fn provider_with_derivations() -> MetricProvider<u32> {
        let mut p = MetricProvider::new();
        p.define(ratio_metric(
            names::SELECTIVITY,
            names::TUPLES_OUT,
            names::TUPLES_IN,
        ));
        p.define(ratio_metric(names::COST, names::CPU_TIME, names::TUPLES_IN));
        p
    }

    #[test]
    fn fetches_directly_when_provided() {
        let mut p = provider_with_derivations();
        p.register(names::SELECTIVITY);
        p.update(SimTime::ZERO, &[&SpeA]).unwrap();
        assert_eq!(p.get(0, names::SELECTIVITY).unwrap()[&1], 2.0);
    }

    #[test]
    fn derives_when_not_provided() {
        let mut p = provider_with_derivations();
        p.register(names::SELECTIVITY);
        p.register(names::COST);
        p.update(SimTime::ZERO, &[&SpeB]).unwrap();
        assert_eq!(p.get(0, names::SELECTIVITY).unwrap()[&1], 2.0);
        assert_eq!(p.get(0, names::COST).unwrap()[&1], 0.5);
    }

    #[test]
    fn same_policy_works_on_both_spes() {
        let mut p = provider_with_derivations();
        p.register(names::SELECTIVITY);
        p.update(SimTime::ZERO, &[&SpeA, &SpeB]).unwrap();
        assert_eq!(p.get(0, names::SELECTIVITY).unwrap()[&1], 2.0);
        assert_eq!(p.get(1, names::SELECTIVITY).unwrap()[&1], 2.0);
    }

    #[test]
    fn missing_primitive_is_an_error() {
        let mut p: MetricProvider<u32> = MetricProvider::new();
        p.define(MetricDef::new(names::QUEUE_SIZE, vec![], |_| {
            EntityValues::new()
        }));
        p.register(names::QUEUE_SIZE);
        let err = p.update(SimTime::ZERO, &[&SpeA]).unwrap_err();
        assert!(matches!(err, MetricError::MissingPrimitive { .. }));
    }

    #[test]
    fn undefined_derived_is_an_error() {
        let mut p: MetricProvider<u32> = MetricProvider::new();
        p.register(names::HIGHEST_RATE);
        let err = p.update(SimTime::ZERO, &[&SpeA]).unwrap_err();
        assert_eq!(err, MetricError::UndefinedDerived(names::HIGHEST_RATE));
    }

    #[test]
    fn dependency_cycle_detected() {
        let mut p: MetricProvider<u32> = MetricProvider::new();
        let a = MetricName("cyc.a");
        let b = MetricName("cyc.b");
        p.define(MetricDef::new(a, vec![b], |_| EntityValues::new()));
        p.define(MetricDef::new(b, vec![a], |_| EntityValues::new()));
        p.register(a);
        let err = p.update(SimTime::ZERO, &[&SpeA]).unwrap_err();
        assert!(matches!(err, MetricError::DependencyCycle(_)));
    }

    #[test]
    fn cache_prevents_duplicate_fetches() {
        use std::cell::Cell;
        struct Counting(Cell<u32>);
        impl MetricSource<u32> for Counting {
            fn source_name(&self) -> &str {
                "counting"
            }
            fn provides(&self, m: MetricName) -> bool {
                m == names::TUPLES_IN
            }
            fn fetch(&self, _: MetricName) -> EntityValues<u32> {
                self.0.set(self.0.get() + 1);
                [(1, 4.0)].into_iter().collect()
            }
        }
        let mut p: MetricProvider<u32> = MetricProvider::new();
        // Two derived metrics that both depend on TUPLES_IN.
        p.define(MetricDef::new(MetricName("d1"), vec![names::TUPLES_IN], |d| {
            d[0].clone()
        }));
        p.define(MetricDef::new(MetricName("d2"), vec![names::TUPLES_IN], |d| {
            d[0].clone()
        }));
        p.register(MetricName("d1"));
        p.register(MetricName("d2"));
        let src = Counting(Cell::new(0));
        p.update(SimTime::ZERO, &[&src]).unwrap();
        assert_eq!(src.0.get(), 1, "TUPLES_IN fetched once per period");
    }

    /// Serves selectivity directly; fails every fetch when told to.
    struct Flaky(std::cell::Cell<bool>);
    impl MetricSource<u32> for Flaky {
        fn source_name(&self) -> &str {
            "flaky"
        }
        fn provides(&self, m: MetricName) -> bool {
            m == names::SELECTIVITY
        }
        fn fetch(&self, _: MetricName) -> EntityValues<u32> {
            [(1, 9.0)].into_iter().collect()
        }
        fn try_fetch(
            &self,
            m: MetricName,
            _now: SimTime,
        ) -> Result<EntityValues<u32>, FetchError> {
            if self.0.get() {
                Err(FetchError::new("backend down"))
            } else {
                Ok(self.fetch(m))
            }
        }
    }

    #[test]
    fn failing_source_does_not_poison_healthy_ones() {
        let mut p: MetricProvider<u32> = MetricProvider::new();
        p.register(names::SELECTIVITY);
        let flaky = Flaky(std::cell::Cell::new(true));
        let err = p.update(SimTime::ZERO, &[&flaky, &SpeA]).unwrap_err();
        assert!(err.is_transient());
        assert!(
            matches!(&err, MetricError::FetchFailed { source, .. } if source == "flaky"),
            "only the flaky source errors"
        );
        assert_eq!(
            p.get(1, names::SELECTIVITY).unwrap()[&1],
            2.0,
            "healthy source committed"
        );
    }

    #[test]
    fn failing_source_holds_its_last_values() {
        let mut p: MetricProvider<u32> = MetricProvider::new();
        p.register(names::SELECTIVITY);
        let flaky = Flaky(std::cell::Cell::new(false));
        p.update(SimTime::ZERO, &[&flaky]).unwrap();
        assert_eq!(p.get(0, names::SELECTIVITY).unwrap()[&1], 9.0);
        flaky.0.set(true);
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        let err = p.update(now, &[&flaky]).unwrap_err();
        assert!(matches!(err, MetricError::FetchFailed { .. }));
        assert_eq!(
            p.get(0, names::SELECTIVITY).unwrap()[&1],
            9.0,
            "previous values held across the outage"
        );
    }

    #[test]
    fn config_errors_are_not_transient() {
        let err = MetricError::UndefinedDerived(names::HIGHEST_RATE);
        assert!(!err.is_transient());
        assert!(MetricError::FetchFailed {
            metric: names::QUEUE_SIZE,
            source: "s".into(),
            reason: "r".into(),
        }
        .is_transient());
    }
}
