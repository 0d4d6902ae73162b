//! Metric names, values and derived-metric definitions (paper Def. 3.1).

use std::fmt;
use std::marker::PhantomData;
use std::ops::Index;

use simos::{SimDuration, SimTime};

/// The name of a metric, e.g. `"queue.size"`.
///
/// Names are interned statically: every metric used by policies and drivers
/// is a `&'static str` constant (see [`names`]), so comparisons are cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricName(pub &'static str);

impl fmt::Display for MetricName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// Well-known metric names shared between SPE drivers and policies.
pub mod names {
    use super::MetricName;

    /// Tuples currently waiting in an operator's input queue.
    pub const QUEUE_SIZE: MetricName = MetricName("queue.size");
    /// Seconds the tuple at the head of the input queue has waited.
    pub const HEAD_WAIT: MetricName = MetricName("queue.head_wait");
    /// Total tuples an operator has ingested.
    pub const TUPLES_IN: MetricName = MetricName("op.tuples_in");
    /// Total tuples an operator has emitted.
    pub const TUPLES_OUT: MetricName = MetricName("op.tuples_out");
    /// Total CPU seconds an operator has consumed.
    pub const CPU_TIME: MetricName = MetricName("op.cpu_time");
    /// Average seconds of CPU per ingested tuple.
    pub const COST: MetricName = MetricName("op.cost");
    /// Average output tuples per input tuple.
    pub const SELECTIVITY: MetricName = MetricName("op.selectivity");
    /// Product of selectivities along an operator's best output path.
    pub const PATH_SELECTIVITY: MetricName = MetricName("path.selectivity");
    /// Sum of costs along an operator's best output path.
    pub const PATH_COST: MetricName = MetricName("path.cost");
    /// The Highest-Rate policy goal: path selectivity over path cost.
    pub const HIGHEST_RATE: MetricName = MetricName("policy.highest_rate");
    /// Mean processing latency observed at an egress operator.
    pub const LATENCY: MetricName = MetricName("sink.latency");
    /// Operator health: 1.0 up, 0.0 down (crashed, awaiting restart).
    pub const HEALTH: MetricName = MetricName("op.health");
    /// Total tuples dropped from an operator's input queue by shed-mode
    /// overload protection (cumulative, like the tuple counters).
    pub const SHED: MetricName = MetricName("queue.shed");
}

/// One sampled metric value and (if known) when it was sampled.
///
/// The timestamp lets consumers detect *stale* metrics — a source that
/// keeps serving old data looks healthy by value but not by age. `at:
/// None` means the source attached no timestamp; such samples are treated
/// as fresh, which matches the previous (timestamp-less) behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The metric value.
    pub value: f64,
    /// When the value was sampled, if the source knows.
    pub at: Option<SimTime>,
}

impl Sample {
    /// A sample without a timestamp (treated as fresh).
    pub fn new(value: f64) -> Self {
        Sample { value, at: None }
    }

    /// A sample taken at `at`.
    pub fn taken_at(value: f64, at: SimTime) -> Self {
        Sample {
            value,
            at: Some(at),
        }
    }

    /// The sample's age relative to `now` (`None` if untimestamped).
    pub fn age(&self, now: SimTime) -> Option<SimDuration> {
        let at = self.at?;
        Some(SimDuration::from_nanos(
            now.as_nanos().saturating_sub(at.as_nanos()),
        ))
    }

    /// Whether the sample is older than `max_age`. Untimestamped samples
    /// are never considered stale.
    pub fn is_stale(&self, now: SimTime, max_age: SimDuration) -> bool {
        self.age(now).is_some_and(|a| a > max_age)
    }
}

/// A key of [`EntityValues`]: a `(row, column)` cell of a dense table.
///
/// Entities are numbered densely per source (an operator is a query and an
/// operator within it), so values live in rows of samples, not a hash map.
/// `from_cell` inverts `cell`, and key order is row-major cell order.
pub trait EntityKey: Copy + Ord {
    /// The `(row, column)` the key is stored at.
    fn cell(self) -> (usize, usize);
    /// The key stored at `(row, column)`.
    fn from_cell(row: usize, column: usize) -> Self;
}

/// Plain integer keys are the columns of row 0.
impl EntityKey for u32 {
    fn cell(self) -> (usize, usize) {
        (0, self as usize)
    }
    fn from_cell(_row: usize, column: usize) -> Self {
        column as u32
    }
}

/// Per-entity metric values at one scheduling period.
///
/// A dense table of [`Sample`]s indexed through [`EntityKey`] that keeps
/// the ergonomics of the plain `HashMap<K, f64>` it replaced: build it from
/// `(K, f64)` pairs, read values with [`get`](EntityValues::get) or
/// indexing, and reach for [`sample`](EntityValues::sample) /
/// [`samples`](EntityValues::samples) only when timestamps matter.
/// Iteration yields entities in key order.
#[derive(Debug, Clone)]
pub struct EntityValues<K> {
    rows: Vec<Vec<Option<Sample>>>,
    key: PhantomData<K>,
}

impl<K: EntityKey> PartialEq for EntityValues<K> {
    fn eq(&self, other: &Self) -> bool {
        self.samples().eq(other.samples())
    }
}

impl<K> Default for EntityValues<K> {
    fn default() -> Self {
        EntityValues {
            rows: Vec::new(),
            key: PhantomData,
        }
    }
}

impl<K: EntityKey> EntityValues<K> {
    /// Creates an empty value map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an untimestamped value.
    pub fn insert(&mut self, key: K, value: f64) {
        self.insert_sample(key, Sample::new(value));
    }

    /// Inserts a value sampled at `at`.
    pub fn insert_at(&mut self, key: K, value: f64, at: SimTime) {
        self.insert_sample(key, Sample::taken_at(value, at));
    }

    /// Inserts a full sample.
    pub fn insert_sample(&mut self, key: K, sample: Sample) {
        let (row, column) = key.cell();
        let rows = &mut self.rows;
        rows.resize_with(rows.len().max(row + 1), Vec::new);
        let cells = &mut rows[row];
        cells.resize(cells.len().max(column + 1), None);
        cells[column] = Some(sample);
    }

    /// One entity's value.
    pub fn get(&self, key: &K) -> Option<f64> {
        self.sample(key).map(|s| s.value)
    }

    /// One entity's full sample (value + timestamp).
    pub fn sample(&self, key: &K) -> Option<Sample> {
        let (row, column) = key.cell();
        *self.rows.get(row)?.get(column)?
    }

    /// Whether the entity has a value.
    pub fn contains_key(&self, key: &K) -> bool {
        self.sample(key).is_some()
    }

    /// Number of entities with values.
    pub fn len(&self) -> usize {
        self.samples().count()
    }

    /// Whether no entity has a value.
    pub fn is_empty(&self) -> bool {
        self.samples().next().is_none()
    }

    /// Iterates `(entity, sample)` pairs in key order.
    pub fn samples(&self) -> impl Iterator<Item = (K, &Sample)> + '_ {
        self.rows.iter().enumerate().flat_map(|(row, cells)| {
            cells
                .iter()
                .enumerate()
                .filter_map(move |(column, s)| Some((K::from_cell(row, column), s.as_ref()?)))
        })
    }
}

impl<K: EntityKey> Index<&K> for EntityValues<K> {
    type Output = f64;

    fn index(&self, key: &K) -> &f64 {
        let (row, column) = key.cell();
        &self.rows[row][column].as_ref().expect("entity has a value").value
    }
}

impl<K: EntityKey> FromIterator<(K, f64)> for EntityValues<K> {
    fn from_iter<I: IntoIterator<Item = (K, f64)>>(iter: I) -> Self {
        iter.into_iter().map(|(k, v)| (k, Sample::new(v))).collect()
    }
}

impl<K: EntityKey> FromIterator<(K, Sample)> for EntityValues<K> {
    fn from_iter<I: IntoIterator<Item = (K, Sample)>>(iter: I) -> Self {
        let mut out = EntityValues::new();
        for (k, s) in iter {
            out.insert_sample(k, s);
        }
        out
    }
}

/// Dependency values handed to a derived metric's combine function, in the
/// same order as the metric's declared dependencies.
pub type DepValues<'a, K> = [&'a EntityValues<K>];

/// The boxed combine function of a derived metric.
type CombineFn<K> = Box<dyn Fn(&DepValues<'_, K>) -> EntityValues<K>>;

/// A derived metric: a name, its dependencies, and a function computing its
/// per-entity values from the dependencies' values.
///
/// Topology-aware metrics (e.g. the Highest-Rate path metrics) capture the
/// query graph in the combine closure; the provider itself stays agnostic.
pub struct MetricDef<K> {
    name: MetricName,
    deps: Vec<MetricName>,
    combine: CombineFn<K>,
}

impl<K> fmt::Debug for MetricDef<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricDef")
            .field("name", &self.name)
            .field("deps", &self.deps)
            .finish_non_exhaustive()
    }
}

impl<K> MetricDef<K> {
    /// Defines a derived metric.
    pub fn new(
        name: MetricName,
        deps: Vec<MetricName>,
        combine: impl Fn(&DepValues<'_, K>) -> EntityValues<K> + 'static,
    ) -> Self {
        MetricDef {
            name,
            deps,
            combine: Box::new(combine),
        }
    }

    /// The metric's name.
    pub fn name(&self) -> MetricName {
        self.name
    }

    /// The metric's dependencies, in combine-argument order.
    pub fn deps(&self) -> &[MetricName] {
        &self.deps
    }

    pub(crate) fn combine(&self, deps: &DepValues<'_, K>) -> EntityValues<K> {
        (self.combine)(deps)
    }
}

/// Convenience: builds a derived metric that divides dep 0 by dep 1
/// entity-wise (e.g. selectivity = out/in, cost = cpu/in).
pub fn ratio_metric<K: EntityKey + 'static>(
    name: MetricName,
    numerator: MetricName,
    denominator: MetricName,
) -> MetricDef<K> {
    MetricDef::new(name, vec![numerator, denominator], |deps: &DepValues<'_, K>| {
        let num = deps[0];
        let den = deps[1];
        num.samples()
            .filter_map(|(k, n)| {
                let d = den.sample(&k)?;
                if d.value == 0.0 {
                    return None;
                }
                // The derived sample is only as fresh as its oldest input.
                let at = match (n.at, d.at) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                Some((
                    k,
                    Sample {
                        value: n.value / d.value,
                        at,
                    },
                ))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_display() {
        assert_eq!(names::QUEUE_SIZE.to_string(), "queue.size");
    }

    #[test]
    fn ratio_metric_divides_entity_wise() {
        let def: MetricDef<u32> = ratio_metric(names::SELECTIVITY, names::TUPLES_OUT, names::TUPLES_IN);
        let out: EntityValues<u32> = [(1, 30.0), (2, 10.0), (3, 5.0)].into_iter().collect();
        let inp: EntityValues<u32> = [(1, 10.0), (2, 0.0)].into_iter().collect();
        let result = def.combine(&[&out, &inp]);
        assert_eq!(result.get(&1), Some(3.0));
        assert_eq!(result.get(&2), None, "division by zero dropped");
        assert_eq!(result.get(&3), None, "missing denominator dropped");
    }

    #[test]
    fn ratio_metric_keeps_oldest_timestamp() {
        let def: MetricDef<u32> = ratio_metric(names::SELECTIVITY, names::TUPLES_OUT, names::TUPLES_IN);
        let t5 = SimTime::ZERO + SimDuration::from_secs(5);
        let t9 = SimTime::ZERO + SimDuration::from_secs(9);
        let mut out: EntityValues<u32> = EntityValues::new();
        out.insert_at(1, 30.0, t9);
        out.insert(2, 12.0);
        let mut inp: EntityValues<u32> = EntityValues::new();
        inp.insert_at(1, 10.0, t5);
        inp.insert_at(2, 4.0, t5);
        let result = def.combine(&[&out, &inp]);
        assert_eq!(result.sample(&1).unwrap().at, Some(t5), "oldest input wins");
        assert_eq!(result.sample(&2).unwrap().at, Some(t5), "known side wins");
    }

    #[test]
    fn sample_age_and_staleness() {
        let now = SimTime::ZERO + SimDuration::from_secs(10);
        let old = Sample::taken_at(1.0, SimTime::ZERO + SimDuration::from_secs(3));
        assert_eq!(old.age(now), Some(SimDuration::from_secs(7)));
        assert!(old.is_stale(now, SimDuration::from_secs(5)));
        assert!(!old.is_stale(now, SimDuration::from_secs(7)), "boundary is fresh");
        assert!(!Sample::new(1.0).is_stale(now, SimDuration::ZERO), "untimestamped never stale");
    }

    #[test]
    fn metric_def_reports_deps() {
        let def: MetricDef<u32> =
            MetricDef::new(names::COST, vec![names::CPU_TIME, names::TUPLES_IN], |_| {
                EntityValues::new()
            });
        assert_eq!(def.name(), names::COST);
        assert_eq!(def.deps(), &[names::CPU_TIME, names::TUPLES_IN]);
    }
}
