//! Property tests of the dense `EntityValues` table against a hash-map
//! model: random writes (overwrites, sparse keys, several rows) must leave
//! both with the same contents, and the table must iterate in key order.

use std::collections::HashMap;

use lachesis_metrics::{
    names, ratio_metric, EntityKey, EntityValues, MetricName, MetricProvider, MetricSource, Sample,
};
use proptest::prelude::*;
use simos::{SimDuration, SimTime};

/// A two-level key, like an operator's `(query, op)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Key {
    row: usize,
    col: usize,
}

impl EntityKey for Key {
    fn cell(self) -> (usize, usize) {
        (self.row, self.col)
    }
    fn from_cell(row: usize, col: usize) -> Self {
        Key { row, col }
    }
}

/// One write: row, column, integer value (so zero denominators occur) and
/// timestamp in seconds, 0 meaning `insert` without one.
type Write = (usize, usize, i32, u64);

fn writes() -> impl Strategy<Value = Vec<Write>> {
    collection::vec((0usize..4, 0usize..20, -2i32..4, 0u64..5), 0..40)
}

fn build(writes: &[Write]) -> (EntityValues<Key>, HashMap<Key, Sample>) {
    let mut table = EntityValues::new();
    let mut model = HashMap::new();
    for &(row, col, value, secs) in writes {
        let key = Key { row, col };
        let value = f64::from(value);
        let sample = if secs == 0 {
            table.insert(key, value);
            Sample::new(value)
        } else {
            let at = SimTime::ZERO + SimDuration::from_secs(secs);
            table.insert_at(key, value, at);
            Sample::taken_at(value, at)
        };
        model.insert(key, sample);
    }
    (table, model)
}

/// Serves two tables as the raw counters of a ratio metric.
struct Counters(EntityValues<Key>, EntityValues<Key>);

impl MetricSource<Key> for Counters {
    fn source_name(&self) -> &str {
        "counters"
    }
    fn provides(&self, metric: MetricName) -> bool {
        metric == names::TUPLES_OUT || metric == names::TUPLES_IN
    }
    fn fetch(&self, metric: MetricName) -> EntityValues<Key> {
        if metric == names::TUPLES_OUT {
            self.0.clone()
        } else {
            self.1.clone()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn table_matches_hash_map_model(ops in writes()) {
        let (table, model) = build(&ops);
        prop_assert_eq!(table.len(), model.len());
        prop_assert_eq!(table.is_empty(), model.is_empty());
        // Every cell, including ones past the end of a row or the table.
        for row in 0..6 {
            for col in 0..24 {
                let key = Key { row, col };
                prop_assert_eq!(table.sample(&key), model.get(&key).copied());
                prop_assert_eq!(table.get(&key), model.get(&key).map(|s| s.value));
                prop_assert_eq!(table.contains_key(&key), model.contains_key(&key));
                if let Some(s) = model.get(&key) {
                    prop_assert_eq!(table[&key], s.value);
                }
            }
        }
        // Each key once, in key order, with its sample.
        let mut expected: Vec<(Key, Sample)> = model.iter().map(|(&k, &s)| (k, s)).collect();
        expected.sort_by_key(|&(k, _)| k);
        let iterated: Vec<(Key, Sample)> = table.samples().map(|(k, &s)| (k, s)).collect();
        prop_assert_eq!(&iterated, &expected);
        // Equality looks at present entries only, whatever the write order.
        let rebuilt: EntityValues<Key> = expected.iter().rev().copied().collect();
        prop_assert_eq!(&rebuilt, &table);
        if let Some(&(k, s)) = expected.first() {
            let mut changed = table.clone();
            changed.insert_sample(k, Sample { value: s.value + 1.0, ..s });
            prop_assert_ne!(changed, table);
            let mut grown = table.clone();
            grown.insert(Key { row: 5, col: 0 }, 0.0);
            prop_assert_ne!(grown, table);
        }
        let untimed: EntityValues<Key> = expected.iter().map(|&(k, s)| (k, s.value)).collect();
        prop_assert_eq!(untimed.len(), table.len());
        prop_assert!(untimed.samples().all(|(k, s)| s.at.is_none() && table.get(&k) == Some(s.value)));
    }

    #[test]
    fn ratio_metric_matches_model_division(num_ops in writes(), den_ops in writes()) {
        let (num, num_model) = build(&num_ops);
        let (den, den_model) = build(&den_ops);
        let mut provider = MetricProvider::new();
        provider.define(ratio_metric(names::SELECTIVITY, names::TUPLES_OUT, names::TUPLES_IN));
        provider.register(names::SELECTIVITY);
        provider.update(SimTime::ZERO, &[&Counters(num, den)]).unwrap();
        let ratio = provider.get(0, names::SELECTIVITY).unwrap();
        let mut expected: HashMap<Key, Sample> = HashMap::new();
        for (k, n) in &num_model {
            let Some(d) = den_model.get(k).filter(|d| d.value != 0.0) else {
                continue;
            };
            let at = match (n.at, d.at) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            expected.insert(*k, Sample { value: n.value / d.value, at });
        }
        prop_assert_eq!(ratio.len(), expected.len());
        for (k, s) in ratio.samples() {
            prop_assert_eq!(Some(s), expected.get(&k));
        }
    }
}
