//! Property tests of `SinglePrioritySchedule` against a `BTreeMap` model:
//! `set` and `collect` (duplicate operators included, last write wins)
//! leave both with the same priorities, iterated in operator order.

use std::collections::BTreeMap;

use lachesis::{OpRef, SinglePrioritySchedule};
use proptest::prelude::*;

/// Operators over three queries, sparse and repeated. Each write's
/// priority is its position, so a lost or reordered write shows.
fn writes() -> impl Strategy<Value = Vec<(usize, usize)>> {
    collection::vec((0usize..3, 0usize..12), 0..40)
}

fn pairs(writes: &[(usize, usize)]) -> impl Iterator<Item = (OpRef, f64)> + '_ {
    writes
        .iter()
        .enumerate()
        .map(|(i, &(q, op))| (OpRef::new(q, op), i as f64))
}

fn assert_matches(
    schedule: &SinglePrioritySchedule,
    model: &BTreeMap<OpRef, f64>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(schedule.len(), model.len());
    prop_assert_eq!(schedule.is_empty(), model.is_empty());
    let iterated: Vec<(OpRef, f64)> = schedule.iter().collect();
    prop_assert_eq!(iterated, model.iter().map(|(&o, &p)| (o, p)).collect::<Vec<_>>());
    prop_assert_eq!(schedule.values(), model.values().copied().collect::<Vec<_>>());
    for q in 0..4 {
        for op in 0..14 {
            let op = OpRef::new(q, op);
            prop_assert_eq!(schedule.get(op), model.get(&op).copied());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn set_matches_btree_map(ops in writes()) {
        let mut schedule = SinglePrioritySchedule::new();
        let mut model = BTreeMap::new();
        for (op, p) in pairs(&ops) {
            schedule.set(op, p);
            model.insert(op, p);
        }
        assert_matches(&schedule, &model)?;
    }

    #[test]
    fn collect_matches_btree_map(ops in writes()) {
        let schedule: SinglePrioritySchedule = pairs(&ops).collect();
        let model: BTreeMap<OpRef, f64> = pairs(&ops).collect();
        assert_matches(&schedule, &model)?;
        let mut set = SinglePrioritySchedule::new();
        for (op, p) in pairs(&ops) {
            set.set(op, p);
        }
        prop_assert_eq!(set, schedule);
    }
}
