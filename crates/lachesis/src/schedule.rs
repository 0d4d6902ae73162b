//! Schedule formats (paper §5.3).
//!
//! Policies output real-valued priorities — **higher is better** (more
//! CPU). Translators convert them into OS units. Two complementary formats
//! exist: per-operator priorities for `nice`, and grouped priorities for
//! cgroup `cpu.shares`.

use std::collections::BTreeMap;

use crate::entity::OpRef;

/// A single-priority schedule: every operator gets one real priority.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SinglePrioritySchedule {
    /// Sorted by operator, one entry per operator.
    priorities: Vec<(OpRef, f64)>,
}

impl SinglePrioritySchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets an operator's priority (higher = more CPU).
    pub fn set(&mut self, op: OpRef, priority: f64) {
        match self.priorities.binary_search_by_key(&op, |&(o, _)| o) {
            Ok(i) => self.priorities[i].1 = priority,
            Err(i) => self.priorities.insert(i, (op, priority)),
        }
    }

    /// An operator's priority, if scheduled.
    pub fn get(&self, op: OpRef) -> Option<f64> {
        let i = self.priorities.binary_search_by_key(&op, |&(o, _)| o);
        i.ok().map(|i| self.priorities[i].1)
    }

    /// Iterates `(op, priority)` in operator order.
    pub fn iter(&self) -> impl Iterator<Item = (OpRef, f64)> + '_ {
        self.priorities.iter().copied()
    }

    /// Number of scheduled operators.
    pub fn len(&self) -> usize {
        self.priorities.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.priorities.is_empty()
    }

    /// All priority values, in entity order.
    pub fn values(&self) -> Vec<f64> {
        self.priorities.iter().map(|&(_, p)| p).collect()
    }
}

/// Later pairs overwrite earlier ones for the same operator.
impl FromIterator<(OpRef, f64)> for SinglePrioritySchedule {
    fn from_iter<T: IntoIterator<Item = (OpRef, f64)>>(iter: T) -> Self {
        let mut priorities: Vec<(OpRef, f64)> = iter.into_iter().collect();
        // Newest first, then a stable sort: each operator's last write
        // leads its run and survives the dedup.
        priorities.reverse();
        priorities.sort_by_key(|&(op, _)| op);
        priorities.dedup_by_key(|&mut (op, _)| op);
        SinglePrioritySchedule { priorities }
    }
}

/// A grouping schedule: operators are partitioned into groups, each with a
/// priority (`{gid} → (ℝ, {ops})` in the paper's notation).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupingSchedule {
    groups: BTreeMap<String, (f64, Vec<OpRef>)>,
}

impl GroupingSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a group.
    pub fn set_group(&mut self, gid: &str, priority: f64, ops: Vec<OpRef>) {
        self.groups.insert(gid.to_owned(), (priority, ops));
    }

    /// Iterates `(gid, priority, ops)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &[OpRef])> + '_ {
        self.groups
            .iter()
            .map(|(k, (p, ops))| (k.as_str(), *p, ops.as_slice()))
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Builds the degenerate grouping with one group per operator — how the
    /// cpu.shares translator applies a single-priority schedule when `nice`
    /// runs out of distinct values (paper §6.4). The translator caches the
    /// equivalent plan instead of building this every round.
    pub fn per_operator(schedule: &SinglePrioritySchedule) -> GroupingSchedule {
        let mut g = GroupingSchedule::new();
        for (op, p) in schedule.iter() {
            g.set_group(&op.to_string(), p, vec![op]);
        }
        g
    }
}

/// Either schedule format, as produced by a policy + grouping strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// Per-operator priorities.
    Single(SinglePrioritySchedule),
    /// Grouped priorities.
    Grouped(GroupingSchedule),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(q: usize, o: usize) -> OpRef {
        OpRef::new(q, o)
    }

    #[test]
    fn single_priority_roundtrip() {
        let mut s = SinglePrioritySchedule::new();
        s.set(op(0, 1), 5.0);
        s.set(op(0, 0), 2.0);
        assert_eq!(s.get(op(0, 1)), Some(5.0));
        assert_eq!(s.get(op(1, 0)), None);
        let order: Vec<OpRef> = s.iter().map(|(o, _)| o).collect();
        assert_eq!(order, vec![op(0, 0), op(0, 1)], "deterministic order");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn per_operator_grouping() {
        let s: SinglePrioritySchedule =
            [(op(0, 0), 1.0), (op(0, 1), 9.0)].into_iter().collect();
        let g = GroupingSchedule::per_operator(&s);
        assert_eq!(g.len(), 2);
        let (gid, p, ops) = g.iter().next().unwrap();
        assert_eq!(gid, "q0/op0");
        assert_eq!(p, 1.0);
        assert_eq!(ops, &[op(0, 0)]);
    }

    #[test]
    fn grouping_replaces_on_same_gid() {
        let mut g = GroupingSchedule::new();
        g.set_group("a", 1.0, vec![op(0, 0)]);
        g.set_group("a", 2.0, vec![op(0, 1)]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.iter().next().unwrap().1, 2.0);
    }
}
