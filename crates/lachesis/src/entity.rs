//! Entity references (paper §3): the things metrics and schedules talk
//! about — physical operators, identified per driver by query index and
//! physical-operator id.

use std::fmt;

use lachesis_metrics::EntityKey;
use spe::PhysOpId;

/// A physical operator of one query managed by one SPE driver.
///
/// `OpRef` is the entity key of Lachesis' metric provider and schedules;
/// it is scoped to a driver (driver index lives outside the key, matching
/// the per-driver metric caches of Algorithm 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpRef {
    /// Index of the query within the driver.
    pub query: usize,
    /// Physical operator id within the query.
    pub op: PhysOpId,
}

impl OpRef {
    /// Creates a reference.
    pub fn new(query: usize, op: PhysOpId) -> Self {
        OpRef { query, op }
    }
}

/// Metric tables are laid out query by query, one column per operator.
impl EntityKey for OpRef {
    fn cell(self) -> (usize, usize) {
        (self.query, self.op)
    }
    fn from_cell(query: usize, op: usize) -> Self {
        OpRef { query, op }
    }
}

impl fmt::Display for OpRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}/op{}", self.query, self.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_ordering() {
        assert_eq!(OpRef::new(1, 2).to_string(), "q1/op2");
        assert!(OpRef::new(0, 5) < OpRef::new(1, 0));
        assert!(OpRef::new(1, 0) < OpRef::new(1, 1));
    }
}
