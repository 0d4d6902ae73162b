//! # lachesis-metrics — metric model, store and provider
//!
//! The metric subsystem of the Lachesis reproduction (paper §4, §5.2):
//!
//! * [`TimeSeriesStore`] — a Graphite-like time-series database with 1 s
//!   resolution, through which SPEs expose their runtime metrics,
//! * [`MetricName`] / [`MetricDef`] — metrics and their dependency graphs
//!   (Definition 3.1),
//! * [`MetricProvider`] — Algorithm 3: computes each requested metric per
//!   SPE driver, fetching it directly where the SPE provides it and
//!   deriving it from dependencies where it does not.
//!
//! ## Example
//!
//! ```
//! use lachesis_metrics::{names, ratio_metric, MetricProvider};
//!
//! let mut provider: MetricProvider<u32> = MetricProvider::new();
//! provider.define(ratio_metric(names::SELECTIVITY, names::TUPLES_OUT, names::TUPLES_IN));
//! provider.register(names::SELECTIVITY);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fault;
mod metric;
mod provider;
mod store;

pub use fault::{FaultKind, FaultPlan, FaultRule, PointFault};
pub use metric::{
    names, ratio_metric, DepValues, EntityKey, EntityValues, MetricDef, MetricName, Sample,
};
pub use provider::{FetchError, MetricError, MetricProvider, MetricSource};
pub use store::{SeriesId, TimeSeriesStore};
