//! A Graphite-like time-series store.
//!
//! The paper's Lachesis deployment retrieves all SPE metrics from Graphite,
//! which caps the metric resolution at one second and therefore bounds the
//! middleware's scheduling period (§6.1). [`TimeSeriesStore`] reproduces
//! that interface: writers report samples, timestamps are floored to the
//! store resolution, and readers see the latest *completed* sample — i.e.
//! data that is up to one resolution interval stale, like real Graphite.

use std::collections::HashMap;
use std::num::NonZeroU32;

use simos::{SimDuration, SimTime};

/// A time-series database with fixed resolution, keyed by metric path.
///
/// # Examples
///
/// ```
/// use lachesis_metrics::TimeSeriesStore;
/// use simos::{SimDuration, SimTime};
///
/// let mut store = TimeSeriesStore::new(SimDuration::from_secs(1));
/// let t1 = SimTime::ZERO + SimDuration::from_millis(1500);
/// store.record("storm.op1.queue_size", t1, 42.0);
/// // The sample lands in the bucket starting at 1s.
/// assert_eq!(store.latest("storm.op1.queue_size"), Some((SimTime::ZERO + SimDuration::from_secs(1), 42.0)));
/// ```
#[derive(Debug)]
pub struct TimeSeriesStore {
    resolution: SimDuration,
    /// Metric path → handle of its series.
    index: HashMap<String, SeriesId>,
    /// Series in creation order. Never shrinks (`prune` drops points, not
    /// series), so a [`SeriesId`] stays valid for the store's lifetime.
    series: Vec<Series>,
}

/// A handle to one series of a [`TimeSeriesStore`], resolved once from its
/// metric path with [`TimeSeriesStore::id`] or
/// [`TimeSeriesStore::id_or_insert`]. Reads and writes through a handle
/// skip formatting and hashing the path, which is what a reader that
/// polls the same series every period (a driver) or a writer that reports
/// them (an SPE) does thousands of times per simulated second.
///
/// A handle is only meaningful for the store that issued it. It is a
/// non-zero `u32`, so a cached `Option<SeriesId>` takes four bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesId(NonZeroU32);

impl SeriesId {
    /// The series' position in [`TimeSeriesStore`]'s `series`.
    fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

#[derive(Debug, Default)]
struct Series {
    /// (bucket start, last value written in the bucket)
    points: Vec<(SimTime, f64)>,
}

impl TimeSeriesStore {
    /// Creates a store with the given bucket resolution.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero.
    pub fn new(resolution: SimDuration) -> Self {
        assert!(!resolution.is_zero(), "store resolution must be > 0");
        TimeSeriesStore {
            resolution,
            index: HashMap::new(),
            series: Vec::new(),
        }
    }

    /// The bucket resolution.
    pub fn resolution(&self) -> SimDuration {
        self.resolution
    }

    fn bucket(&self, t: SimTime) -> SimTime {
        let r = self.resolution.as_nanos();
        SimTime::from_nanos(t.as_nanos() / r * r)
    }

    /// The handle of `key`'s series, if any sample was ever recorded.
    pub fn id(&self, key: &str) -> Option<SeriesId> {
        self.index.get(key).copied()
    }

    /// The handle of `key`'s series, creating an empty series if needed.
    pub fn id_or_insert(&mut self, key: &str) -> SeriesId {
        if let Some(id) = self.id(key) {
            return id;
        }
        let n = u32::try_from(self.series.len())
            .ok()
            .and_then(|n| NonZeroU32::MIN.checked_add(n))
            .expect("a store holds fewer than 2^32 series");
        let id = SeriesId(n);
        self.series.push(Series::default());
        self.index.insert(key.to_owned(), id);
        id
    }

    /// Records a sample; within one bucket, the last write wins.
    pub fn record(&mut self, key: &str, at: SimTime, value: f64) {
        let id = self.id_or_insert(key);
        self.record_id(id, at, value);
    }

    /// [`record`](TimeSeriesStore::record) through a handle.
    pub fn record_id(&mut self, id: SeriesId, at: SimTime, value: f64) {
        let bucket = self.bucket(at);
        let series = &mut self.series[id.index()];
        match series.points.last_mut() {
            Some((t, v)) if *t == bucket => *v = value,
            Some((t, _)) if *t > bucket => {
                // Out-of-order write: find and overwrite (rare).
                if let Some(p) = series.points.iter_mut().find(|(pt, _)| *pt == bucket) {
                    p.1 = value;
                }
            }
            _ => series.points.push((bucket, value)),
        }
    }

    /// The most recent sample for `key`, if any.
    pub fn latest(&self, key: &str) -> Option<(SimTime, f64)> {
        self.latest_id(self.id(key)?)
    }

    /// [`latest`](TimeSeriesStore::latest) through a handle.
    pub fn latest_id(&self, id: SeriesId) -> Option<(SimTime, f64)> {
        self.series[id.index()].points.last().copied()
    }

    /// The most recent sample recorded at or before `t`.
    pub fn latest_at(&self, key: &str, t: SimTime) -> Option<(SimTime, f64)> {
        self.latest_at_id(self.id(key)?, t)
    }

    /// [`latest_at`](TimeSeriesStore::latest_at) through a handle.
    pub fn latest_at_id(&self, id: SeriesId, t: SimTime) -> Option<(SimTime, f64)> {
        let points = &self.series[id.index()].points;
        let idx = points.partition_point(|(pt, _)| *pt <= t);
        idx.checked_sub(1).map(|i| points[i])
    }

    /// All samples in `[from, to)` in time order.
    pub fn range(&self, key: &str, from: SimTime, to: SimTime) -> Vec<(SimTime, f64)> {
        match self.id(key) {
            None => Vec::new(),
            Some(id) => self.series[id.index()]
                .points
                .iter()
                .filter(|(t, _)| *t >= from && *t < to)
                .copied()
                .collect(),
        }
    }

    /// Mean of samples in `[from, to)`, if any exist.
    pub fn mean(&self, key: &str, from: SimTime, to: SimTime) -> Option<f64> {
        let pts = self.range(key, from, to);
        if pts.is_empty() {
            None
        } else {
            Some(pts.iter().map(|(_, v)| v).sum::<f64>() / pts.len() as f64)
        }
    }

    /// Number of distinct series stored.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// All metric paths, sorted (deterministic iteration order for
    /// exporters; the backing map is hash-ordered).
    pub fn keys(&self) -> Vec<&str> {
        let mut keys: Vec<&str> = self.index.keys().map(String::as_str).collect();
        keys.sort_unstable();
        keys
    }

    /// Every sample whose bucket starts strictly after `since`, sorted by
    /// `(path, bucket)`. This is the store side of a push-based exporter:
    /// a relay calls it once per export period with the previous period's
    /// cutoff and forwards the delta (e.g. to a rack-wide store across the
    /// modeled network).
    pub fn export_since(&self, since: SimTime) -> Vec<(String, SimTime, f64)> {
        let mut out = Vec::new();
        for key in self.keys() {
            let points = &self.series[self.index[key].index()].points;
            let idx = points.partition_point(|(t, _)| *t <= since);
            for &(t, v) in &points[idx..] {
                out.push((key.to_owned(), t, v));
            }
        }
        out
    }

    /// Drops samples older than `keep` before `now` (Graphite retention).
    pub fn prune(&mut self, now: SimTime, keep: SimDuration) {
        let cutoff = SimTime::from_nanos(now.as_nanos().saturating_sub(keep.as_nanos()));
        for series in &mut self.series {
            series.points.retain(|(t, _)| *t >= cutoff);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn records_floor_to_resolution() {
        let mut store = TimeSeriesStore::new(SimDuration::from_secs(1));
        store.record("a", secs(1) + SimDuration::from_millis(999), 5.0);
        assert_eq!(store.latest("a"), Some((secs(1), 5.0)));
    }

    #[test]
    fn last_write_wins_within_bucket() {
        let mut store = TimeSeriesStore::new(SimDuration::from_secs(1));
        store.record("a", secs(1), 1.0);
        store.record("a", secs(1) + SimDuration::from_millis(500), 2.0);
        assert_eq!(store.latest("a"), Some((secs(1), 2.0)));
    }

    #[test]
    fn latest_at_respects_cutoff() {
        let mut store = TimeSeriesStore::new(SimDuration::from_secs(1));
        store.record("a", secs(1), 1.0);
        store.record("a", secs(2), 2.0);
        store.record("a", secs(3), 3.0);
        assert_eq!(store.latest_at("a", secs(2)), Some((secs(2), 2.0)));
        assert_eq!(
            store.latest_at("a", secs(2) + SimDuration::from_millis(500)),
            Some((secs(2), 2.0))
        );
        assert_eq!(store.latest_at("a", SimTime::ZERO), None);
    }

    #[test]
    fn range_and_mean() {
        let mut store = TimeSeriesStore::new(SimDuration::from_secs(1));
        for s in 0..5 {
            store.record("a", secs(s), s as f64);
        }
        assert_eq!(store.range("a", secs(1), secs(4)).len(), 3);
        assert_eq!(store.mean("a", secs(1), secs(4)), Some(2.0));
        assert_eq!(store.mean("missing", secs(0), secs(10)), None);
    }

    #[test]
    fn prune_drops_old_samples() {
        let mut store = TimeSeriesStore::new(SimDuration::from_secs(1));
        for s in 0..10 {
            store.record("a", secs(s), s as f64);
        }
        store.prune(secs(10), SimDuration::from_secs(3));
        assert_eq!(store.range("a", secs(0), secs(10)).len(), 3);
    }

    #[test]
    fn export_since_is_sorted_and_strict() {
        let mut store = TimeSeriesStore::new(SimDuration::from_secs(1));
        store.record("b", secs(1), 10.0);
        store.record("a", secs(1), 1.0);
        store.record("a", secs(2), 2.0);
        store.record("b", secs(3), 30.0);
        let all = store.export_since(SimTime::ZERO);
        assert_eq!(
            all,
            vec![
                ("a".to_owned(), secs(1), 1.0),
                ("a".to_owned(), secs(2), 2.0),
                ("b".to_owned(), secs(1), 10.0),
                ("b".to_owned(), secs(3), 30.0),
            ]
        );
        // Strictly-after cutoff: the secs(1) bucket itself is excluded.
        let delta = store.export_since(secs(1));
        assert_eq!(
            delta,
            vec![("a".to_owned(), secs(2), 2.0), ("b".to_owned(), secs(3), 30.0)]
        );
        assert_eq!(store.keys(), vec!["a", "b"]);
    }

    #[test]
    fn handles_match_paths_and_survive_prune() {
        let mut store = TimeSeriesStore::new(SimDuration::from_secs(1));
        assert_eq!(store.id("a"), None);
        store.record("a", secs(1), 1.0);
        let a = store.id("a").unwrap();
        let b = store.id_or_insert("b");
        assert_eq!(store.id("b"), Some(b));
        assert_eq!(store.id_or_insert("a"), a, "existing series reuse their handle");
        assert_eq!(store.latest_id(b), None, "a fresh series holds no point");
        store.record_id(b, secs(2), 2.0);
        store.record("a", secs(3), 3.0);
        assert_eq!(store.latest_id(a), store.latest("a"));
        assert_eq!(store.latest_id(b), store.latest("b"));
        assert_eq!(store.latest_at_id(a, secs(2)), store.latest_at("a", secs(2)));
        store.prune(secs(10), SimDuration::from_secs(1));
        assert_eq!(store.latest_id(a), None);
        store.record("a", secs(11), 11.0);
        assert_eq!(store.latest_id(a), Some((secs(11), 11.0)), "handle outlives prune");
        assert_eq!(store.series_count(), 2);
    }

    #[test]
    fn unknown_key_is_none() {
        let store = TimeSeriesStore::new(SimDuration::from_secs(1));
        assert_eq!(store.latest("nope"), None);
    }
}
