//! Wall-clock probes placed around the calls into each layer, from
//! outside: the middleware round (the kernel callback that drives
//! `Lachesis::run_if_due`), and — in traced passes only — the SPE driver's
//! metric fetch, the policy and the translator, through delegating
//! wrappers. Probes never touch simulated state, so a traced pass
//! replays exactly the same simulation as an untraced one.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use bench::json::Json;
use lachesis::{
    OpRef, Policy, PolicyView, PriorityKind, Schedule, SinglePrioritySchedule, SpeDriver,
    TranslateError, Translator,
};
use lachesis_metrics::{EntityValues, FetchError, MetricName, MetricSource};
use simos::{Kernel, SimDuration, SimTime, ThreadId};
use spe::{LogicalOpId, RunningQuery, SpeKind};

/// The layer call a child span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `MetricSource::try_fetch` on a driver (metrics layer).
    Fetch,
    /// `Policy::schedule`.
    Policy,
    /// `Translator::apply`.
    Translate,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Fetch => "fetch",
            Kind::Policy => "policy",
            Kind::Translate => "translate",
        }
    }
}

/// One timed call, in nanoseconds since the probe was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// One middleware wake (`run_if_due`) and the layer calls it made.
#[derive(Debug, Clone)]
pub struct Round {
    pub start_ns: u64,
    pub end_ns: u64,
    pub children: Vec<Span>,
}

impl Round {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }

    /// Round time not covered by a child span (the middleware's own work:
    /// scope resolution, staleness checks, supervision).
    pub fn self_us(&self) -> f64 {
        self.us() - self.children.iter().map(Span::us).sum::<f64>()
    }
}

/// What a probe recorded over one pass.
#[derive(Debug, Clone, Default)]
pub struct Recorded {
    /// Rounds inside the timed region, in wake order.
    pub rounds: Vec<Round>,
    /// New `FaultLog` errors, over the whole pass including warm-up.
    pub errors: u64,
    /// Per-operator settings handed to translators that applied them.
    pub cmds: u64,
    /// Wall time of each stepped slice of the timed region, nanoseconds.
    pub epochs_ns: Vec<u64>,
    /// Wall time of each warm round replay, nanoseconds.
    pub replays_ns: Vec<u64>,
}

#[derive(Debug, Default)]
struct State {
    timing: bool,
    pending: Vec<Span>,
    rec: Recorded,
}

/// Shared recorder. `Arc<Mutex<_>>` because the rack's controller runs on
/// a shard worker thread while the pass reads the results on the main one.
#[derive(Debug, Clone)]
pub struct Probe {
    traced: bool,
    origin: Instant,
    state: Arc<Mutex<State>>,
}

impl Probe {
    pub fn new(traced: bool) -> Probe {
        Probe {
            traced,
            origin: Instant::now(),
            state: Arc::default(),
        }
    }

    /// Whether layer wrappers are installed.
    pub fn traced(&self) -> bool {
        self.traced
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("a probe holder panicked")
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens or closes the timed region: rounds, spans and commands
    /// outside it are dropped.
    pub fn set_timing(&self, on: bool) {
        self.state().timing = on;
    }

    /// Records one middleware wake and adopts the child spans recorded
    /// since the previous one (the calls made inside this wake).
    pub fn round(&self, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut s = self.state();
        let children = std::mem::take(&mut s.pending);
        if s.timing {
            s.rec.rounds.push(Round {
                start_ns,
                end_ns,
                children,
            });
        }
    }

    fn child(&self, kind: Kind, start: Instant, end: Instant) {
        let span = Span {
            kind,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.state().pending.push(span);
    }

    fn cmds(&self, n: u64) {
        let mut s = self.state();
        if s.timing {
            s.rec.cmds += n;
        }
    }

    /// Counts new `FaultLog` errors, inside the timed region or not.
    pub fn errors(&self, n: u64) {
        self.state().rec.errors += n;
    }

    /// Records the wall time of one stepped slice of the timed region.
    pub fn epoch(&self, start: Instant, end: Instant) {
        let ns = end.duration_since(start).as_nanos() as u64;
        self.state().rec.epochs_ns.push(ns);
    }

    /// Records the wall time of one warm round replay.
    pub fn replay(&self, start: Instant, end: Instant) {
        let ns = end.duration_since(start).as_nanos() as u64;
        self.state().rec.replays_ns.push(ns);
    }

    pub fn take(&self) -> Recorded {
        std::mem::take(&mut self.state().rec)
    }
}

/// Times `try_fetch`; every other method delegates unchanged.
pub struct TimedDriver<D> {
    inner: D,
    probe: Probe,
}

impl<D> TimedDriver<D> {
    pub fn new(inner: D, probe: Probe) -> Self {
        TimedDriver { inner, probe }
    }
}

impl<D: SpeDriver> MetricSource<OpRef> for TimedDriver<D> {
    fn source_name(&self) -> &str {
        self.inner.source_name()
    }
    fn provides(&self, metric: MetricName) -> bool {
        self.inner.provides(metric)
    }
    fn fetch(&self, metric: MetricName) -> EntityValues<OpRef> {
        self.inner.fetch(metric)
    }
    fn try_fetch(
        &self,
        metric: MetricName,
        now: SimTime,
    ) -> Result<EntityValues<OpRef>, FetchError> {
        let start = Instant::now();
        let out = self.inner.try_fetch(metric, now);
        self.probe.child(Kind::Fetch, start, Instant::now());
        out
    }
}

impl<D: SpeDriver> SpeDriver for TimedDriver<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn kind(&self) -> SpeKind {
        self.inner.kind()
    }
    fn queries(&self) -> Vec<RunningQuery> {
        self.inner.queries()
    }
    fn entities(&self) -> Vec<OpRef> {
        self.inner.entities()
    }
    fn thread_of(&self, op: OpRef) -> Option<ThreadId> {
        self.inner.thread_of(op)
    }
    fn downstream(&self, op: OpRef) -> Vec<OpRef> {
        self.inner.downstream(op)
    }
    fn physical_of(&self, query: usize, logical: LogicalOpId) -> Vec<OpRef> {
        self.inner.physical_of(query, logical)
    }
    fn logical_of(&self, op: OpRef) -> Vec<LogicalOpId> {
        self.inner.logical_of(op)
    }
    fn is_egress(&self, op: OpRef) -> bool {
        self.inner.is_egress(op)
    }
    fn refresh_fence(&self, now: SimTime) -> Option<bool> {
        self.inner.refresh_fence(now)
    }
}

/// Times `schedule`; every other method delegates unchanged.
pub struct TimedPolicy<P> {
    inner: P,
    probe: Probe,
}

impl<P> TimedPolicy<P> {
    pub fn new(inner: P, probe: Probe) -> Self {
        TimedPolicy { inner, probe }
    }
}

impl<P: Policy> Policy for TimedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn period(&self) -> SimDuration {
        self.inner.period()
    }
    fn required_metrics(&self) -> Vec<MetricName> {
        self.inner.required_metrics()
    }
    fn priority_kind(&self) -> PriorityKind {
        self.inner.priority_kind()
    }
    fn schedule(&mut self, view: &PolicyView<'_>) -> SinglePrioritySchedule {
        let start = Instant::now();
        let out = self.inner.schedule(view);
        self.probe.child(Kind::Policy, start, Instant::now());
        out
    }
}

/// Times `apply` and counts the per-operator settings it applied.
pub struct TimedTranslator<T> {
    inner: T,
    probe: Probe,
}

impl<T> TimedTranslator<T> {
    pub fn new(inner: T, probe: Probe) -> Self {
        TimedTranslator { inner, probe }
    }
}

impl<T: Translator> Translator for TimedTranslator<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn apply(
        &mut self,
        kernel: &mut Kernel,
        driver: &dyn SpeDriver,
        schedule: &Schedule,
        kind: PriorityKind,
    ) -> Result<(), TranslateError> {
        let start = Instant::now();
        let out = self.inner.apply(kernel, driver, schedule, kind);
        self.probe.child(Kind::Translate, start, Instant::now());
        if out.is_ok() {
            let n = match schedule {
                Schedule::Single(s) => s.len(),
                Schedule::Grouped(g) => g.iter().map(|(_, _, ops)| ops.len()).sum(),
            };
            self.probe.cmds(n as u64);
        }
        out
    }
}

/// Renders rounds and their child spans as a Chrome `trace_event`
/// document: one complete (`X`) event per span, children naming their
/// round in `args.parent`.
pub fn chrome(label: &str, rounds: &[Round]) -> Json {
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let event = |name: &str, start: u64, end: u64, args: Json| {
        Json::obj(vec![
            ("name", Json::Str(name.to_owned())),
            ("ph", Json::Str("X".into())),
            ("ts", us(start)),
            ("dur", us(end - start)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(1.0)),
            ("args", args),
        ])
    };
    let mut events = vec![Json::obj(vec![
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("ts", Json::Num(0.0)),
        ("pid", Json::Num(1.0)),
        ("tid", Json::Num(1.0)),
        (
            "args",
            Json::obj(vec![("name", Json::Str(label.to_owned()))]),
        ),
    ])];
    for (i, r) in rounds.iter().enumerate() {
        let id = Json::Num(i as f64);
        events.push(event(
            "round",
            r.start_ns,
            r.end_ns,
            Json::obj(vec![("round", id.clone())]),
        ));
        for c in &r.children {
            let args = Json::obj(vec![("parent", id.clone())]);
            events.push(event(c.kind.name(), c.start_ns, c.end_ns, args));
        }
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; `0.0` when there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn rounds_adopt_children_only_while_timing() {
        let probe = Probe::new(true);
        let t = Instant::now();
        probe.child(Kind::Fetch, t, t);
        probe.round(t, t);
        probe.errors(2);
        probe.set_timing(true);
        probe.child(Kind::Policy, t, t);
        probe.child(Kind::Translate, t, t);
        probe.round(t, t);
        let rec = probe.take();
        assert_eq!(rec.errors, 2, "errors count outside the timed region too");
        assert_eq!(rec.rounds.len(), 1);
        let kinds: Vec<Kind> = rec.rounds[0].children.iter().map(|c| c.kind).collect();
        assert_eq!(kinds, vec![Kind::Policy, Kind::Translate]);
    }

    #[test]
    fn chrome_export_passes_the_shape_validator() {
        let rounds = vec![Round {
            start_ns: 1_000,
            end_ns: 9_000,
            children: vec![Span {
                kind: Kind::Fetch,
                start_ns: 2_000,
                end_ns: 3_000,
            }],
        }];
        let text = chrome("test", &rounds).compact();
        assert_eq!(bench::trace::validate_chrome(&text), Ok(3));
    }
}
