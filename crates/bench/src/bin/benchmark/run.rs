//! One run of one workload: repeated passes (build, warm up, time a fixed
//! simulated region, drain), the correctness checks across them, and the
//! metrics computed from their counters and probes.

use std::time::{Duration, Instant};

use simos::{SimDuration, SimTime};
use spe::LogHistogram;

use crate::probe::{self, median, quantile, Kind, Probe, Recorded};
use crate::report::{Metric, END_TO_END, PER_LAYER};
use crate::workload::{Deliveries, Layout, Lengths, Workload, World};

/// The slice a traced pass advances per step: the rack's lookahead, so a
/// rack step is exactly one lockstep epoch.
const STEP: SimDuration = SimDuration::from_millis(1);
/// Set-up is repeated at least this often per run, so `setup_s` is a median.
const MIN_PASSES: usize = 3;

/// End-to-end latency and throughput of the simulated system over the
/// timed region. Deterministic for a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    pub tput_tps: f64,
    pub e2e_p50_ms: f64,
    pub e2e_p99_ms: f64,
}

#[derive(Debug)]
pub struct Pass {
    pub setup_s: f64,
    pub wall_s: f64,
    pub sim_s: f64,
    pub digest: u64,
    pub sim: Sim,
    /// Tuples that reached an ingress queue during the timed region.
    pub ops: u64,
    /// Of those, tuples still not ingested after the drain, plus shed ones.
    pub failed: u64,
    pub loop_iters: u64,
    pub ctx_switches: u64,
    pub utilization: f64,
    pub tuples: u64,
    pub batches: u64,
    pub series: u64,
    pub rec: Recorded,
    pub runqueues: Result<(), String>,
    pub deliveries: Option<Result<Deliveries, String>>,
}

impl Pass {
    pub fn rate(&self) -> f64 {
        self.sim_s / self.wall_s
    }

    fn rounds_s(&self) -> f64 {
        self.rec.rounds.iter().map(probe::Round::us).sum::<f64>() / 1e6
    }

    /// Timed wall time outside middleware rounds: the simulator itself.
    fn self_s(&self) -> f64 {
        self.wall_s - self.rounds_s()
    }
}

/// The mean over sinks of each sink's `q`-quantile. Averaging many sinks
/// smooths the histograms' ~5% bucket steps. The values are summed in
/// sorted order, so the rack's layouts, which list sinks in different
/// orders, agree bit for bit.
fn over_sinks(sinks: &[LogHistogram], q: f64) -> f64 {
    let mut v: Vec<f64> = sinks.iter().map(|h| h.quantile(q).unwrap_or(0.0)).collect();
    v.sort_by(f64::total_cmp);
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Builds, warms up and measures one pass. A traced pass installs the
/// layer wrappers and advances the timed region in [`STEP`] slices.
pub fn run_pass(w: Workload, seed: u64, layout: Layout, len: Lengths, traced: bool) -> Pass {
    let probe = Probe::new(traced);
    let began = Instant::now();
    let mut world = World::build(w, seed, layout, len, &probe);
    world.run_until(SimTime::ZERO + len.warmup);
    world.reset_stats();
    let setup_s = began.elapsed().as_secs_f64();

    let before = world.observe();
    let start = world.now();
    let end = start + len.timed;
    probe.set_timing(true);
    let timed = Instant::now();
    if traced {
        while world.now() < end {
            let next = (world.now() + STEP).min(end);
            let step = Instant::now();
            world.run_until(next);
            probe.epoch(step, Instant::now());
        }
    } else {
        world.run_until(end);
    }
    let wall_s = timed.elapsed().as_secs_f64();
    probe.set_timing(false);

    let after = world.observe();
    let digest = world.digest();
    let runqueues = world.check_runqueues();
    world.run_until(end + len.drain);
    let drained = world.observe();
    let deliveries = world.deliveries(start, end);

    let sim_s = len.timed.as_secs_f64();
    let mut ops = 0;
    let mut failed = drained.shed - before.shed;
    for ((b, a), d) in before
        .ingress
        .iter()
        .zip(&after.ingress)
        .zip(&drained.ingress)
    {
        ops += a.0 - b.0;
        // Ingress queues are FIFO: the tuples queued at the end of the
        // timed region were all ingested once the drain popped as many.
        failed += a.2.saturating_sub(d.1 - a.1);
    }
    Pass {
        setup_s,
        wall_s,
        sim_s,
        digest,
        sim: Sim {
            tput_tps: (after.ingested - before.ingested) as f64 / sim_s,
            e2e_p50_ms: over_sinks(&after.sinks, 0.5) * 1e3,
            e2e_p99_ms: over_sinks(&after.sinks, 0.99) * 1e3,
        },
        ops,
        failed,
        loop_iters: after.loop_iters - before.loop_iters,
        ctx_switches: after.ctx_switches - before.ctx_switches,
        utilization: (after.busy_ns - before.busy_ns) as f64 / (after.cpus as f64 * sim_s * 1e9),
        tuples: after.tuples - before.tuples,
        batches: after.batches - before.batches,
        series: after.series,
        rec: probe.take(),
        runqueues,
        deliveries,
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub lengths: Lengths,
}

#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// Failed correctness checks; empty when the run is correct.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// The traced pass's spans as Chrome JSON.
    pub chrome: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Runs passes until `seconds` have elapsed (and, untraced, at least
/// [`MIN_PASSES`] of them), then — for the rack — one merged-layout pass,
/// and checks them all.
pub fn run(w: Workload, o: &RunOpts) -> Outcome {
    let began = Instant::now();
    let budget = Duration::from_secs(o.seconds);
    let mut failures = Vec::new();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut rss = 0.0;
    loop {
        plain.push(run_pass(w, o.seed, Layout::Sharded, o.lengths, false));
        if plain.len() == 1 && !o.trace {
            // The first pass's peak: later passes reuse (and fragment) the
            // memory earlier ones freed.
            rss = peak_rss_mb().unwrap_or_else(|e| {
                failures.push(e);
                0.0
            });
        }
        if o.trace {
            traced.push(run_pass(w, o.seed, Layout::Sharded, o.lengths, true));
        }
        let enough = o.trace || plain.len() >= MIN_PASSES;
        if enough && began.elapsed() >= budget {
            break;
        }
    }
    let merged =
        (w == Workload::Rack).then(|| run_pass(w, o.seed, Layout::Merged, o.lengths, false));

    let reference = &plain[0];
    let labelled = plain
        .iter()
        .enumerate()
        .map(|(i, p)| (format!("pass {i}"), p))
        .chain(
            traced
                .iter()
                .enumerate()
                .map(|(i, p)| (format!("traced pass {i}"), p)),
        )
        .chain(merged.iter().map(|p| ("merged pass".to_owned(), p)));
    let mut attempted = 0;
    let mut failed = 0;
    for (label, p) in labelled {
        attempted += p.ops;
        failed += p.failed;
        if p.digest != reference.digest {
            failures.push(format!(
                "{label}: digest {:016x} != {:016x} of pass 0",
                p.digest, reference.digest
            ));
        }
        if (p.sim, p.ops, p.failed) != (reference.sim, reference.ops, reference.failed) {
            failures.push(format!("{label}: simulated results differ from pass 0"));
        }
        if let Err(e) = &p.runqueues {
            failures.push(format!("{label}: runqueue check: {e}"));
        }
        if p.rec.errors > 0 {
            failures.push(format!(
                "{label}: {} Lachesis fault-log errors",
                p.rec.errors
            ));
        }
        match &p.deliveries {
            Some(Err(e)) => failures.push(format!("{label}: fabric journal: {e}")),
            Some(Ok(d))
                if Some(d) != reference.deliveries.as_ref().and_then(|r| r.as_ref().ok()) =>
            {
                failures.push(format!("{label}: fabric deliveries differ from pass 0"));
            }
            _ => {}
        }
    }
    for (i, p) in traced.iter().enumerate() {
        for (j, r) in p.rec.rounds.iter().enumerate() {
            if r.self_us() < 0.0 {
                failures.push(format!("traced pass {i}: round {j} children outlast it"));
                break;
            }
        }
    }
    let chrome = traced.first().map(|p| {
        let text = probe::chrome(w.name(), &p.rec.rounds).compact();
        if let Err(e) = bench::trace::validate_chrome(&text) {
            failures.push(format!("span file: {e}"));
        }
        text
    });

    let metrics = if o.trace {
        per_layer(&plain, &traced, merged.as_ref())
    } else {
        end_to_end(&plain, rss)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            failures.push(format!("{} is not finite", m.name));
        }
    }
    if !failures.is_empty() {
        failed = attempted;
    }
    Outcome {
        workload: w,
        passes: plain.len() + traced.len() + usize::from(merged.is_some()),
        attempted,
        failed,
        digest: reference.digest,
        failures,
        metrics,
        chrome,
    }
}

fn with_units(
    table: &[(&'static str, &'static str)],
    values: Vec<(&'static str, f64)>,
) -> Vec<Metric> {
    values
        .into_iter()
        .map(|(name, value)| {
            let unit = table
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, u)| *u)
                .unwrap_or_else(|| panic!("metric {name} missing from the metric table"));
            Metric { name, unit, value }
        })
        .collect()
}

fn pooled(passes: &[Pass], f: impl Fn(&Pass) -> Vec<f64>) -> Vec<f64> {
    passes.iter().flat_map(f).collect()
}

fn over(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Vec<f64> {
    passes.iter().map(f).collect()
}

pub fn end_to_end(plain: &[Pass], rss_mb: f64) -> Vec<Metric> {
    let first = &plain[0];
    // Each pass's quantile of its own replays, then the median over
    // passes, so one disturbed pass cannot move the tail.
    let footprint = |q: f64| {
        median(&over(plain, |p| {
            let us: Vec<f64> = p.rec.replays_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
            quantile(&us, q)
        }))
    };
    with_units(
        &END_TO_END,
        vec![
            ("sim_rate", median(&over(plain, Pass::rate))),
            ("setup_s", median(&over(plain, |p| p.setup_s))),
            ("peak_rss_mb", rss_mb),
            ("mw_footprint_us_p50", footprint(0.5)),
            ("mw_footprint_us_p90", footprint(0.9)),
            ("sim_tput_tps", first.sim.tput_tps),
            ("sim_e2e_p50_ms", first.sim.e2e_p50_ms),
            ("sim_e2e_p99_ms", first.sim.e2e_p99_ms),
        ],
    )
}

pub fn per_layer(plain: &[Pass], traced: &[Pass], merged: Option<&Pass>) -> Vec<Metric> {
    let u = &plain[0];
    let t = &traced[0];
    let children = |kind: Kind| {
        pooled(traced, move |p| {
            p.rec
                .rounds
                .iter()
                .flat_map(|r| r.children.iter().filter(|c| c.kind == kind).map(|c| c.us()))
                .collect()
        })
    };
    let fetch = children(Kind::Fetch);
    let policy = children(Kind::Policy);
    let translate = children(Kind::Translate);
    let self_us = pooled(traced, |p| {
        p.rec.rounds.iter().map(probe::Round::self_us).collect()
    });
    let epochs = pooled(traced, |p| {
        p.rec.epochs_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
    });
    let rounds = pooled(plain, |p| {
        p.rec.rounds.iter().map(probe::Round::us).collect()
    });
    let rate = median(&over(plain, Pass::rate));
    let deliveries = match &u.deliveries {
        Some(Ok(d)) => *d,
        _ => Deliveries::default(),
    };
    // One kernel is its own merged layout, with no barrier to wait at.
    let (merged_rate, sync_share) = match merged {
        Some(m) => (
            m.rate(),
            1.0 - m.wall_s / median(&over(plain, |p| p.wall_s)),
        ),
        None => (rate, 0.0),
    };
    with_units(
        &PER_LAYER,
        vec![
            ("simos.loop_iters", u.loop_iters as f64),
            ("simos.ctx_switches", u.ctx_switches as f64),
            ("simos.utilization", u.utilization),
            ("sim.self_s", median(&over(plain, Pass::self_s))),
            (
                "sim.ns_per_iter",
                median(&over(plain, |p| p.self_s() * 1e9 / p.loop_iters as f64)),
            ),
            (
                "sim.ns_per_tuple",
                median(&over(plain, |p| p.self_s() * 1e9 / p.tuples as f64)),
            ),
            ("spe.tuples", u.tuples as f64),
            ("spe.batches", u.batches as f64),
            ("spe.avg_batch", u.tuples as f64 / u.batches as f64),
            ("metrics.series", u.series as f64),
            ("metrics.fetch_calls", (fetch.len() / traced.len()) as f64),
            ("metrics.fetch_us_p50", quantile(&fetch, 0.5)),
            ("metrics.fetch_us_p99", quantile(&fetch, 0.99)),
            ("mw.rounds", u.rec.rounds.len() as f64),
            ("mw.round_us_p50", quantile(&rounds, 0.5)),
            ("mw.round_us_p99", quantile(&rounds, 0.99)),
            (
                "mw.share",
                median(&over(plain, |p| p.rounds_s() / p.wall_s)),
            ),
            ("mw.policy_us_p50", quantile(&policy, 0.5)),
            ("mw.policy_us_p99", quantile(&policy, 0.99)),
            ("mw.translate_us_p50", quantile(&translate, 0.5)),
            ("mw.translate_us_p99", quantile(&translate, 0.99)),
            ("mw.self_us_p50", quantile(&self_us, 0.5)),
            (
                "mw.errors",
                plain
                    .iter()
                    .chain(traced)
                    .chain(merged)
                    .map(|p| p.rec.errors)
                    .sum::<u64>() as f64,
            ),
            ("mw.cmds_applied", t.rec.cmds as f64),
            ("cluster.epochs", t.rec.epochs_ns.len() as f64),
            ("cluster.epoch_us_p50", quantile(&epochs, 0.5)),
            ("cluster.epoch_us_p99", quantile(&epochs, 0.99)),
            ("cluster.deliveries_tuple", deliveries.tuple as f64),
            ("cluster.deliveries_metric", deliveries.metric as f64),
            ("cluster.deliveries_cmd", deliveries.cmd as f64),
            ("cluster.merged_sim_rate", merged_rate),
            ("cluster.sync_share", sync_share),
            (
                "trace.overhead",
                rate / median(&over(traced, Pass::rate)) - 1.0,
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;
    use bench::json::Json;

    /// The test-only length override: a few simulated seconds per pass.
    fn tiny() -> Lengths {
        let s = SimDuration::from_secs;
        Lengths {
            warmup: s(1),
            timed: s(2),
            drain: s(1),
        }
    }

    fn results(p: &Pass) -> (u64, Sim, u64, u64) {
        (p.digest, p.sim, p.ops, p.failed)
    }

    /// Traced and untraced passes agree, the same seed repeats, another
    /// seed differs, and every traced round contains its layer calls.
    fn check(w: Workload) {
        let pass = |seed, layout, traced| run_pass(w, seed, layout, tiny(), traced);
        let plain = pass(1, Layout::Sharded, false);
        let traced = pass(1, Layout::Sharded, true);
        assert!(
            plain.ops > 0 && plain.failed == 0,
            "{} offers and ingests",
            w.name()
        );
        assert!(plain.runqueues.is_ok() && plain.rec.errors == 0);
        assert_eq!(results(&plain), results(&traced), "wrappers change nothing");
        assert_eq!(results(&plain), results(&pass(1, Layout::Sharded, false)));
        assert_ne!(plain.digest, pass(2, Layout::Sharded, false).digest);
        assert!(!traced.rec.rounds.is_empty());
        for r in &traced.rec.rounds {
            for kind in [Kind::Fetch, Kind::Policy, Kind::Translate] {
                assert!(
                    r.children.iter().any(|c| c.kind == kind),
                    "{kind:?} inside a round"
                );
            }
            assert!(r.self_us() >= 0.0, "fetch + policy + translate <= round");
        }
        if w == Workload::Rack {
            let merged = pass(1, Layout::Merged, false);
            assert_eq!(results(&plain), results(&merged), "sharding is invisible");
            assert!(matches!(merged.deliveries, Some(Ok(d)) if d.cmd > 0 && d.tuple > 0));
        }
    }

    #[test]
    fn lr_scaleout_repeats_and_tracing_changes_nothing() {
        check(Workload::LrScaleout);
    }

    #[test]
    fn lr_saturated_repeats_and_tracing_changes_nothing() {
        check(Workload::LrSaturated);
    }

    #[test]
    fn syn_manyops_repeats_and_tracing_changes_nothing() {
        check(Workload::SynManyops);
    }

    #[test]
    fn rack_repeats_and_tracing_changes_nothing() {
        check(Workload::Rack);
    }

    fn valid(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn printed_lines_parse() {
        let w = Workload::LrSaturated;
        let opts = RunOpts {
            seed: 1,
            seconds: 0,
            trace: true,
            lengths: tiny(),
        };
        let traced = run(w, &opts);
        assert!(traced.correct(), "{:?}", traced.failures);
        let untraced = Outcome {
            workload: w,
            passes: 1,
            attempted: 1,
            failed: 0,
            digest: 0,
            failures: Vec::new(),
            metrics: end_to_end(&[run_pass(w, 1, Layout::Sharded, tiny(), false)], 1.0),
            chrome: None,
        };
        for (o, table) in [(&untraced, &END_TO_END[..]), (&traced, &PER_LAYER[..])] {
            let names: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, expected);
            for line in report::lines(o) {
                let f: Vec<&str> = line.split(' ').collect();
                assert_eq!(f.len(), 4, "{line}");
                assert_eq!(f[0], w.name());
                assert!(valid(f[1], "_.-", 64), "name in {line}");
                assert!(
                    f[2].parse::<f64>().is_ok_and(f64::is_finite),
                    "value in {line}"
                );
                assert!(valid(f[3], "_/%.-", 16), "unit in {line}");
            }
            let entries = report::metric_entries(o);
            let text = report::result_line(o.correct(), o.attempted, o.failed, &entries);
            let doc = Json::parse(&text).expect("result line is JSON");
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            assert!(text.contains(&format!("\"attempted\": {},", o.attempted)));
            for (name, unit) in table {
                let m = doc
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .expect("metric present");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                assert!(m.get("value").and_then(Json::as_f64).is_some());
            }
        }
        let chrome = traced.chrome.expect("traced runs export spans");
        assert!(bench::trace::validate_chrome(&chrome).is_ok());
    }
}
