//! Metric tables and output: one `workload metric value unit` line per
//! metric, then one JSON object as the last line of standard output.

use std::fmt::Write as _;

use bench::json::Json;

use crate::run::Outcome;

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 8] = [
    ("sim_rate", "sim-s/wall-s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mw_footprint_us_p50", "us"),
    ("mw_footprint_us_p90", "us"),
    ("sim_tput_tps", "tuples/sim-s"),
    ("sim_e2e_p50_ms", "sim-ms"),
    ("sim_e2e_p99_ms", "sim-ms"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("simos.loop_iters", "count"),
    ("simos.ctx_switches", "count"),
    ("simos.utilization", "fraction"),
    ("sim.self_s", "s"),
    ("sim.ns_per_iter", "ns"),
    ("sim.ns_per_tuple", "ns"),
    ("spe.tuples", "count"),
    ("spe.batches", "count"),
    ("spe.avg_batch", "tuples/batch"),
    ("metrics.series", "count"),
    ("metrics.fetch_calls", "count"),
    ("metrics.fetch_us_p50", "us"),
    ("metrics.fetch_us_p99", "us"),
    ("mw.rounds", "count"),
    ("mw.round_us_p50", "us"),
    ("mw.round_us_p99", "us"),
    ("mw.share", "fraction"),
    ("mw.policy_us_p50", "us"),
    ("mw.policy_us_p99", "us"),
    ("mw.translate_us_p50", "us"),
    ("mw.translate_us_p99", "us"),
    ("mw.self_us_p50", "us"),
    ("mw.errors", "count"),
    ("mw.cmds_applied", "count"),
    ("cluster.epochs", "count"),
    ("cluster.epoch_us_p50", "us"),
    ("cluster.epoch_us_p99", "us"),
    ("cluster.deliveries_tuple", "count"),
    ("cluster.deliveries_metric", "count"),
    ("cluster.deliveries_cmd", "count"),
    ("cluster.merged_sim_rate", "sim-s/wall-s"),
    ("cluster.sync_share", "fraction"),
    ("trace.overhead", "fraction"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The metric lines of one workload, `workload metric value unit`.
pub fn lines(o: &Outcome) -> Vec<String> {
    o.metrics
        .iter()
        .map(|m| format!("{} {} {} {}", o.workload.name(), m.name, m.value, m.unit))
        .collect()
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {..}}`, with whole-number counts and `metrics` given as
/// `(key, {"value", "unit"} object)` pairs.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, Json)],
) -> String {
    let mut body = String::new();
    for (i, (key, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}{}: {}",
            Json::Str(key.clone()).compact(),
            value.compact()
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    )
}

/// `metrics` entries of one workload for [`result_line`].
pub fn metric_entries(o: &Outcome) -> Vec<(String, Json)> {
    o.metrics
        .iter()
        .map(|m| {
            let v = Json::obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]);
            (m.name.to_owned(), v)
        })
        .collect()
}

/// The `--out` document of one workload.
pub fn document(o: &Outcome, seed: u64, seconds: u64, trace: bool) -> Json {
    Json::obj(vec![
        ("workload", Json::Str(o.workload.name().into())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("trace", Json::Bool(trace)),
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("passes", Json::Num(o.passes as f64)),
        ("digest", Json::Str(format!("{:016x}", o.digest))),
        (
            "failures",
            Json::Arr(o.failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        ("metrics", Json::Obj(metric_entries(o))),
    ])
}
