//! `benchmark` — the repository benchmark: four workloads shaped like the
//! paper's Figs. 1, 14 and 17 and the figd1 rack, each measured end to end
//! (untraced) or layer by layer (`--trace 1`). See `README.md` next to this
//! file for the metrics, why each workload exists, and how to read them.
//!
//! ```text
//! cargo run -p bench --release --bin benchmark                       # all four
//! cargo run -p bench --release --bin benchmark -- --workload rack --trace 1
//! cargo run -p bench --release --bin benchmark -- \
//!     --workload syn-manyops --seed 3 --seconds 10 --trace 0 --out bench-out
//! ```
//!
//! Standard output carries one `workload metric value unit` line per
//! metric and, last, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. The exit code is 0 only when every correctness check
//! passed; bad arguments exit 2.

mod probe;
mod report;
mod run;
mod workload;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use bench::json::Json;
use run::{Outcome, RunOpts};
use workload::Workload;

#[derive(Debug, Clone, PartialEq)]
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: benchmark [--workload NAME]... [--seed N] [--seconds N] [--trace 0|1] [--out DIR]\n\
         \x20 --workload  one of: {} (repeatable; default: all, each in a child process)\n\
         \x20 --seed      non-negative integer seeding every graph, engine and rack (default 1)\n\
         \x20 --seconds   positive integer: measure at least this long per workload (default 10)\n\
         \x20 --trace     0 = end-to-end metrics, 1 = per-layer metrics from a traced run (default 0)\n\
         \x20 --out       directory for <workload>.json and, traced, <workload>.trace.json",
        names.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                if !opts.workloads.contains(&w) {
                    opts.workloads.push(w);
                }
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }
    Ok(opts)
}

fn write_out(dir: &std::path::Path, o: &Outcome, opts: &Opts) -> Result<(), String> {
    let err = |e: std::io::Error| format!("--out {}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(err)?;
    let doc = report::document(o, opts.seed, opts.seconds, opts.trace);
    let name = o.workload.name();
    std::fs::write(dir.join(format!("{name}.json")), doc.pretty()).map_err(err)?;
    if let Some(chrome) = &o.chrome {
        std::fs::write(dir.join(format!("{name}.trace.json")), chrome).map_err(err)?;
    }
    Ok(())
}

/// Runs one workload in this process.
fn run_one(w: Workload, opts: &Opts) -> ExitCode {
    let run_opts = RunOpts {
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        lengths: w.lengths(),
    };
    let mut outcome = run::run(w, &run_opts);
    if let Some(dir) = &opts.out {
        if let Err(e) = write_out(dir, &outcome, opts) {
            outcome.failures.push(e);
        }
    }
    eprintln!(
        "benchmark: {} seed {}: {} passes, digest {:016x}, {} ops, {} failed",
        w.name(),
        opts.seed,
        outcome.passes,
        outcome.digest,
        outcome.attempted,
        outcome.failed
    );
    for f in &outcome.failures {
        eprintln!("benchmark: {}: CHECK FAILED: {f}", w.name());
    }
    for line in report::lines(&outcome) {
        println!("{line}");
    }
    let entries = report::metric_entries(&outcome);
    println!(
        "{}",
        report::result_line(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            &entries
        )
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs each workload in a child process of this binary (so each child's
/// peak RSS is its own), forwarding their metric lines and combining
/// their result lines.
fn run_children(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for w in &opts.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if let Some(dir) = &opts.out {
            cmd.arg("--out").arg(dir);
        }
        let child = cmd.stdout(Stdio::piped()).spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("benchmark: cannot start {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut last = None;
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if line.starts_with('{') {
                last = Some(line);
            } else {
                println!("{line}");
            }
        }
        let status = child.wait();
        correct &= status.is_ok_and(|s| s.success());
        let Some(doc) = last.and_then(|l| Json::parse(&l).ok()) else {
            eprintln!("benchmark: {} printed no result line", w.name());
            correct = false;
            continue;
        };
        correct &= doc.get("correct") == Some(&Json::Bool(true));
        let count = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        attempted += count("attempted");
        failed += count("failed");
        if let Some(Json::Obj(pairs)) = doc.get("metrics") {
            for (name, v) in pairs {
                metrics.push((format!("{}.{name}", w.name()), v.clone()));
            }
        }
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match opts.workloads.as_slice() {
        [w] => run_one(*w, &opts),
        _ => run_children(&opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_run_every_workload() {
        let o = parse(&[]).expect("no flags is valid");
        assert_eq!(o.workloads, Workload::ALL.to_vec());
        assert_eq!((o.seed, o.seconds, o.trace, o.out), (1, 10, false, None));
    }

    #[test]
    fn flags_parse_and_workloads_dedupe() {
        let o = parse(&[
            "--workload",
            "rack",
            "--seed",
            "7",
            "--workload",
            "rack",
            "--seconds",
            "3",
            "--trace",
            "1",
            "--out",
            "dir",
        ])
        .expect("valid flags");
        assert_eq!(o.workloads, vec![Workload::Rack]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3, true));
        assert_eq!(o.out, Some(PathBuf::from("dir")));
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        for args in [
            &["--workload", "nope"][..],
            &["--frobnicate", "1"],
            &["--seed"],
            &["--seed", "-1"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "1.5"],
            &["--trace", "2"],
            &["--trace", "yes"],
        ] {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
        for w in Workload::ALL {
            assert!(usage().contains(w.name()), "usage lists {}", w.name());
        }
    }
}
