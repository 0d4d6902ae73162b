//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p bench --release --bin repro -- all --quick
//! cargo run -p bench --release --bin repro -- fig5 fig9
//! cargo run -p bench --release --bin repro -- fig18 --out results --reps 3
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use bench::experiments::{
    ablation, chaos, churn, deadline, multi_query, multi_spe, rack, scale_out, single_query,
    soak, table1,
};
use bench::report::Figure;
use bench::ExpOptions;

/// `all` runs every experiment; the fig13 panels come out of the
/// fig9-fig12 runs, so fig13 is only an explicit id (running it separately
/// would redo those sweeps).
const ALL: [&str; 20] = [
    "fig1", "fig5", "fig7", "fig9", "fig10", "fig11", "fig12", "fig14", "fig15", "fig16",
    "fig17", "fig18", "figc1", "figc2", "figc3", "figd1", "fige1", "figf1", "ablation", "table1",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment...|all> [--quick] [--reps N] [--out DIR] [--jobs N]\n\
         \u{20}            [--shard-threads N] [--trace FILE.json] [--trace-ring N]\n\
         experiments: {} render\n\
         (fig5/fig7 also emit fig6/fig8; fig9-12 emit the fig13 panels;\n\
          figd1 runs on the sharded cluster; `--shard-threads` drives its\n\
          shards in parallel without changing any byte of the output;\n\
          fige1 compares OS / LACHESIS-QS / DEADLINE on SLO-miss rate;\n\
          `render` redraws SVG charts from JSON already in --out;\n\
          `--trace` runs one traced representative trial per experiment and\n\
          writes Perfetto-openable Chrome trace_event JSON plus a text\n\
          summary; `--trace-ring` bounds the trace to the last N records)",
        ALL.join(" ")
    );
    std::process::exit(2)
}

fn run_experiment(id: &str, opts: &ExpOptions) -> Vec<Figure> {
    match id {
        "fig1" => scale_out::fig1(opts),
        "fig5" => single_query::run(&single_query::fig5(), opts),
        "fig7" => single_query::run(&single_query::fig7(), opts),
        "fig9" => single_query::run(&single_query::fig9(), opts),
        "fig10" => single_query::run(&single_query::fig10(), opts),
        "fig11" => single_query::run(&single_query::fig11(), opts),
        "fig12" => single_query::run(&single_query::fig12(), opts),
        "fig13" => {
            // The four tail-latency panels come from the Figs. 9-12 runs.
            let mut figs = Vec::new();
            for exp in [
                single_query::fig9(),
                single_query::fig10(),
                single_query::fig11(),
                single_query::fig12(),
            ] {
                figs.extend(
                    single_query::run(&exp, opts)
                        .into_iter()
                        .filter(|f| f.id.starts_with("fig13")),
                );
            }
            figs
        }
        "fig14" => multi_query::fig14(opts),
        "fig15" => multi_query::fig15(opts),
        "fig16" => multi_query::fig16(opts),
        "fig17" => scale_out::fig17(opts),
        "fig18" => multi_spe::fig18(opts),
        "figc1" => chaos::figc1(opts),
        "figc2" => chaos::figc2(opts),
        "figc3" => churn::figc3(opts),
        "figd1" => rack::figd1(opts),
        "fige1" => deadline::fige1(opts),
        "figf1" => soak::figf1(opts),
        "ablation" => ablation::ablation(opts),
        _ => usage(),
    }
}

/// Rejects unknown experiment ids up front with an explicit error naming
/// the offender and the valid vocabulary (instead of silently falling
/// through to the usage text mid-run).
fn reject_unknown(experiments: &[String], extra: &[&str]) {
    if let Some(bad) = experiments
        .iter()
        .find(|e| !ALL.contains(&e.as_str()) && !extra.contains(&e.as_str()))
    {
        eprintln!("error: unknown experiment id '{bad}'");
        eprintln!(
            "valid ids: {}{}{}",
            ALL.join(" "),
            if extra.is_empty() { "" } else { " " },
            extra.join(" ")
        );
        usage();
    }
}

/// A parsed command line.
struct Args {
    experiments: Vec<String>,
    opts: ExpOptions,
    trace_out: Option<PathBuf>,
    trace_ring: Option<usize>,
}

/// Parses the command line, or `None` when it calls for the usage text
/// (no experiment, an unknown flag, a missing or unparseable value).
/// `--quick` implies one repetition only when `--reps` is absent, so the
/// order of the two flags does not matter.
fn parse(args: &[String]) -> Option<Args> {
    let mut parsed = Args {
        experiments: Vec::new(),
        opts: ExpOptions::default(),
        trace_out: None,
        trace_ring: None,
    };
    let mut reps = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let opts = &mut parsed.opts;
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--reps" => reps = Some(args.next()?.parse().ok()?),
            "--out" => opts.out_dir = PathBuf::from(args.next()?),
            "--jobs" => opts.jobs = args.next()?.parse().ok()?,
            "--shard-threads" => opts.shard_threads = args.next()?.parse().ok()?,
            "--trace" => parsed.trace_out = Some(PathBuf::from(args.next()?)),
            "--trace-ring" => parsed.trace_ring = Some(args.next()?.parse().ok()?),
            // Also `-h` / `--help`.
            other if other.starts_with('-') => return None,
            other => parsed.experiments.push(other.to_owned()),
        }
    }
    let quick_default = if parsed.opts.quick { 1 } else { parsed.opts.reps };
    parsed.opts.reps = reps.unwrap_or(quick_default);
    (!parsed.experiments.is_empty()).then_some(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(Args {
        mut experiments,
        opts,
        trace_out,
        trace_ring,
    }) = parse(&args)
    else {
        usage()
    };
    if experiments.iter().any(|e| e == "all") {
        experiments = ALL.iter().map(|s| s.to_string()).collect();
    }
    // `--trace`: run one traced representative trial per experiment id and
    // export everything into one Chrome trace file. Self-validates the
    // JSON shape and the summary's finiteness so CI can gate on the exit
    // code alone.
    if let Some(path) = &trace_out {
        reject_unknown(&experiments, &[]);
        let mut dumps = Vec::new();
        for id in &experiments {
            eprintln!(">> tracing {id} (quick={}, ring={trace_ring:?})", opts.quick);
            dumps.extend(bench::trace::traced_experiment(id, &opts, trace_ring));
        }
        let json = bench::trace::export_chrome(&dumps).compact();
        if let Err(e) = bench::trace::validate_chrome(&json) {
            eprintln!("error: trace failed shape validation: {e}");
            return ExitCode::FAILURE;
        }
        let summary = bench::trace::summarize(&dumps);
        if let Err(e) = bench::trace::validate_summary(&summary) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        std::fs::write(path, &json).expect("write trace");
        println!("{summary}");
        eprintln!("wrote {} (open in https://ui.perfetto.dev)", path.display());
        return ExitCode::SUCCESS;
    }
    // `render` re-draws SVG charts from previously saved JSON results.
    if experiments.iter().any(|e| e == "render") {
        let mut count = 0;
        for entry in std::fs::read_dir(&opts.out_dir).expect("results dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "json")
                && path.file_name().is_none_or(|n| n != "table1.json")
            {
                let json = std::fs::read_to_string(&path).expect("read json");
                match bench::report::Figure::from_json(&json) {
                    Ok(fig) => {
                        let files = bench::svg::save_charts(&fig, &opts.out_dir)
                            .expect("write charts");
                        count += files.len();
                    }
                    Err(e) => eprintln!("warning: skipping {}: {e}", path.display()),
                }
            }
        }
        eprintln!("rendered {count} charts into {}", opts.out_dir.display());
        return ExitCode::SUCCESS;
    }
    reject_unknown(&experiments, &["fig13", "render"]);

    for id in &experiments {
        let start = std::time::Instant::now();
        eprintln!(">> running {id} (quick={}, reps={})", opts.quick, opts.reps);
        if id == "table1" {
            let rows = table1::rows(&opts);
            println!("{}", table1::render(&rows));
            std::fs::create_dir_all(&opts.out_dir).ok();
            let json = table1::to_json(&rows).pretty();
            std::fs::write(opts.out_dir.join("table1.json"), json).ok();
        } else {
            for fig in run_experiment(id, &opts) {
                println!("{}", fig.render());
                if let Err(e) = fig.save(&opts.out_dir) {
                    eprintln!("warning: could not save {}: {e}", fig.id);
                }
                match bench::svg::save_charts(&fig, &opts.out_dir) {
                    Ok(files) => eprintln!("   charts: {}", files.join(" ")),
                    Err(e) => eprintln!("warning: could not render {} charts: {e}", fig.id),
                }
            }
        }
        eprintln!("<< {id} done in {:.1?}", start.elapsed());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Option<Args> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(&args)
    }

    #[test]
    fn quick_supplies_reps_only_when_reps_is_absent() {
        let reps = |line: &str| parse_line(line).expect("valid command line").opts.reps;
        assert_eq!(reps("fig1 --reps 5 --quick"), 5);
        assert_eq!(reps("fig1 --quick --reps 5"), 5);
        assert_eq!(reps("--quick fig1"), 1);
        assert_eq!(reps("fig1"), ExpOptions::default().reps);
        let args = parse_line("fig1 --quick --jobs 2 --out o --trace t.json fig5").unwrap();
        assert!(args.opts.quick);
        assert_eq!(args.experiments, ["fig1", "fig5"]);
        assert_eq!((args.opts.jobs, args.opts.out_dir), (2, PathBuf::from("o")));
        assert_eq!(args.trace_out, Some(PathBuf::from("t.json")));
    }

    #[test]
    fn bad_command_lines_ask_for_usage() {
        for line in ["", "--quick", "fig1 --reps", "fig1 --reps x", "fig1 --bogus", "fig1 -h"] {
            assert!(parse_line(line).is_none(), "{line:?} parsed");
        }
    }
}
