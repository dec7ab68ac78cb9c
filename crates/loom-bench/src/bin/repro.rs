//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--experiment all|fig4|table1|fig7|fig8|table2|fig9|ablations|online]
//!       [--scale tiny|small|medium|large] [--seed N] [--jsonl PATH]
//!       [--bench-json PATH|none] [--compare-bench PATH] [--history PATH]
//! ```
//!
//! `--history PATH` (with `--compare-bench`) appends one JSON line per
//! gate run to PATH — the cross-PR perf trajectory log; CI points it
//! at the git-ignored `BENCH_history.jsonl`. The history hook also
//! runs two in-process drills whose outcomes land in the same line:
//! the crash-recovery kill/resume drill (`"recovery"`) and the
//! `loom serve` loopback QPS/latency drill (`"serve"`).
//!
//! Prints paper-style markdown tables to stdout; with `--jsonl` also
//! writes machine-readable result rows for the ipt experiments. Every
//! run additionally writes a `BENCH_results.json` summary (per-system
//! ms/10k-edges and weighted ipt averaged over the run's ipt cells) so
//! the perf trajectory is tracked PR over PR — `--bench-json none`
//! suppresses it.
//!
//! `--compare-bench PATH` turns the run into the CI regression gate:
//! the fresh summary is compared against the committed copy at PATH
//! (quality numbers must match exactly, throughput may not regress
//! more than 30%), a before/after table is printed to stderr, and the
//! process exits non-zero on any violation.
//!
//! Exit codes: `0` pass, `1` perf-gate violation, `2` bad invocation,
//! `3` the committed baseline at PATH is missing or unparsable (the
//! gate could not run — distinct from a regression so CI can report
//! "refresh/commit the baseline" instead of "investigate a slowdown").

use loom_bench::suites::{self, SuiteOptions};
use loom_core::graph::Scale;
use std::io::Write as _;

struct Args {
    experiment: String,
    options: SuiteOptions,
    jsonl: Option<String>,
    bench_json: Option<String>,
    compare_bench: Option<String>,
    history: Option<String>,
}

/// Throughput tolerance of the regression gate: `ms_per_10k_edges`
/// may exceed the committed baseline by at most this fraction
/// (wall-clock noise allowance; quality numbers get zero tolerance).
const GATE_MS_TOLERANCE: f64 = 0.30;

/// `--help` text. Tested against [`FLAGS`]: every long flag the
/// parser matches must appear here and vice versa, so `repro --help`
/// cannot drift from the implementation (the same guarantee the
/// `loom` binary's USAGE carries).
const HELP: &str =
    "repro [--experiment all|fig4|table1|fig7|fig8|table2|fig9|ablations|online]\n      \
[--scale tiny|small|medium|large] [--seed N] [--jsonl PATH]\n      \
[--bench-json PATH|none] [--compare-bench PATH] [--history PATH] [--help]";

/// The experiment names `--experiment` accepts.
const EXPERIMENTS: [&str; 9] = [
    "all",
    "table1",
    "fig4",
    "fig7",
    "fig8",
    "fig9",
    "table2",
    "ablations",
    "online",
];

fn parse_args_from(argv: &[String]) -> Result<Args, String> {
    let mut experiment = "all".to_string();
    let mut options = SuiteOptions::default();
    let mut jsonl = None;
    let mut bench_json = Some("BENCH_results.json".to_string());
    let mut compare_bench = None;
    let mut history = None;
    let mut i = 0;
    while i < argv.len() {
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
        };
        match argv[i].as_str() {
            "--experiment" | "-e" => experiment = take_value(&mut i)?,
            "--scale" | "-s" => {
                options.scale = match take_value(&mut i)?.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "medium" => Scale::Medium,
                    "large" => Scale::Large,
                    other => return Err(format!("unknown scale {other}")),
                }
            }
            "--seed" => {
                options.seed = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--jsonl" => jsonl = Some(take_value(&mut i)?),
            "--bench-json" => {
                let v = take_value(&mut i)?;
                bench_json = if v == "none" { None } else { Some(v) };
            }
            "--compare-bench" => compare_bench = Some(take_value(&mut i)?),
            "--history" => history = Some(take_value(&mut i)?),
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    // A typo'd experiment would otherwise select no suites and exit 0
    // silently — reject it up front.
    if !EXPERIMENTS.contains(&experiment.as_str()) {
        return Err(format!(
            "unknown experiment '{experiment}'; expected one of {}",
            EXPERIMENTS.join("|")
        ));
    }
    Ok(Args {
        experiment,
        options,
        jsonl,
        bench_json,
        compare_bench,
        history,
    })
}

fn parse_args() -> Result<Args, String> {
    parse_args_from(&std::env::args().skip(1).collect::<Vec<_>>())
}

/// Runs one named suite and returns its markdown; ipt experiment rows
/// are appended to `all_results` for `--jsonl`.
fn run_suite(
    name: &str,
    opts: &SuiteOptions,
    all_results: &mut Vec<loom_core::ExperimentResult>,
) -> String {
    match name {
        "table1" => suites::table1(opts),
        "fig4" => suites::fig4(),
        "fig7" => {
            let (text, results) = suites::fig7(opts);
            all_results.extend(results);
            text
        }
        "fig8" => {
            let (text, results) = suites::fig8(opts);
            all_results.extend(results);
            text
        }
        "fig9" => suites::fig9(opts),
        "table2" => suites::table2(opts),
        "ablations" => suites::ablations(opts),
        "online" => suites::online(opts),
        other => unreachable!("'{other}' is in EXPERIMENTS but has no suite"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let opts = args.options;
    println!(
        "# Loom reproduction — scale `{}`, seed {}\n",
        opts.scale.name(),
        opts.seed
    );

    let mut all_results = Vec::new();
    let mut suites_run: Vec<&str> = Vec::new();
    // Dispatch is driven by the same EXPERIMENTS table that validates
    // `--experiment`, so the two cannot drift apart silently: a name
    // added to the table without a match arm below panics the first
    // time it is selected, and a match arm without a table entry is
    // unreachable because validation rejects the name first.
    for name in EXPERIMENTS.iter().filter(|&&n| n != "all") {
        if args.experiment != "all" && args.experiment != *name {
            continue;
        }
        let text = run_suite(name, &opts, &mut all_results);
        suites_run.push(name);
        println!("{text}\n");
    }

    if let Some(path) = args.jsonl {
        let mut f = std::fs::File::create(&path).expect("create jsonl file");
        f.write_all(suites::jsonl(&all_results).as_bytes())
            .expect("write jsonl");
        eprintln!("wrote {} result rows to {path}", all_results.len() * 4);
    }

    let summary = suites::bench_summary(&suites_run, &opts, &all_results);
    // Read the committed baseline BEFORE any write: with the default
    // --bench-json path, `--compare-bench BENCH_results.json` names
    // the same file the fresh summary is about to land in, and a
    // write-then-read would gate the fresh run against itself.
    // A missing or corrupt baseline is NOT a perf regression: it exits
    // with its own code (3) so CI can tell "the gate fired" (1) from
    // "the gate could not run" (3) and from "bad invocation" (2).
    let baseline = args.compare_bench.as_ref().map(|path| {
        let committed = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read committed baseline {path}: {e}");
            std::process::exit(3);
        });
        loom_bench::BenchSummary::parse(&committed).unwrap_or_else(|e| {
            eprintln!("error: committed baseline {path} unparsable: {e}");
            std::process::exit(3);
        })
    });
    if let Some(path) = &args.bench_json {
        if args.compare_bench.as_deref() == Some(path.as_str()) {
            eprintln!(
                "note: --bench-json and --compare-bench both name {path}; \
                 gating against the previous contents, then refreshing the file"
            );
        }
        let mut f = std::fs::File::create(path).expect("create bench json");
        f.write_all(summary.as_bytes()).expect("write bench json");
        eprintln!("wrote bench summary to {path}");
    }

    // The CI regression gate: compare the fresh summary against the
    // committed baseline. The table goes to stderr so `repro ... >
    // /dev/null` (CI hides the suite markdown) still shows it.
    if let (Some(path), Some(baseline)) = (args.compare_bench, baseline) {
        let fresh = loom_bench::BenchSummary::parse(&summary)
            .expect("the summary this run just produced must parse");
        let report = loom_bench::compare(&baseline, &fresh, GATE_MS_TOLERANCE);
        eprintln!("## Perf gate: fresh run vs committed {path}\n");
        eprintln!("{}", report.table);
        // Record the run in the perf-trajectory log (git-ignored, one
        // JSON line per gate run) before any exit path. The history
        // hook also runs the in-process crash-recovery drill, so the
        // trajectory tracks recovery outcomes (checkpoints written,
        // edges replayed, journal size) alongside throughput — and a
        // broken recovery fails the gate like any other regression.
        if let Some(hpath) = &args.history {
            let drill = match recovery_drill() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("perf gate FAILURE: recovery drill: {e}");
                    std::process::exit(1);
                }
            };
            eprintln!(
                "recovery drill: {} checkpoints, {} edges replayed, {:.3}MB journal",
                drill.checkpoints, drill.replayed_edges, drill.wal_mb
            );
            // The serve drill rides the same hook: a broken or
            // zero-reply read path fails the gate like any regression.
            let serve = match loom_bench::serve_drill(&loom_bench::ServeBenchOptions::default()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("perf gate FAILURE: serve drill: {e}");
                    std::process::exit(1);
                }
            };
            eprintln!(
                "serve drill: {} queries over {:.0}ms from {} readers — {:.0} qps, \
                 p50 {}µs p99 {}µs, {} refused",
                serve.queries,
                serve.elapsed_ms,
                loom_bench::ServeBenchOptions::default().readers,
                serve.qps,
                serve.p50_us,
                serve.p99_us,
                serve.refused,
            );
            match append_history(hpath, &fresh, report.passed(), &drill, &serve) {
                Ok(()) => eprintln!("appended gate summary to {hpath}"),
                Err(e) => eprintln!("warning: cannot append history to {hpath}: {e}"),
            }
        }
        if report.passed() {
            eprintln!(
                "perf gate: ok (quality bit-stable, throughput within {:.0}%)",
                GATE_MS_TOLERANCE * 100.0
            );
        } else {
            for f in &report.failures {
                eprintln!("perf gate FAILURE: {f}");
            }
            std::process::exit(1);
        }
    }
}

/// Outcome of the crash-recovery drill — the numbers `--history`
/// records per gate run.
struct RecoveryDrill {
    /// Checkpoints written across the killed and the resumed process.
    checkpoints: u64,
    /// Journal edges replayed past the newest checkpoint on resume.
    replayed_edges: u64,
    /// Final journal size in MB.
    wal_mb: f64,
}

/// The in-process kill/resume drill run under `--history`: ingest a
/// synthetic stream with a WAL attached, "crash" by dropping the
/// engine at an edge that is neither a snapshot nor a checkpoint
/// boundary, resume into a fresh engine, run to the end, and require
/// the recovered state digest to be byte-identical to one
/// uninterrupted run. Any divergence is an `Err`, and the gate fails:
/// recovery breaking is as much a regression as a slowdown.
fn recovery_drill() -> Result<RecoveryDrill, String> {
    use loom_core::prelude::*;
    use loom_core::wal::MemBackend;

    const TOTAL: u64 = 20_000;
    const KILL: u64 = 13_000;
    const CHECKPOINT_EVERY: u64 = 4_000;
    const FP: &str = "repro recovery drill v1 ldg k=4 seed=42";

    fn fresh() -> OnlineEngine {
        OnlineEngine::new(
            Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive)),
            EngineConfig {
                snapshot_every: 5_000,
                batch_size: 256,
                ..EngineConfig::default()
            },
        )
    }

    let mut reference = fresh();
    reference
        .run(&mut SyntheticEdgeSource::new(42, 4), Some(TOTAL), |_| {})
        .map_err(|e| format!("reference run: {e}"))?;
    let want = reference
        .state_digest()
        .map_err(|e| format!("reference digest: {e}"))?;

    // The kill: the MemBackend clone shares the durable file map, so
    // dropping the engine loses exactly what a crash would lose.
    let backend = MemBackend::new();
    let mut first = fresh();
    first
        .attach_wal(Box::new(backend.clone()), CHECKPOINT_EVERY, FP)
        .map_err(|e| format!("attach: {e}"))?;
    first
        .run(&mut SyntheticEdgeSource::new(42, 4), Some(KILL), |_| {})
        .map_err(|e| format!("killed run: {e}"))?;
    let first_stats = first.recovery_stats().expect("wal attached");
    drop(first);

    let mut second = fresh();
    let durable = second
        .resume_from_wal(Box::new(backend), CHECKPOINT_EVERY, FP, |_| {})
        .map_err(|e| format!("resume: {e}"))?;
    if durable != KILL {
        return Err(format!(
            "expected {KILL} durable edges, recovered {durable}"
        ));
    }
    let mut src = SyntheticEdgeSource::new(42, 4);
    if src.skip_edges(durable) != durable {
        return Err("source ended inside the durable prefix".into());
    }
    second
        .run(&mut src, Some(TOTAL), |_| {})
        .map_err(|e| format!("resumed run: {e}"))?;
    if second
        .state_digest()
        .map_err(|e| format!("resumed digest: {e}"))?
        != want
    {
        return Err("recovered state digest diverged from the uninterrupted run".into());
    }
    let stats = second.recovery_stats().expect("wal attached");
    Ok(RecoveryDrill {
        checkpoints: first_stats.checkpoints_written + stats.checkpoints_written,
        replayed_edges: stats.replayed_edges,
        wal_mb: stats.journal_bytes as f64 / 1e6,
    })
}

/// Append one JSON line summarising a perf-gate run to `path` — the
/// cross-PR perf trajectory (`BENCH_history.jsonl`, git-ignored): when
/// it ran, whether the gate passed, every system's throughput/quality
/// numbers, and the recovery-drill outcomes.
fn append_history(
    path: &str,
    fresh: &loom_bench::BenchSummary,
    passed: bool,
    drill: &RecoveryDrill,
    serve: &loom_bench::ServeBenchResult,
) -> std::io::Result<()> {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut line = format!(
        "{{\"ts\": {ts}, \"scale\": \"{}\", \"seed\": {}, \"cells\": {}, \"gate\": \"{}\", \"systems\": {{",
        fresh.scale,
        fresh.seed,
        fresh.cells,
        if passed { "pass" } else { "fail" },
    );
    for (i, s) in fresh.systems.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        line.push_str(&format!(
            "\"{}\": {{\"ms_per_10k_edges\": {}, \"weighted_ipt\": {}, \"imbalance\": {}}}",
            s.name, s.ms_per_10k_edges, s.weighted_ipt, s.imbalance
        ));
    }
    line.push_str(&format!(
        "}}, \"recovery\": {{\"checkpoints\": {}, \"replayed_edges\": {}, \"wal_mb\": {:.3}}}, \
         \"serve\": {{\"qps\": {:.0}, \"queries\": {}, \"p50_us\": {}, \"p99_us\": {}, \"refused\": {}}}}}\n",
        drill.checkpoints,
        drill.replayed_edges,
        drill.wal_mb,
        serve.qps,
        serve.queries,
        serve.p50_us,
        serve.p99_us,
        serve.refused,
    ));
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Every long flag `parse_args_from` matches (short aliases
    /// aside) — the registry [`HELP`] is tested against.
    const FLAGS: [&str; 8] = [
        "experiment",
        "scale",
        "seed",
        "jsonl",
        "bench-json",
        "compare-bench",
        "history",
        "help",
    ];

    #[test]
    fn unknown_experiment_is_rejected() {
        // Regression: `repro --experiment fig99` used to select zero
        // suites and exit 0 silently.
        let err = parse_args_from(&args(&["--experiment", "fig99"]))
            .err()
            .expect("fig99 must be rejected");
        assert!(
            err.contains("fig99"),
            "error should name the bad value: {err}"
        );
        assert!(err.contains("fig4"), "error should list valid names: {err}");
    }

    #[test]
    fn every_advertised_experiment_parses() {
        for e in EXPERIMENTS {
            assert!(
                parse_args_from(&args(&["--experiment", e])).is_ok(),
                "{e} should be accepted"
            );
        }
    }

    #[test]
    fn defaults_to_all() {
        let a = parse_args_from(&[]).unwrap();
        assert_eq!(a.experiment, "all");
    }

    /// The `repro --help` drift guard: the flag registry and the help
    /// text must name exactly the same long flags.
    #[test]
    fn help_and_flag_registry_agree() {
        use std::collections::BTreeSet;
        let declared: BTreeSet<&str> = FLAGS.into_iter().collect();
        let mut documented: BTreeSet<String> = BTreeSet::new();
        for (i, _) in HELP.match_indices("--") {
            let name: String = HELP[i + 2..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect();
            if !name.is_empty() {
                documented.insert(name);
            }
        }
        let declared: BTreeSet<String> = declared.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            declared, documented,
            "repro --help and the FLAGS registry drifted apart"
        );
    }

    /// And the registry must match what the parser actually accepts:
    /// every declared flag (with a dummy value) parses, and a flag the
    /// parser would take but the registry omits cannot exist because
    /// unknown flags are rejected.
    #[test]
    fn every_declared_flag_parses() {
        for f in FLAGS {
            if f == "help" {
                continue; // exits the process by design
            }
            let value = match f {
                "experiment" => "fig4",
                "scale" => "tiny",
                "seed" => "1",
                _ => "/tmp/x",
            };
            assert!(
                parse_args_from(&args(&[&format!("--{f}"), value])).is_ok(),
                "--{f} should parse"
            );
        }
        assert!(parse_args_from(&args(&["--bogus", "x"])).is_err());
    }
}
