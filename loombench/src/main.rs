//! The Loom benchmark: one command, three workloads, run in-process
//! against the public API at the default knobs.
//!
//! ```text
//! cargo run --release --manifest-path loombench/Cargo.toml -- \
//!     --workload dblp-paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run prints a table of what it measured, then, as its last
//! line, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics, measured
//! untraced; `--trace 1` adds a traced pass and reports the per-layer
//! metrics. A failed correctness check exits with code 1, a usage
//! error with code 2. See NOTES.md for the workloads and metric map.

mod common;
mod dblp;
mod durable;
mod layers;
mod loadgen;
mod serve;
mod stats;
mod trace;

use common::{Opts, Report};

/// End-to-end metrics (`--trace 0`), in BENCHMARK.json order. Each is
/// measured on every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("ingest_eps", "edges/s"),
    ("batch_p999_us", "us"),
    ("cut_fraction", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), in BENCHMARK.json order. First come
/// the end-to-end figures that cannot be gated: some workload cannot
/// have them (ipt, recovery, queries), they read zero on some seeds
/// (imbalance), or their spread over seeds reaches the largest bound
/// (batch p50 and p99; see NOTES.md). A layer with no work on a
/// workload reads zero.
const PER_LAYER: [(&str, &str); 53] = [
    ("weighted_ipt", "traversals"),
    ("imbalance", "ratio"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("disk_bytes_per_edge", "B/edge"),
    ("recover_s", "s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("query_failed_frac", "ratio"),
    ("view_lag_p99_edges", "edges"),
    ("graph.source_ns_per_edge", "ns/edge"),
    ("motif.build_ms", "ms"),
    ("motif.count", "count"),
    ("partition.batch_ns_per_edge", "ns/edge"),
    ("partition.bypassed_frac", "ratio"),
    ("partition.buffered_frac", "ratio"),
    ("partition.auctions_per_10k", "per-10k-edges"),
    ("partition.fallback_auctions_per_10k", "per-10k-edges"),
    ("partition.matches_per_auction", "ratio"),
    ("matcher.phase_ns_per_edge", "ns/edge"),
    ("partition.phase_ns_per_edge", "ns/edge"),
    ("window.phase_ns_per_edge", "ns/edge"),
    ("matcher.arena_resident_cells", "count"),
    ("matcher.arena_generation", "count"),
    ("partition.adjacency_resident_entries", "count"),
    ("partition.adjacency_generation", "count"),
    ("engine.self_ns_per_edge", "ns/edge"),
    ("wal.append_ns_per_edge", "ns/edge"),
    ("wal.flush_count", "count"),
    ("wal.flush_us_p99", "us"),
    ("wal.checkpoint_count", "count"),
    ("wal.checkpoint_ms_p50", "ms"),
    ("wal.checkpoint_ms_max", "ms"),
    ("wal.checkpoint_bytes", "B"),
    ("wal.journal_bytes", "B"),
    ("wal.recover_read_ms", "ms"),
    ("wal.replayed_edges", "count"),
    ("serve.publish_count", "count"),
    ("serve.publish_ms_p50", "ms"),
    ("serve.publish_ms_p99", "ms"),
    ("query.exec_us_p50.STATS", "us"),
    ("query.exec_us_p50.EPOCH", "us"),
    ("query.exec_us_p50.PART", "us"),
    ("query.exec_us_p50.KHOP", "us"),
    ("query.exec_us_p50.MATCH", "us"),
    ("runtime.server_us_p99", "us"),
    ("runtime.refused", "count"),
    ("runtime.servemetrics_p99_floor_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("loadgen.late_us_p99", "us"),
    ("loadgen.part_none_frac", "ratio"),
    ("loadgen.khop_visited1_frac", "ratio"),
];

const WORKLOADS: [&str; 3] = ["dblp-paper", "synthetic-durable", "synthetic-serve"];

const USAGE: &str = "usage: loombench --workload <dblp-paper|synthetic-durable|synthetic-serve> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let bad = |what: &str| format!("bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let opts = Opts {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    };
    Ok((workload, opts))
}

/// A metric's row: name, value, unit.
type Row = (String, f64, &'static str);

/// `metrics` looked up in `reports` in order. A metric no report holds
/// reads zero: its layer did no work on this workload.
fn select(metrics: &[(&str, &'static str)], reports: &[&Report]) -> Vec<Row> {
    metrics
        .iter()
        .map(|&(name, unit)| {
            let value = reports
                .iter()
                .find_map(|r| r.get(name))
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            (name.to_string(), value, unit)
        })
        .collect()
}

fn print_table(title: &str, rows: &[Row]) {
    println!("== {title}");
    for (name, value, unit) in rows {
        println!("{name:<40} {value:>16.4} {unit}");
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn main() {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "# loombench {workload} seed={} seconds={} trace={} parallelism={}",
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let (e2e, traced) = match workload.as_str() {
        "dblp-paper" => dblp::run(&opts),
        "synthetic-durable" => durable::run(&opts),
        _ => serve::run(&opts),
    };
    // The untraced table holds every figure the workload has,
    // including those BENCHMARK.json lists as per-layer.
    print_table("end to end (untraced)", &e2e.metrics);
    let mut failures = e2e.failures.clone();
    let (mut attempted, mut failed) = (e2e.attempted, e2e.failed);
    let rows = match &traced {
        None => select(&END_TO_END, &[&e2e]),
        Some(t) => {
            failures.extend(t.failures.iter().cloned());
            attempted += t.attempted;
            failed += t.failed;
            // Figures both passes measured (recovery, ipt) are
            // reported from the untraced one.
            let rows = select(&PER_LAYER, &[&e2e, t]);
            print_table("per layer (traced)", &rows);
            rows
        }
    };
    let line = result_json(failures.is_empty(), attempted, failed, &rows);
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    println!("{line}");
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root names the same metrics in
    /// the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        // (name, unit) of every object in a section; "" when it has no unit.
        let entries = |section: &str| -> Vec<(String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let field = |obj: &str, key: &str| {
                obj.split(&format!("\"{key}\": \""))
                    .nth(1)
                    .map_or(String::new(), |v| v[..v.find('"').unwrap()].to_string())
            };
            body.split('{')
                .skip(1)
                .map(|obj| (field(obj, "name"), field(obj, "unit")))
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(entries("end_to_end"), owned(&END_TO_END));
        assert_eq!(entries("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_fills_idle_layers_with_zero() {
        let mut r = Report::default();
        r.set("a", 1.5, "s");
        let rows = select(&[("a", "s"), ("b", "count")], &[&r]);
        assert_eq!(
            result_json(true, 3, 0, &rows),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
