//! The CI perf/memory regression gate: compare a freshly regenerated
//! `BENCH_results.json` against the committed copy.
//!
//! Quality numbers (`weighted_ipt`, `imbalance`) are deterministic
//! functions of the seed, so the gate demands they match *exactly* —
//! any drift means a PR changed partitioning behaviour without saying
//! so. Throughput (`ms_per_10k_edges`) is wall-clock and noisy, so it
//! only fails on a regression beyond a tolerance (CI uses 30%).
//! Faster is never a failure; the printed table makes improvements
//! visible so the committed baseline can be refreshed deliberately.
//!
//! The parser is hand-rolled against the fixed shape
//! [`crate::suites::bench_summary`] writes — the workspace is offline
//! and carries no JSON dependency.

/// One system's summary row.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemSummary {
    /// System name ("Hash", "LDG", "Fennel", "Loom").
    pub name: String,
    /// Mean wall milliseconds per 10k edges across ipt cells.
    pub ms_per_10k_edges: f64,
    /// Mean frequency-weighted workload ipt across ipt cells.
    pub weighted_ipt: f64,
    /// Mean imbalance across ipt cells.
    pub imbalance: f64,
    /// Number of ipt cells averaged.
    pub cells: u64,
}

/// A parsed `BENCH_results.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSummary {
    /// Dataset scale the run used.
    pub scale: String,
    /// Master seed.
    pub seed: u64,
    /// Total ipt cells.
    pub cells: u64,
    /// Per-system rows, in file order.
    pub systems: Vec<SystemSummary>,
}

/// Extract the number following `"key": ` in `text` (first match).
fn number_after(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract the string following `"key": "` in `text` (first match).
fn string_after(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

impl BenchSummary {
    /// Parse the fixed format [`crate::suites::bench_summary`] writes.
    /// Returns a message naming what is malformed otherwise.
    pub fn parse(text: &str) -> Result<BenchSummary, String> {
        let scale = string_after(text, "scale").ok_or("missing \"scale\"")?;
        let seed = number_after(text, "seed").ok_or("missing \"seed\"")? as u64;
        let cells = number_after(text, "cells").ok_or("missing \"cells\"")? as u64;
        let systems_at = text
            .find("\"systems\"")
            .ok_or("missing \"systems\" object")?;
        let mut systems = Vec::new();
        for line in text[systems_at..].lines().skip(1) {
            let line = line.trim().trim_end_matches(',');
            if !line.contains("ms_per_10k_edges") {
                continue;
            }
            let name = line
                .strip_prefix('"')
                .and_then(|r| r.find('"').map(|i| r[..i].to_string()))
                .ok_or_else(|| format!("unparsable system row: {line}"))?;
            let get = |key: &str| {
                number_after(line, key).ok_or_else(|| format!("row '{name}' missing {key}"))
            };
            let row = SystemSummary {
                ms_per_10k_edges: get("ms_per_10k_edges")?,
                weighted_ipt: get("weighted_ipt")?,
                imbalance: get("imbalance")?,
                cells: get("cells")? as u64,
                name: name.clone(),
            };
            systems.push(row);
        }
        if systems.is_empty() {
            return Err("no system rows found".into());
        }
        Ok(BenchSummary {
            scale,
            seed,
            cells,
            systems,
        })
    }
}

/// Outcome of a gate run: the human-readable before/after table and
/// every failure, one message per violated rule (empty = gate passes).
#[derive(Clone, Debug)]
pub struct GateReport {
    /// Markdown before/after table.
    pub table: String,
    /// Violations; the gate passes iff this is empty.
    pub failures: Vec<String>,
}

impl GateReport {
    /// True when no rule was violated.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare a fresh run against the committed baseline.
///
/// Rules: the run shape (scale/seed/cells and the system set) must
/// match; `weighted_ipt` and `imbalance` must be exactly equal (both
/// files carry the same fixed-precision formatting, so determinism
/// means string-equal numbers); `ms_per_10k_edges` may not exceed the
/// baseline by more than `ms_tolerance` (fractional, e.g. 0.30).
pub fn compare(baseline: &BenchSummary, fresh: &BenchSummary, ms_tolerance: f64) -> GateReport {
    let mut failures = Vec::new();
    if baseline.scale != fresh.scale || baseline.seed != fresh.seed {
        failures.push(format!(
            "run shape changed: baseline scale '{}' seed {} vs fresh scale '{}' seed {}",
            baseline.scale, baseline.seed, fresh.scale, fresh.seed
        ));
    }
    if baseline.cells != fresh.cells {
        failures.push(format!(
            "ipt cell count changed: {} -> {} (suite selection drifted)",
            baseline.cells, fresh.cells
        ));
    }

    let mut rows = Vec::new();
    for base in &baseline.systems {
        let Some(new) = fresh.systems.iter().find(|s| s.name == base.name) else {
            failures.push(format!("system '{}' missing from the fresh run", base.name));
            continue;
        };
        let delta_pct = if base.ms_per_10k_edges > 0.0 {
            (new.ms_per_10k_edges / base.ms_per_10k_edges - 1.0) * 100.0
        } else {
            0.0
        };
        let mut status = "ok";
        if new.weighted_ipt != base.weighted_ipt {
            status = "FAIL";
            failures.push(format!(
                "{}: weighted_ipt drifted {} -> {} (quality must be bit-stable)",
                base.name, base.weighted_ipt, new.weighted_ipt
            ));
        }
        if new.imbalance != base.imbalance {
            status = "FAIL";
            failures.push(format!(
                "{}: imbalance drifted {} -> {} (quality must be bit-stable)",
                base.name, base.imbalance, new.imbalance
            ));
        }
        if new.cells != base.cells {
            status = "FAIL";
            failures.push(format!(
                "{}: ipt cells changed {} -> {}",
                base.name, base.cells, new.cells
            ));
        }
        if new.ms_per_10k_edges > base.ms_per_10k_edges * (1.0 + ms_tolerance) {
            status = "FAIL";
            failures.push(format!(
                "{}: ms/10k-edges regressed {:.3} -> {:.3} ({:+.1}%, tolerance {:.0}%)",
                base.name,
                base.ms_per_10k_edges,
                new.ms_per_10k_edges,
                delta_pct,
                ms_tolerance * 100.0
            ));
        }
        rows.push(format!(
            "| {} | {:.3} | {:.3} | {:+.1}% | {:.4} | {:.5} | {} |",
            base.name,
            base.ms_per_10k_edges,
            new.ms_per_10k_edges,
            delta_pct,
            new.weighted_ipt,
            new.imbalance,
            status
        ));
    }
    for new in &fresh.systems {
        if !baseline.systems.iter().any(|s| s.name == new.name) {
            failures.push(format!(
                "system '{}' appeared without a committed baseline",
                new.name
            ));
        }
    }

    let table = format!(
        "| system | ms/10k (committed) | ms/10k (fresh) | Δ | weighted_ipt | imbalance | status |\n|---|---|---|---|---|---|---|\n{}\n",
        rows.join("\n")
    );
    GateReport { table, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ms: f64, ipt: f64) -> String {
        format!(
            "{{\n  \"scale\": \"small\",\n  \"seed\": 42,\n  \"suites\": [\"fig7\", \"fig8\"],\n  \"cells\": 24,\n  \"systems\": {{\n    \"Hash\": {{\"ms_per_10k_edges\": 0.111, \"weighted_ipt\": 38985.4146, \"imbalance\": 0.05314, \"cells\": 24}},\n    \"Loom\": {{\"ms_per_10k_edges\": {ms}, \"weighted_ipt\": {ipt}, \"imbalance\": 0.08989, \"cells\": 24}}\n  }}\n}}\n"
        )
    }

    #[test]
    fn parses_the_writer_format() {
        let s = BenchSummary::parse(&sample(2.943, 19998.9554)).unwrap();
        assert_eq!(s.scale, "small");
        assert_eq!(s.seed, 42);
        assert_eq!(s.cells, 24);
        assert_eq!(s.systems.len(), 2);
        assert_eq!(s.systems[1].name, "Loom");
        assert_eq!(s.systems[1].ms_per_10k_edges, 2.943);
        assert_eq!(s.systems[1].weighted_ipt, 19998.9554);
        assert_eq!(s.systems[1].cells, 24);
    }

    #[test]
    fn truncated_baseline_is_a_named_error_not_a_panic() {
        // A partially-written baseline (interrupted run, bad merge)
        // must surface as Err naming the first missing field — the
        // gate binary maps any such Err to its own exit code.
        let full = sample(2.943, 19998.9554);
        assert!(BenchSummary::parse("").unwrap_err().contains("scale"));
        // Cut before the systems object: header parses, rows do not.
        let cut = &full[..full.find("\"systems\"").unwrap()];
        assert!(BenchSummary::parse(cut).unwrap_err().contains("systems"));
        // Cut mid-row: the row line that survives is complete (rows
        // are one line each), but the second system vanishes — still
        // a parse success, so the *gate* must flag the missing system.
        let cut = &full[..full.find("\"Loom\"").unwrap()];
        let partial = BenchSummary::parse(cut).expect("complete rows still parse");
        assert_eq!(partial.systems.len(), 1);
        let fresh = BenchSummary::parse(&full).unwrap();
        let report = compare(&partial, &fresh, 0.30);
        assert!(
            !report.passed(),
            "a system missing from the baseline must fail the gate"
        );
    }

    #[test]
    fn corrupt_row_names_the_field() {
        let broken = sample(2.943, 19998.9554)
            .replace("\"weighted_ipt\": 19998.9554", "\"weighted_ipt\": oops");
        let err = BenchSummary::parse(&broken).unwrap_err();
        assert!(
            err.contains("Loom") && err.contains("weighted_ipt"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn parses_the_committed_baseline() {
        // The actual committed file must always stay parsable.
        let text = include_str!("../../../BENCH_results.json");
        let s = BenchSummary::parse(text).expect("committed BENCH_results.json unparsable");
        assert_eq!(s.scale, "small");
        assert!(s.systems.iter().any(|r| r.name == "Loom"));
    }

    #[test]
    fn identical_runs_pass() {
        let a = BenchSummary::parse(&sample(2.9, 19998.9554)).unwrap();
        let r = compare(&a, &a.clone(), 0.30);
        assert!(r.passed(), "failures: {:?}", r.failures);
        assert!(r.table.contains("| Loom |"));
    }

    #[test]
    fn faster_is_not_a_failure() {
        let base = BenchSummary::parse(&sample(2.9, 19998.9554)).unwrap();
        let fresh = BenchSummary::parse(&sample(1.0, 19998.9554)).unwrap();
        assert!(compare(&base, &fresh, 0.30).passed());
    }

    #[test]
    fn slow_regression_fails_beyond_tolerance() {
        let base = BenchSummary::parse(&sample(2.0, 19998.9554)).unwrap();
        let within = BenchSummary::parse(&sample(2.5, 19998.9554)).unwrap();
        assert!(compare(&base, &within, 0.30).passed(), "25% is tolerated");
        let beyond = BenchSummary::parse(&sample(2.7, 19998.9554)).unwrap();
        let r = compare(&base, &beyond, 0.30);
        assert!(!r.passed());
        assert!(r.failures[0].contains("regressed"), "{:?}", r.failures);
    }

    #[test]
    fn quality_drift_fails_exactly() {
        let base = BenchSummary::parse(&sample(2.0, 19998.9554)).unwrap();
        let drift = BenchSummary::parse(&sample(2.0, 19998.9555)).unwrap();
        let r = compare(&base, &drift, 0.30);
        assert!(!r.passed());
        assert!(r.failures[0].contains("weighted_ipt"), "{:?}", r.failures);
        assert!(r.table.contains("FAIL"));
    }

    #[test]
    fn missing_system_fails() {
        let base = BenchSummary::parse(&sample(2.0, 19998.9554)).unwrap();
        let mut fresh = base.clone();
        fresh.systems.pop();
        let r = compare(&base, &fresh, 0.30);
        assert!(!r.passed());
        assert!(r.failures[0].contains("missing"), "{:?}", r.failures);
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(BenchSummary::parse("{}").is_err());
        assert!(BenchSummary::parse("not json at all").is_err());
    }
}
